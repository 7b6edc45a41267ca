"""Heterogeneous in-switch memory allocation (paper §4).

The paper's evaluation splits the aggregate cache budget equally across
all switches, but §4 ("Heterogeneous memory allocation") observes that
other splits can be attractive — e.g. a ToR-only allocation captures
much of the FCT benefit for Hadoop while giving up the first-packet
gains, and leaves memory-allocation policies as future work.  This
module implements that design space so the trade-off is measurable
(the ``ablation_allocation`` entry of
``repro.experiments.artifacts``).

A policy assigns a relative weight to each switch based on its role;
the aggregate budget is distributed proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.roles import Role


@dataclass(frozen=True)
class AllocationPolicy:
    """Relative cache-memory weights per switch role.

    Weights are relative shares, not percentages: a switch's slot count
    is ``total * weight / sum-of-weights``.  A zero weight disables
    caching at that role entirely.
    """

    name: str
    tor: float = 1.0
    spine: float = 1.0
    core: float = 1.0
    gateway_tor: float = 1.0
    gateway_spine: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.tor, self.spine, self.core, self.gateway_tor,
                   self.gateway_spine)
        if any(w < 0 for w in weights):
            raise ValueError(f"negative allocation weight in {self.name!r}")
        if all(w == 0 for w in weights):
            raise ValueError("allocation policy disables every switch")

    def weight(self, role: Role) -> float:
        if role == Role.TOR:
            return self.tor
        if role == Role.SPINE:
            return self.spine
        if role == Role.CORE:
            return self.core
        if role == Role.GATEWAY_TOR:
            return self.gateway_tor
        return self.gateway_spine


#: The paper's evaluated configuration: equal share everywhere.
UNIFORM = AllocationPolicy("uniform")

#: §4's alternative: memory only in ToR switches (incl. gateway ToRs).
TOR_ONLY = AllocationPolicy("tor-only", tor=1.0, spine=0.0, core=0.0,
                            gateway_tor=1.0, gateway_spine=0.0)

#: Bias toward the edge, keeping some fabric-level sharing.
EDGE_HEAVY = AllocationPolicy("edge-heavy", tor=4.0, spine=1.0, core=1.0,
                              gateway_tor=4.0, gateway_spine=1.0)

#: Bias toward shared upper layers (more entry sharing, farther hits).
CORE_HEAVY = AllocationPolicy("core-heavy", tor=1.0, spine=2.0, core=4.0,
                              gateway_tor=1.0, gateway_spine=2.0)

NAMED_POLICIES = {
    policy.name: policy
    for policy in (UNIFORM, TOR_ONLY, EDGE_HEAVY, CORE_HEAVY)
}


def distribute_slots(total_slots: int, roles: dict[int, Role],
                     policy: AllocationPolicy) -> dict[int, int]:
    """Split ``total_slots`` across switches according to ``policy``.

    Uses largest-remainder rounding so the distributed total never
    exceeds the budget and wastes at most a fraction of a slot per
    switch.
    """
    if total_slots < 0:
        raise ValueError(f"negative budget: {total_slots}")
    weights = {sid: policy.weight(role) for sid, role in roles.items()}
    weight_sum = sum(weights.values())
    if weight_sum == 0:
        return {sid: 0 for sid in roles}
    exact = {sid: total_slots * w / weight_sum for sid, w in weights.items()}
    floors = {sid: int(v) for sid, v in exact.items()}
    remainder = total_slots - sum(floors.values())
    # Hand out the leftover slots to the largest fractional parts.
    by_fraction = sorted(exact, key=lambda sid: exact[sid] - floors[sid],
                         reverse=True)
    for sid in by_fraction[:remainder]:
        floors[sid] += 1
    return floors
