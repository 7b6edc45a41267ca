"""Switch role classification (paper §3.2, Table 1).

SwitchV2P classifies switches into five categories by their position
relative to the gateways: gateway ToRs (directly attached to a
gateway), gateway spines (directly attached to a gateway ToR), and
regular ToRs, spines and cores.  Each category gets its own admission
policy and special functions.
"""

from __future__ import annotations

from enum import IntEnum

from repro.net.node import Layer
from repro.net.topology import Fabric


class Role(IntEnum):
    """SwitchV2P switch categories."""

    TOR = 0
    SPINE = 1
    CORE = 2
    GATEWAY_TOR = 3
    GATEWAY_SPINE = 4


def assign_roles(fabric: Fabric,
                 gateway_pips: set[int] | None = None) -> dict[int, Role]:
    """Map every switch id in ``fabric`` to its SwitchV2P role.

    Roles are recomputable at runtime — the paper's gateway-migration
    discussion (§4) notes that moving a gateway only requires this
    control-plane reclassification, with caches rebuilt in place.

    Args:
        gateway_pips: if given, gateway ToRs are derived from the
            switches these addresses actually attach to (the dynamic
            view after gateway moves); otherwise the static topology
            spec determines them.
    """
    if gateway_pips is None:
        gateway_tors = fabric.gateway_tor_ids()
        gateway_spines = fabric.gateway_spine_ids()
    else:
        gateway_tors = {
            switch.switch_id for switch in fabric.switches
            if switch.layer == Layer.TOR
            and not gateway_pips.isdisjoint(switch.host_links)
        }
        gateway_pods = {fabric.switch_by_id[sid].pod for sid in gateway_tors}
        gateway_spines = {
            switch.switch_id for switch in fabric.switches
            if switch.layer == Layer.SPINE and switch.pod in gateway_pods
        }
    roles: dict[int, Role] = {}
    for switch in fabric.switches:
        if switch.switch_id in gateway_tors:
            roles[switch.switch_id] = Role.GATEWAY_TOR
        elif switch.switch_id in gateway_spines:
            roles[switch.switch_id] = Role.GATEWAY_SPINE
        elif switch.layer == Layer.TOR:
            roles[switch.switch_id] = Role.TOR
        elif switch.layer == Layer.SPINE:
            roles[switch.switch_id] = Role.SPINE
        else:
            roles[switch.switch_id] = Role.CORE
    return roles
