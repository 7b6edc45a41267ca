"""The fluid engine's round replay as it was before the replay plan: by name.

A clean probe walk used to record every counter it moved as an
``(obj, attr, amount)`` triple — the hosts' ``packets_sent``, the
record's ``bytes_received``, the receiver's ``rcv_next``, every
collector counter and cache stat that moved — beside its link/switch
traffic and ``Counter`` entries, and a round commit applied each triple
with ``setattr(obj, attr, getattr(obj, attr) + amount * times)``.
``repro.sim.fluid`` now closes the walk into a flat ``_ReplayPlan``
instead; ``tests/test_replay_plan.py`` holds the plan to this.

:func:`record` derives the by-name deltas from a finished walk's
context exactly as the old ``_walk_*`` code recorded them; :func:`replay`
is the old ``_commit_deltas``, verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.fluid import _COLLECTOR_INTS

_CACHE_REPLICABLE = ("lookups", "hits", "rejections")
_CACHE_MUTATING = ("insertions", "evictions", "invalidations")


@dataclass
class ByName:
    """What one clean walk recorded, the old way."""

    deltas: list[tuple[Any, str, int]] = field(default_factory=list)
    traffic: dict[Any, tuple[int, int]] = field(default_factory=dict)
    counter_deltas: list[tuple[Any, Any, int]] = field(default_factory=list)


def record(fluid, flow, ctx) -> ByName:
    """The by-name deltas of the walk ``ctx`` just finished."""
    out = ByName(traffic=dict(ctx.traffic))
    deltas = out.deltas
    hosts = list(ctx.hosts)
    deltas.append((hosts[0], "packets_sent", 1))
    deltas.append((flow.record, "bytes_received", flow.payload))
    deltas.append((flow.receiver, "rcv_next", 1))
    for host in hosts[1:]:
        deltas.append((host, "packets_sent", 1))
    collector = fluid.collector
    for name, before in zip(_COLLECTOR_INTS, ctx.collector_before):
        after = getattr(collector, name)
        if after != before:
            deltas.append((collector, name, after - before))
    _diff_counter(out, collector.hits_by_layer, dict(ctx.hits_before))
    _diff_counter(out, collector.first_packet_hits_by_layer,
                  dict(ctx.first_hits_before))
    replicable = len(_CACHE_REPLICABLE)
    names = _CACHE_REPLICABLE + _CACHE_MUTATING
    # The old snapshot order: lookups, hits, rejections, insertions,
    # evictions, invalidations.
    for stats, before in ctx.cache_before.items():
        for i, name in enumerate(names):
            diff = getattr(stats, name) - before[i]
            if diff and i < replicable:
                deltas.append((stats, name, diff))
    return out


def _diff_counter(out: ByName, counter: Any, before: dict[Any, int]) -> None:
    if len(counter) == len(before) and not any(
            counter[key] != val for key, val in before.items()):
        return
    for key, after in counter.items():
        diff = after - before.get(key, 0)
        if diff:
            out.counter_deltas.append((counter, key, diff))


def replay(fluid, recorded: ByName, times: int) -> None:
    """Apply the recorded per-packet deltas ``times`` more times."""
    if times <= 0:
        return
    for stats, (packets, size) in recorded.traffic.items():
        stats.packets += packets * times
        stats.bytes += size * times
    for obj, attr, amount in recorded.deltas:
        setattr(obj, attr, getattr(obj, attr) + amount * times)
    for counter, key, amount in recorded.counter_deltas:
        counter[key] += amount * times
    fluid.fluid_packets += times
