"""The fluid round's replay plan against the by-name replay it replaced.

A clean probe walk closes into a flat ``_ReplayPlan`` that a round
commit applies with one slot add per counter; ``reference_replay.py``
keeps the old ``(obj, attr, amount)`` recording and ``setattr`` replay.
Two checks hold them equal, counter for counter:

* hypothesis-generated walks — any hosts, links, switches, cache stat
  triples, per-layer ``Counter`` keys and delivery counters, replayed
  ``times`` 0..n over — on two identical networks,
  one replaying the plan and one the reference;
* the three hybrid workloads of ``python -m bench --quick``, run once
  with the plan and once with the reference swapped into every round.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from bench.__main__ import QUICK_SCALE
from bench.workloads import WORKLOADS
from repro.core import SwitchV2P
from repro.experiments.runner import build_network
from repro.metrics.collector import FlowRecord
from repro.net.node import Layer
from repro.net.topology import FatTreeSpec
from repro.sim import fluid as fluid_module
from repro.sim.fluid import (
    _COLLECTOR_INTS,
    _DELIVERY_INTS,
    _ST_CLEAN,
    _cache_counts,
    _FluidFlow,
)

import reference_replay
from conftest import cable_fully


def _network():
    """A hybrid FT8 network with every cable made, so that a walk may
    touch any link."""
    network = build_network(FatTreeSpec(), SwitchV2P(16384), 64, seed=7,
                            fidelity="hybrid")
    cable_fully(network.fabric)
    return network


def _every_counter(network, records=()):
    """Every counter a replay may move, and the ones it must not."""
    collector = network.collector
    scheme = network.scheme
    return {
        "links": [(s.packets, s.bytes, s.drops, s.lost)
                  for s in (link.stats for link in network.fabric.links())],
        "switches": [(s.stats.packets, s.stats.bytes, s.stats.drops)
                     for s in network.fabric.switches],
        "caches": sorted((switch_id, _cache_counts(cache.stats))
                         for switch_id, cache in scheme.caches.items()),
        "hosts": [(host.packets_sent, host.unroutable_drops, host.misdeliveries)
                  for host in network.hosts],
        "collector": [getattr(collector, name) for name in _COLLECTOR_INTS],
        "hits_by_layer": list(collector.hits_by_layer.items()),
        "first_hits": list(collector.first_packet_hits_by_layer.items()),
        "records": [(r.bytes_received, r.fct_ns, r.first_packet_latency_ns,
                     r.retransmissions) for r in records],
        "fluid": network.fluid.stats_dict(),
        "events": network.engine.events_processed,
    }


# ----------------------------------------------------------------------
# hypothesis-generated walks
# ----------------------------------------------------------------------
_AMOUNT = st.integers(1, 3)
_WALKS = st.fixed_dictionaries({
    "payload": st.integers(0, 9000),
    # Host indices: the data packet's sender, then the ACK's.
    "hosts": st.lists(st.integers(0, 63), min_size=1, max_size=2),
    # (stats index, packets, bytes): links first, then switches.
    "traffic": st.lists(st.tuples(st.integers(0, 500), _AMOUNT,
                                  st.integers(1, 9000)), max_size=14),
    # (cache index, lookups, hits, rejections).
    "caches": st.lists(st.tuples(st.integers(0, 79), st.integers(0, 3),
                                 st.integers(0, 3), st.integers(0, 2)),
                       max_size=6),
    # (which Counter, key, amount): Layer members and other keys.
    "layer_hits": st.lists(st.tuples(
        st.booleans(),
        st.one_of(st.sampled_from(list(Layer)), st.text(max_size=3)),
        _AMOUNT), max_size=5),
    "delivery": st.tuples(*[st.integers(0, 2000)] * _DELIVERY_INTS),
})


def _walk(network, walk):
    """Apply ``walk`` to ``network`` as a probe walk would, through the
    scheduler's own snapshot and close; return the flow and context."""
    fluid = network.fluid
    record = FlowRecord(1, 0, 1, 10**9, 0)
    receiver = SimpleNamespace(rcv_next=0)
    flow = _FluidFlow(1, None, receiver, record, 0, 1, walk["payload"],
                      0, 10**6, 128)
    ctx = fluid._walk_open()
    hosts = network.hosts
    for index in walk["hosts"]:
        hosts[index].packets_sent += 1
        ctx.hosts.append(hosts[index])
    record.bytes_received += flow.payload
    receiver.rcv_next += 1
    stats = ([link.stats for link in network.fabric.links()]
             + [switch.stats for switch in network.fabric.switches])
    for index, packets, size in walk["traffic"]:
        entry = stats[index % len(stats)]
        entry.packets += packets
        entry.bytes += size
        old = ctx.traffic.get(entry, (0, 0))
        ctx.traffic[entry] = (old[0] + packets, old[1] + size)
    caches = [cache for _, cache in sorted(network.scheme.caches.items())]
    for index, lookups, hits, rejections in walk["caches"]:
        cache_stats = caches[index % len(caches)].stats
        if cache_stats not in ctx.cache_before:
            ctx.cache_before[cache_stats] = _cache_counts(cache_stats)
        cache_stats.lookups += lookups
        cache_stats.hits += hits
        cache_stats.rejections += rejections
    collector = network.collector
    for first, key, amount in walk["layer_hits"]:
        counter = (collector.first_packet_hits_by_layer if first
                   else collector.hits_by_layer)
        counter[key] += amount
    for name, amount in zip(_COLLECTOR_INTS, walk["delivery"]):
        setattr(collector, name, getattr(collector, name) + amount)
    return flow, ctx


def _check_plan_against_reference(walk, times):
    planned, by_name = _network(), _network()
    flow, ctx = _walk(planned, walk)
    status, ctx, _ = planned.fluid._walk_close(flow, ctx, _ST_CLEAN, 0)
    assert status == _ST_CLEAN
    flow.plan = ctx.plan
    ref_flow, ref_ctx = _walk(by_name, walk)
    recorded = reference_replay.record(by_name.fluid, ref_flow, ref_ctx)
    assert _every_counter(planned, [flow.record]) \
        == _every_counter(by_name, [ref_flow.record])
    planned.fluid._commit_deltas(flow, times)
    reference_replay.replay(by_name.fluid, recorded, times)
    assert (_every_counter(planned, [flow.record]), flow.receiver.rcv_next) \
        == (_every_counter(by_name, [ref_flow.record]),
            ref_flow.receiver.rcv_next)


_SETTINGS = dict(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(**_SETTINGS)
@given(walk=_WALKS, times=st.integers(0, 300))
def test_plan_replays_like_the_by_name_reference(walk, times):
    _check_plan_against_reference(walk, times)


def test_the_walk_differential_catches_a_plan_without_the_acks_host(monkeypatch):
    """A plan that keeps only the data packet's sender must not pass."""
    close = fluid_module.FluidScheduler._walk_close

    def seeded(self, flow, ctx, status, rtt):
        status, ctx, rtt = close(self, flow, ctx, status, rtt)
        if ctx.plan is not None:
            ctx.plan = ctx.plan._replace(hosts=ctx.plan.hosts[:1])
        return status, ctx, rtt

    monkeypatch.setattr(fluid_module.FluidScheduler, "_walk_close", seeded)

    # Same cases; finding the failure is enough, shrinking it is not needed.
    @settings(**_SETTINGS, phases=[Phase.generate])
    @given(walk=_WALKS, times=st.integers(0, 300))
    def check(walk, times):
        _check_plan_against_reference(walk, times)

    with pytest.raises(AssertionError):
        check()


# ----------------------------------------------------------------------
# whole runs: the hybrid workloads of ``python -m bench --quick``
# ----------------------------------------------------------------------
def _replay_by_name(fluid):
    """Make every round of ``fluid`` replay through the reference."""
    recorded = {}
    close = fluid._walk_close

    def walk_close(flow, ctx, status, rtt):
        if status == _ST_CLEAN:
            by_name = reference_replay.record(fluid, flow, ctx)
        status, ctx, rtt = close(flow, ctx, status, rtt)
        if status == _ST_CLEAN:
            recorded[flow] = by_name
        return status, ctx, rtt

    fluid._walk_close = walk_close
    fluid._commit_deltas = lambda flow, times: reference_replay.replay(
        fluid, recorded[flow], times)


def _quick_run(name, by_name):
    workload = WORKLOADS[name](QUICK_SCALE, None)
    flows = workload.flows(1)
    network = workload.build(1)
    if by_name:
        _replay_by_name(network.fluid)
    (result,) = workload.run(network, flows, 1, None, 0)
    records = sorted(network.collector.flows.values(), key=lambda r: r.flow_id)
    return result, _every_counter(network, records)


@pytest.mark.parametrize("name", ["steady-hybrid", "churn-hybrid", "k32-scale"])
def test_quick_hybrid_runs_equal_the_by_name_replay(name):
    planned, planned_counters = _quick_run(name, by_name=False)
    by_name, by_name_counters = _quick_run(name, by_name=True)
    assert planned_counters == by_name_counters
    assert planned == by_name
