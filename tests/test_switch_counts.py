"""A switch's traffic counts, read off its ingress links, against the
per-hop counters the switch bodies used to keep.

No hop counts ``SwitchStats.packets`` / ``.bytes``: they are what the
switch's ingress links sent less what was lost on the wire, what the
switch refused while failed and what is still in flight to it.
:class:`CountingSwitch` counts every arrival the way ``Switch.receive``
did when it kept the counters (after the failed-switch refusal, before
anything else), and :func:`count_fluid_hops` adds the hops of a hybrid
run's fluid walks and round replays, which wrote the same counters
beside their link counters.  Each case below exercises one correction
or the fluid path.
"""

from __future__ import annotations

import random

from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.faults import FaultSchedule
from repro.net import topology
from repro.net.node import Switch
from repro.net.packet import PacketKind
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec, usec
from repro.traces.spec import TraceSpec
from repro.transport.flow import FlowSpec


class CountingSwitch(Switch):
    """A switch that also counts its arrivals per hop, as it used to."""

    __slots__ = ("ref_packets", "ref_bytes")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ref_packets = self.ref_bytes = 0

    def receive(self, packet, link=None) -> None:
        if not self._failed:
            self.ref_packets += 1
            self.ref_bytes += packet._wire_bytes
        Switch.receive(self, packet, link)


def count_fluid_hops(network) -> None:
    """Credit each switch a fluid walk or round replay crosses, once per
    packet its ingress link carries there."""
    fluid = network.fluid
    walk, commit = fluid._walk_round, fluid._commit_deltas

    def credit(traffic, times):
        for link, packets, size in traffic:
            if isinstance(link.dst, Switch):
                link.dst.ref_packets += packets * times
                link.dst.ref_bytes += size * times

    def walk_round(flow):
        status, ctx, rtt = walk(flow)
        credit(((link, *counts) for link, counts in ctx.traffic.items()), 1)
        return status, ctx, rtt

    def commit_deltas(flow, times):
        commit(flow, times)
        if times > 0:
            credit(flow.plan.traffic, times)

    fluid._walk_round = walk_round
    fluid._commit_deltas = commit_deltas


def _network(monkeypatch, scheme="NoCache", num_vms=320, fidelity="packet"):
    monkeypatch.setattr(topology, "Switch", CountingSwitch)
    return build_network(FatTreeSpec(), make_scheme(scheme, num_vms, 4.0),
                         num_vms, seed=1, fidelity=fidelity)


def _hadoop():
    return TraceSpec.create("hadoop", 6, num_vms=320, num_flows=100).materialize()


def _assert_counts_match(network, traffic=True):
    switches = network.fabric.switches
    assert all(type(switch) is CountingSwitch for switch in switches)
    assert [(s.stats.packets, s.stats.bytes) for s in switches] \
        == [(s.ref_packets, s.ref_bytes) for s in switches]
    assert (sum(s.ref_bytes for s in switches) > 0) == traffic


def _in_flight_to_switches(network) -> int:
    return sum(1 for _at, callback, _args in network.engine.iter_pending()
               if isinstance(getattr(callback, "__self__", None), Switch))


def test_a_horizon_cut_leaves_packets_on_the_wire(monkeypatch):
    for scheme in ("NoCache", "SwitchV2P"):
        network = _network(monkeypatch, scheme)
        run_flows(network, _hadoop(), horizon_ns=usec(100))
        assert _in_flight_to_switches(network) > 0
        _assert_counts_match(network)


def test_a_switch_that_fails_mid_flow_refuses_arrivals(monkeypatch):
    network = _network(monkeypatch)
    # Its servers keep sending to a failed ToR, which refuses them.
    FaultSchedule().switch_outage("tor", (0, 0), usec(20),
                                  msec(1)).apply(network)
    result = run_flows(network, _hadoop())
    tor = network.fabric.tors[(0, 0)]
    assert tor.stats.refused > 0 and tor.stats.refused_bytes > 0
    assert result.completion_rate == 1.0
    _assert_counts_match(network)


def test_a_lossy_link_loses_what_it_sent(monkeypatch):
    network = _network(monkeypatch)
    fabric = network.fabric
    tor = fabric.tors[(0, 0)]
    links = [fabric.link_between(a, b)
             for j in range(fabric.spec.spines_per_pod)
             for a, b in ((tor, fabric.spines[(0, j)]),
                          (fabric.spines[(0, j)], tor))]
    fabric.impair_links(links, 0.2, random.Random(5))
    result = run_flows(network, _hadoop())
    assert sum(link.lost for link in links) > 0
    assert sum(link.lost_bytes for link in links) > 0
    assert result.completion_rate == 1.0
    _assert_counts_match(network)


def test_a_hybrid_run_counts_its_fluid_hops(monkeypatch):
    network = _network(monkeypatch, "SwitchV2P", num_vms=64,
                       fidelity="hybrid")
    count_fluid_hops(network)
    flows = [FlowSpec(src_vip=2 * i, dst_vip=2 * i + 1, size_bytes=1_000_000,
                      start_ns=i * 1000) for i in range(2)]
    result = run_flows(network, flows, trace_name="steady")
    assert result.completion_rate == 1.0
    assert network.fluid.fluid_packets > 0
    _assert_counts_match(network)


def test_a_fluid_walk_into_a_failed_switch_is_refused(monkeypatch):
    """A walk is instantaneous and every fault escalates the fluid flows,
    so no run here walks into a failed switch: drive one walk by hand."""
    network = _network(monkeypatch, "SwitchV2P", num_vms=64,
                       fidelity="hybrid")
    host = network.host_of(0)
    tor = host.uplink.dst
    tor.fail()
    packet = host.new_packet(PacketKind.DATA, 1, 0, 1000, 0, 1)
    fluid = network.fluid
    fluid._walk_packet(fluid._walk_open(), host, packet)
    assert host.uplink.packets == 1 and tor.stats.refused == 1
    assert tor.stats.refused_bytes == host.uplink.bytes
    _assert_counts_match(network, traffic=False)
