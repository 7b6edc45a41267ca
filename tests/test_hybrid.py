"""Tests for the one failure mode of hybrid *fidelity*'s calendar-event
rounds: the stale commit event a cancelled round leaves behind."""

from repro.core import SwitchV2P
from repro.experiments.runner import build_network
from repro.faults.oracles import OracleSuite
from repro.net.packet import Packet
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

import pytest


# ----------------------------------------------------------------------
# hybrid fidelity: a cancelled round's commit event stays on the calendar
# ----------------------------------------------------------------------
_FLOW_BYTES = 3_000_000


def _mid_round(stretch=1):
    """One long flow on FT8, stopped 40 packets into its first fluid round.

    ``stretch`` multiplies the pacing a probe measures, so that a round's
    commit event lies far enough ahead for the flow to be re-adopted
    before it.
    """
    network = build_network(FatTreeSpec(), SwitchV2P(16384), 64, seed=7,
                            fidelity="hybrid")
    suite = OracleSuite(network)
    fluid = network.fluid
    arm = fluid._commit_arm

    def stretched_arm(flow, probed):
        if probed:  # the interval was just measured; a skip reuses it
            flow.iso_interval *= stretch
        arm(flow, probed)

    fluid._commit_arm = stretched_arm
    TrafficPlayer(network).add_flows(
        [FlowSpec(src_vip=0, dst_vip=1, size_bytes=_FLOW_BYTES, start_ns=0)])
    while not fluid._flows:
        network.run(until=network.engine.now + usec(5))
    (flow,) = fluid._flows.values()
    network.run(until=flow.t0 + 40 * flow.interval)
    assert flow.token and flow.round_size > 41
    return network, flow, suite


def _commit_events(network):
    return [(at, args) for at, callback, args in network.engine.iter_pending()
            if callback == network.fluid._commit]


def _state(network, *flows):
    """What a commit moves: scheduler counts and clock, both transport
    ends, the flow's progress and the traffic counters it replays."""
    fluid = network.fluid
    return (fluid.stats_dict(), fluid.perf.ns,
            network.collector.deliveries,
            [(flow.token, flow.sent, flow.sender.snd_una, flow.sender.snd_next,
              flow.sender.acks_received, flow.receiver.rcv_next,
              flow.record.bytes_received,
              [(stats.packets, stats.bytes) for stats, _, _ in flow.plan.traffic])
             for flow in flows])


def _finish(network, suite):
    horizon = msec(50)
    network.run(until=horizon)
    suite.finish(horizon)
    assert not suite.violations
    (record,) = network.collector.flows.values()
    assert record.completed and record.bytes_received == _FLOW_BYTES
    assert not _commit_events(network)


_CANCELLERS = {
    "escalate_switch": lambda network, flow: network.fluid.escalate_switch(
        min(flow.switch_ids), "cache-mutation"),
    "escalate_all": lambda network, flow: network.fluid.escalate_all(
        "gateway-change"),
    "fabric-fault": lambda network, flow: network.fabric.cores[0].fail(),
}


def test_impairing_a_cable_escalates_without_its_caller_pinging():
    """``Fabric.impair_links`` is the mutator, so it notifies: the links
    stay up (no fault-count transition), yet the memoized-clean paths
    go and the adopted flow returns to packet level, reason ``fault``."""
    network, flow, suite = _mid_round()
    fluid, fabric = network.fluid, network.fabric
    fluid._clean_sigs.add(("a", "memoized", "path"))
    spine, core = fabric.spines[(0, 0)], fabric.cores[0]
    cable = [fabric.link_between(spine, core),
             fabric.link_between(core, spine)]
    fabric.impair_links(cable, 0.01, network.streams.stream("fault-link-loss"),
                        extra_ns=500)
    assert fabric.fault_count == 0 and all(link.up for link in cable)
    assert [link.loss_rate for link in cable] == [0.01, 0.01]
    assert not fluid._clean_sigs
    assert flow.token == 0 and not fluid._flows
    assert dict(fluid.escalations_by_reason) == {"fault": 1}
    fabric.impair_links(cable, 0.0, None, extra_ns=0)  # heal
    _finish(network, suite)


@pytest.mark.parametrize("cancel", _CANCELLERS.values(), ids=_CANCELLERS)
def test_cancelled_round_leaves_a_commit_event_that_does_nothing(cancel):
    network, flow, suite = _mid_round()
    fluid = network.fluid
    armed = _commit_events(network)
    assert [args for _at, args in armed] == [(flow, flow.token)]
    cancel(network, flow)
    assert flow.token == 0 and not fluid._flows
    assert fluid.escalations == 1 and fluid.fluid_packets == 40
    # Lazy deletion: the event is still there, and firing it -- by hand
    # here, by the engine in _finish -- moves nothing.
    assert _commit_events(network) == armed
    before = _state(network, flow)
    fluid._commit(*armed[0][1])
    assert _state(network, flow) == before
    events = network.engine.events_processed
    network.run(until=armed[0][0])
    assert network.engine.events_processed > events
    assert fluid.rounds == 1 and fluid.escalations == 1
    _finish(network, suite)


def test_stale_commit_event_cannot_commit_the_readopted_flow():
    network, flow, suite = _mid_round(stretch=20)
    fluid = network.fluid
    ((stale_at, stale_args),) = _commit_events(network)
    fluid.escalate_all("gateway-change")
    flow.sender._fluid_retry_seq = 0  # re-adopt as soon as the pipe drains
    while not fluid._flows:
        network.run(until=network.engine.now + usec(5))
    (again,) = fluid._flows.values()
    assert again is not flow and again.flow_id == flow.flow_id
    assert network.engine.now < stale_at < again.t0 + again.round_size * again.interval
    assert again.token not in (0, stale_args[1])
    # The stale event names a round of the discarded record; and even
    # aimed at the live one, its token names no round that is armed.
    before = _state(network, flow, again)
    fluid._commit(*stale_args)
    fluid._commit(again, stale_args[1])
    assert _state(network, flow, again) == before
    round_armed = (again.token, again.sent)
    network.run(until=stale_at)
    assert (again.token, again.sent) == round_armed
    assert fluid.rounds == 2
    _finish(network, suite)


def test_in_flight_oracle_does_not_take_a_commit_event_for_a_packet():
    network, flow, suite = _mid_round()
    # Adoption waits for the pipe to drain: the live round's commit
    # event is all the calendar holds, and it is not a packet.
    assert network.engine.pending_events == 1
    assert suite._in_flight() == 0
    network.fluid.escalate_all("gateway-change")
    ((_at, stale_args),) = _commit_events(network)
    assert not any(isinstance(arg, Packet) for arg in stale_args)
    sender = flow.sender
    assert suite._in_flight() == sender.snd_next - sender.snd_una > 0
    _finish(network, suite)
