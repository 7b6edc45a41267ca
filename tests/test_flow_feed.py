"""The lazy flow-start feed against the eager schedule it replaced.

``TrafficPlayer.add_flows`` keeps one start of a batch on the calendar
and reserves the batch's sequence numbers, so that each start keeps
the ``(time, sequence)`` key that pushing every start at once gave it.
The eager feed is rebuilt here from the player's own parts.  On each
trace family both feeds must run the same callbacks, in the same
order, at the same times and with the same arguments, and report the
same ``RunResult``: with equal start times, starts at the nanosecond of
an event scheduled before and of one scheduled after ``add_flows``, a
second batch added mid-run, RPC response flows and UDP.

Also here: a batch with a start in the past registers nothing, and a
slotted ``FlowSpec`` still pickles and ``dataclasses.replace``-s.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import sys

import pytest

from repro.baselines.nocache import NoCache
from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.metrics.collector import FlowRecord
from repro.net.packet import Packet
from repro.net.topology import FatTreeSpec
from repro.sim.engine import Engine, SimulationError, usec
from repro.traces.spec import TraceSpec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def eager_add_flows(player: TrafficPlayer, specs) -> list[FlowRecord]:
    """The feed before: register a flow, then push its start."""
    records = []
    for spec in specs:
        record = player._register(spec)
        player.network.engine.schedule(spec.start_ns, player._start_flow,
                                       spec, record, [])
        records.append(record)
    return records


LAZY_ADD_FLOWS = TrafficPlayer.add_flows


def _note(label: str) -> None:
    """A calendar event that does nothing but show up in the log."""


def _add_later(feed, player: TrafficPlayer, specs) -> None:
    feed(player, specs)


def _in_two_batches(feed):
    """``add_flows`` for ``run_flows``: the flows in two batches, the
    second added mid-run, with marker events around the first.

    Every later call (a response flow) goes to ``feed`` as it is.
    """
    calls = []

    def add_flows(player, specs):
        if calls:
            return feed(player, specs)
        calls.append(specs)
        engine = player.network.engine
        half = len(specs) // 2
        first, second = specs[:half], specs[half:]
        earliest = min(spec.start_ns for spec in first)
        engine.schedule(earliest, _note, "scheduled before")
        records = feed(player, first)
        engine.schedule(earliest, _note, "scheduled after")
        # Added by an event at the second batch's earliest start, so
        # that start and the adding event share a nanosecond.
        engine.schedule(min(spec.start_ns for spec in second),
                        _add_later, feed, player, second)
        return records

    return add_flows


def _summary(value):
    if isinstance(value, Packet):
        return ("packet", value.kind, value.flow_id, value.seq,
                value.src_vip, value.dst_vip, value.outer_dst)
    if isinstance(value, FlowRecord):
        return ("flow", value.flow_id)
    if value is None or isinstance(value, (FlowSpec, int, float, str)):
        return value
    return type(value).__name__


def _logged_run(network, flows, feed):
    """``run_flows`` with ``feed`` as ``add_flows``; the result and every
    callback the engine ran, as ``(time, name, arguments)``; a method's
    first argument names its class."""
    run_code = Engine.run.__code__
    engine = network.engine
    log = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_back is not None \
                and frame.f_back.f_code is run_code:
            code = frame.f_code
            names = code.co_varnames[:code.co_argcount]
            log.append((engine.now, code.co_name,
                        tuple(_summary(frame.f_locals[name])
                              for name in names)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TrafficPlayer, "add_flows", _in_two_batches(feed))
        sys.setprofile(profile)
        try:
            result = run_flows(network, flows)
        finally:
            sys.setprofile(None)
    return result, log


def _hadoop():
    """Hadoop flows, shuffled, every fifth sharing its neighbour's start."""
    flows = TraceSpec.create("hadoop", 3, num_vms=128,
                             num_flows=120).materialize()
    for index in range(5, len(flows), 5):
        flows[index] = dataclasses.replace(
            flows[index], start_ns=flows[index - 1].start_ns)
    random.Random(1).shuffle(flows)
    return flows


TRACES = {
    "hadoop": (_hadoop, "SwitchV2P"),
    "alibaba-responses": (lambda: TraceSpec.create(
        "alibaba", 2, num_services=8, containers_per_service=16,
        num_rpcs=80, chain_probability=0.3).materialize(), "SwitchV2P"),
    "microbursts-udp": (lambda: TraceSpec.create(
        "microbursts", 2, num_vms=128, num_bursts=12).materialize(),
        "GwCache"),
}


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_the_lazy_feed_runs_the_eager_event_order(trace):
    make_flows, scheme = TRACES[trace]
    flows = make_flows()
    sides = []
    for feed in (eager_add_flows, LAZY_ADD_FLOWS):
        network = build_network(FatTreeSpec(), make_scheme(scheme, 128, 4.0),
                                128, seed=1)
        sides.append(_logged_run(network, flows, feed))
    (eager, eager_log), (lazy, lazy_log) = sides
    starts = [entry for entry in lazy_log
              if entry[1] == "_start_flow"]
    assert len(starts) >= len(flows)
    assert lazy.completion_rate == 1.0
    if trace == "alibaba-responses":
        assert len(starts) == 2 * len(flows)
    if trace == "microbursts-udp":
        assert all(spec.transport == "udp" for spec in flows)
    firsts = [index for index, (eager_entry, lazy_entry)
              in enumerate(zip(eager_log, lazy_log))
              if eager_entry != lazy_entry][:1]
    assert not firsts and len(eager_log) == len(lazy_log), (
        f"first difference at event {firsts}: "
        + (f"eager {eager_log[firsts[0]]}, lazy {lazy_log[firsts[0]]}"
           if firsts else f"{len(eager_log)} events against {len(lazy_log)}"))
    assert lazy == eager


def test_the_calendar_holds_one_start_per_batch():
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    engine = network.engine
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=1000,
                               start_ns=usec(10 - index)) for index in range(5)])
    player.add_flows([FlowSpec(src_vip=1, dst_vip=6, size_bytes=1000,
                               start_ns=usec(3))] * 3)
    assert sorted(at for at, _callback, _args in engine.iter_pending()) \
        == [usec(3), usec(6)]
    network.run()
    assert player.all_complete and len(network.collector.flows) == 8


def test_a_start_in_the_past_registers_no_flow():
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    network.engine.schedule(usec(10), _note, "clock")
    network.run()
    assert network.engine.now == usec(10)
    with pytest.raises(SimulationError, match="before current time"):
        player.add_flows([
            FlowSpec(src_vip=0, dst_vip=5, size_bytes=1000, start_ns=usec(20)),
            FlowSpec(src_vip=1, dst_vip=6, size_bytes=1000, start_ns=usec(5)),
        ])
    collector = network.collector
    assert collector.flows == {}
    assert collector.unterminated_flows() == []
    assert network.engine.pending_events == 0
    [record] = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                          size_bytes=1000, start_ns=usec(20))])
    network.run()
    assert record.flow_id == 1 and record.completed
    assert collector.unterminated_flows() == []


def test_a_slotted_flow_spec_pickles_and_replaces():
    spec = FlowSpec(src_vip=1, dst_vip=2, size_bytes=3000, start_ns=5,
                    transport="udp", udp_rate_bps=2e9, response_bytes=7,
                    flow_id=9)
    assert not hasattr(spec, "__dict__")
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(spec, protocol=protocol))
        assert again == spec and hash(again) == hash(spec)
    moved = dataclasses.replace(spec, start_ns=6)
    assert moved.start_ns == 6 and moved.flow_id == 9 and spec.start_ns == 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.start_ns = 1
    with pytest.raises(ValueError):
        dataclasses.replace(spec, size_bytes=0)
