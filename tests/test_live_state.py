"""A run holds what is live: the calendar on the way, the heap at the end.

Two tripwires on the traffic player's promise:

* on a fixed Hadoop run the calendar's peak length follows the flows
  in flight, not the flows in the trace: it is bounded by the peak
  number of concurrent flows, and it stays flat from 500 to 4 000 flows
  at the same load.  With every start pushed up front it was about the
  flow count;
* the bytes a ``hadoop-v2p`` quick run still holds once it is over,
  per flow, stay under a bound pinned 5 % above the value measured
  when it was set (``tracemalloc``; 2 355.1 before finished endpoints
  were forgotten and per-flow objects slotted, 1 637.0 while each
  switch memoized its ECMP choice per flow).

A third holds the UDP receivers to it: after a ``migrate-incast``
quick run, whose 32 UDP flows all complete, no receiver of a completed
flow is still registered, and the bytes the run still holds stay under
a bound pinned 5 % above the value measured (372 220 while each
receiver kept every sequence number it had seen, 139 516 while a
completed one stayed registered).

A fourth holds the switches to it: after a ``hadoop-v2p`` quick run no
switch keeps per-flow routing state — no ECMP memo, and an exact-route
memo of at most one entry per server or gateway the run made.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import tracemalloc

import pytest

from bench.__main__ import QUICK_SCALE
from bench.workloads import WORKLOADS
from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.net.topology import FatTreeSpec
from repro.traces.spec import TraceSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig
from repro.transport.udp import UdpReceiver

from conftest import cable_fully

#: Segments per flow at most.  Hadoop's sizes are heavy-tailed: uncapped,
#: the longer trace draws larger elephants, whose windows (not the
#: number of flows) set the peak.
SEGMENTS = 4

#: Bytes per flow a ``hadoop-v2p`` quick run holds after it, CPython 3.11.
HELD_PER_FLOW = 1218.1

#: Bytes a ``migrate-incast`` quick run holds after it, CPython 3.11.
HELD_AFTER_INCAST = 71_668


def _peak_calendar(num_flows: int) -> tuple[int, int]:
    """The calendar's peak length over a Hadoop run, event by event,
    and the peak number of flows between start and completion."""
    mss = TransportConfig().mss_bytes
    flows = [dataclasses.replace(flow, size_bytes=min(flow.size_bytes,
                                                      SEGMENTS * mss))
             for flow in TraceSpec.create("hadoop", 6, num_vms=320,
                                          num_flows=num_flows,
                                          load=0.01).materialize()]
    network = build_network(FatTreeSpec(), make_scheme("SwitchV2P", 320, 4.0),
                            320, seed=1)
    player = TrafficPlayer(network)
    records = player.add_flows(flows)
    engine = network.engine
    # The first start, and nothing else.
    assert engine.pending_events == 1 and engine.pending_timers == 0
    peak = 1
    while engine.pending_events:
        engine.run(max_events=1)
        peak = max(peak, engine.pending_events - engine.pending_timers)
    assert player.all_complete
    edges = sorted([(record.start_ns, 1) for record in records]
                   + [(record.start_ns + record.fct_ns, -1)
                      for record in records])
    live = concurrent = 0
    for _at, step in edges:
        live += step
        concurrent = max(concurrent, live)
    return peak, concurrent


def test_the_calendar_follows_the_flows_in_flight_not_the_trace():
    small, small_concurrent = _peak_calendar(500)
    large, large_concurrent = _peak_calendar(4000)
    # A live flow has at most SEGMENTS data packets and as many ACKs
    # in flight, each one calendar entry; one start is pending.
    assert small <= 2 * SEGMENTS * small_concurrent + 1
    assert large <= 2 * SEGMENTS * large_concurrent + 1
    assert large <= 1.25 * small, (small, large)


def _held_after(workload, flows, bound: float):
    """Run ``flows`` on a fresh network of ``workload`` after a warm-up
    run; return the network, the bytes the run still holds once it is
    over, and the top allocating lines when they pass ``bound``."""
    # A first run pays the one-time allocations (interned names,
    # specialized code) outside the count.
    run_flows(workload.build(1), flows, workload.transport,
              workload.horizon_ns)
    network = workload.build(1)
    # Servers and links are the network's, not any flow's.
    network.hosts
    cable_fully(network.fabric)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_flows(network, flows, workload.transport, workload.horizon_ns)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        top = "" if held <= bound else "\n".join(
            str(stat) for stat
            in tracemalloc.take_snapshot().statistics("lineno")[:10])
    finally:
        tracemalloc.stop()
    return network, held, top


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="object sizes are a property of the interpreter; "
                           "the bound was measured on CPython 3.11")
def test_a_finished_run_holds_little_per_flow():
    workload = WORKLOADS["hadoop-v2p"](QUICK_SCALE, None)
    flows = workload.flows(1)
    _network, held, top = _held_after(workload, flows,
                                      HELD_PER_FLOW * 1.05 * len(flows))
    per_flow = held / len(flows)
    assert per_flow <= HELD_PER_FLOW * 1.05, (
        f"{per_flow:.1f} bytes held per flow, measured {HELD_PER_FLOW} "
        f"when the bound was set\n{top}")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="object sizes are a property of the interpreter; "
                           "the bound was measured on CPython 3.11")
def test_udp_receivers_hold_their_window_not_their_flow():
    workload = WORKLOADS["migrate-incast"](QUICK_SCALE, None)
    flows = workload.flows(1)
    network, held, top = _held_after(workload, flows,
                                     HELD_AFTER_INCAST * 1.05)
    records = network.collector.flows
    assert len(records) == len(flows)
    assert all(record.completed for record in records.values())
    registered = {flow_id: receiver for demux in network.endpoints.values()
                  for flow_id, receiver in demux.receivers.items()}
    assert not [flow_id for flow_id, receiver in registered.items()
                if isinstance(receiver, UdpReceiver)
                and records[flow_id].completed]
    assert held <= HELD_AFTER_INCAST * 1.05, (
        f"{held} bytes held, measured {HELD_AFTER_INCAST} when the bound "
        f"was set\n{top}")


def test_a_switch_keeps_no_per_flow_routing_state():
    workload = WORKLOADS["hadoop-v2p"](QUICK_SCALE, None)
    network = workload.build(1)
    run_flows(network, workload.flows(1), workload.transport,
              workload.horizon_ns)
    made = {*network.host_by_pip, *(gateway.pip for gateway in network.gateways)}
    switches = network.fabric.switches
    assert not any(hasattr(switch, "_ecmp_memo") for switch in switches)
    assert all(switch._route_memo.keys() <= made for switch in switches)
    assert sum(len(switch._route_memo) for switch in switches) > len(made)
