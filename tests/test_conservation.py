"""The conservation oracle counts each drop once, so one packet that
vanishes without a recorded reason trips it.

A switch counts every failed transmit it makes in its own drops, so a
tail drop at a switch's egress is in both its drops and the link's.
Summing the links' drops too counted such a drop twice, and a run with
tail drops could lose that many packets silently and still balance.
The run below has 110 switch tail drops; a ToR that consumes data
packets without counting them must trip ``conservation``, short by
exactly what it discarded, and the same run without it must balance.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.faults import OracleSuite
from repro.net.packet import PacketKind
from repro.net.topology import FatTreeSpec
from repro.traces.spec import TraceSpec


def _run(discard: int):
    """NoCache on a fabric with shallow buffers and slow cables, so
    switches tail-drop; the ToR (0, 0) silently eats the first
    ``discard`` data packets it sees."""
    spec = FatTreeSpec(buffer_bytes=6_000, fabric_link_bps=10e9)
    network = build_network(spec, make_scheme("NoCache", 320, 4.0), 320, seed=1)
    suite = OracleSuite(network)
    tor = network.fabric.tors[(0, 0)]
    inner = tor.hook
    left = [discard]

    def hook(packet, ingress):
        if left[0] and packet.kind == PacketKind.DATA:
            left[0] -= 1
            return False
        return inner is None or inner(packet, ingress)

    tor.hook = hook
    flows = TraceSpec.create("hadoop", 3, num_vms=320,
                             num_flows=400).materialize()
    run_flows(network, flows, trace_name="hadoop")
    suite.finish(network.engine.now)
    assert left == [0]
    assert sum(switch.stats.drops for switch in network.fabric.switches) == 110
    return suite.violations


def test_a_run_with_switch_tail_drops_balances():
    assert _run(0) == []


@pytest.mark.parametrize("discard", [1, 5])
def test_a_silent_discard_trips_conservation(discard):
    (violation,) = _run(discard)
    assert violation.oracle == "conservation"
    assert violation.detail.endswith(
        f"{discard} vanished without a recorded reason")
