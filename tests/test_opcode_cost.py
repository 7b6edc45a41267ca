"""Tripwire on the interpreter cost of a simulated packet.

Wall-clock differences under ~5 % do not resolve on a shared 2-vCPU
box; the number of bytecodes the interpreter executes per packet does,
to the digit (see ``opcode_cost.py``).  The bound sits 2 % above the
value measured when it was last set, so a hot-path change that adds
work per hop fails here, by function, before any benchmark runs; one
that removes work lowers the measured value in the same PR.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.net.topology import FatTreeSpec
from repro.traces.spec import TraceSpec

from opcode_cost import cost_table, count_opcodes

#: scheme -> opcodes per packet on the run below, CPython 3.11.
MEASURED = {"NoCache": 2407.6, "SwitchV2P": 2922.7}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the count is a property of the interpreter; "
                           "the bounds were measured on CPython 3.11")
@pytest.mark.parametrize("scheme", sorted(MEASURED))
def test_opcodes_per_packet_stay_within_two_percent(scheme):
    """100 Hadoop flows (580 data packets) on FT8, cold caches."""
    flows = TraceSpec.create("hadoop", 6, num_vms=320,
                             num_flows=100).materialize()
    network = build_network(FatTreeSpec(), make_scheme(scheme, 320, 4.0),
                            320, seed=1)
    # Every server made before the count: the run would make 102 of them
    # on first use, a one-time cost per server (about 80 opcodes per
    # packet here) that no per-packet change pays.
    # ``test_cabling_equivalence`` holds which servers a run makes.
    assert len(network.hosts) == 128
    result, by_function = count_opcodes(
        lambda: run_flows(network, flows, trace_name="hadoop"))
    assert result.completion_rate == 1.0 and result.packets_sent == 580
    per_packet = sum(by_function.values()) / result.packets_sent
    assert per_packet <= MEASURED[scheme] * 1.02, (
        f"{scheme}: {per_packet:.1f} opcodes per packet, measured "
        f"{MEASURED[scheme]} when the bound was set\n"
        + cost_table(by_function, result.packets_sent))
