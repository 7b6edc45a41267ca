"""k=32 / 100k-VM scale tripwires for the hybrid engine.

The scale tentpole's committed contract: a fat-tree k=32-class fabric
(32 pods x 16 racks x 16 servers, 1280 switches) carrying 100 000 VMs
must *build* and *run* a 96-flow hybrid workload to completion, each
within twice its measured median, with resident memory staying bounded
— the compact topology state (array port tables, interned addresses,
shared serialization caches), a set-up that does not rescan what it
builds, and the escalation batching / probe skipping / contention model
are what make this hold.

Wall-clock and peak-RSS are checked against the ``test_scale_*``
entries in ``BENCH_sim.json`` (repo root).  Like the other simulator
benchmarks the comparison is advisory on shared runners — a blown
budget warns — and becomes a hard failure when ``REPRO_BENCH_ENFORCE=1``
(the CI scale-smoke job sets it and runs this file in a fresh process,
so the RSS high-water mark is not inflated by earlier tests).
"""

import json
import os
import warnings
from pathlib import Path

import numpy as np

from repro.core import SwitchV2P
from repro.experiments.runner import build_network, run_flows
from repro.net.topology import FatTreeSpec
from repro.perf import peak_rss_kb, timed_call
from repro.sim.engine import msec
from repro.transport.flow import FlowSpec

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: The k=32-class fabric of the scale contract: 1280 switches, 8192
#: servers.  (A canonical three-tier k=32 fat tree has 1280 switches;
#: rack/server counts follow the paper's pod shape rather than k/2.)
FT32 = FatTreeSpec(pods=32, racks_per_pod=16, servers_per_rack=16,
                   spines_per_pod=16, num_cores=256,
                   gateway_pods=tuple(range(0, 32, 2)),
                   gateways_per_pod=4)
NUM_VMS = 100_000


def _check(name: str, wall_ms: float, rss_mb: float) -> None:
    """Compare one scale run against its committed tripwires."""
    if not BASELINE_PATH.is_file():
        return
    entry = json.loads(BASELINE_PATH.read_text())["benchmarks"].get(name)
    if entry is None:
        return
    problems = []
    if wall_ms > entry["budget_ms"]:
        baseline = entry["after_ms"]
        kind = "median" if "median" in baseline else "min"
        problems.append(
            f"wall {wall_ms:.0f} ms exceeds budget {entry['budget_ms']:.0f} "
            f"ms (baseline {kind} {baseline[kind]:.0f} ms)")
    budget_rss = entry.get("budget_rss_mb")
    if budget_rss is not None and rss_mb > budget_rss:
        problems.append(
            f"peak RSS {rss_mb:.0f} MB exceeds budget {budget_rss:.0f} MB")
    if not problems:
        return
    message = f"{name}: " + "; ".join(problems)
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        raise AssertionError(message)
    warnings.warn(message, stacklevel=2)


def _scale_flows(count: int) -> list[FlowSpec]:
    rng = np.random.default_rng(7)
    flows = []
    for _ in range(count):
        src, dst = rng.choice(NUM_VMS, size=2, replace=False)
        flows.append(FlowSpec(src_vip=int(src), dst_vip=int(dst),
                              size_bytes=2_000_000,
                              start_ns=int(rng.integers(0, msec(5)))))
    return flows


def test_k32_100k_build_is_compact():
    """Construction: 1280 switches + 100k VMs in bounded time/memory."""
    network, build_ns = timed_call(
        build_network, FT32, SwitchV2P(16384), NUM_VMS, seed=7,
        fidelity="hybrid")
    fabric = network.fabric
    assert len(fabric.switches) == 1280
    assert FT32.num_servers == 8192
    assert network.database.lookup(NUM_VMS - 1) is not None
    _check("test_scale_k32_build", build_ns / 1e6, peak_rss_kb() / 1024)


def test_k32_100k_hybrid_run_under_budget():
    """96 x 2 MB flows across 100k VMs complete inside the budget.

    Also asserts the scale machinery actually engaged: flows adopted,
    memoized-clean probe rounds were skipped, warmup-phase escalations
    were classified as such, and the per-reason escalation counters
    stay consistent.
    """
    network = build_network(FT32, SwitchV2P(16384), NUM_VMS, seed=7,
                            fidelity="hybrid")
    result, run_ns = timed_call(
        run_flows, network, _scale_flows(96), horizon_ns=msec(2000),
        keep_network=True, trace_name="scale")
    assert result.completion_rate == 1.0
    assert result.fluid_adoptions > 0
    assert sum(result.fluid_escalations_by_reason.values()) \
        == result.fluid_escalations
    stats = network.fluid.stats_dict()
    assert stats["probe_skips"] > 0, "clean-path memoization never engaged"
    assert stats["warm_pairs"] > 0, "warmup ledger never saturated"
    assert "probe-mutated-warmup" in result.fluid_escalations_by_reason
    _check("test_scale_k32_hybrid_run", run_ns / 1e6, peak_rss_kb() / 1024)
