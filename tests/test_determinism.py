"""Determinism guards for the hot-path optimizations.

The perf overhaul (memoized ECMP, incremental wire-byte accounting,
the engine's pop-first fast path) must not change a single simulated
outcome: identical seeds must produce identical results.
These tests pin that down three ways — repeated runs, sequential vs
process-pool execution, and a committed golden snapshot that detects
drift against *past* versions of the simulator, not just within one
process.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SwitchV2P
from repro.experiments.faults import ChaosParams
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.figures import FigureScale
from repro.experiments.parallel import ExperimentJob, parallel_run_experiments
from repro.experiments.runcache import RunCache
from repro.experiments.runner import (
    RunResult,
    build_network,
    run_experiment,
    run_flows,
)
from repro.experiments.sweeps import (
    cache_size_sweep,
    gateway_sweep,
    sweep_rows,
    topology_sweep,
)
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec
from repro.traces.hadoop import HadoopTraceParams, generate
from repro.traces.spec import TraceSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_hadoop_run.json"


#: Fields excluded from snapshot comparison: the hybrid-fidelity
#: bookkeeping (always packet/zero in these pure-packet determinism
#: runs; covered by tests/test_hybrid_fidelity).
_NON_SNAPSHOT_FIELDS = (
    "fidelity", "fluid_adoptions", "fluid_escalations", "fluid_rounds",
    "fluid_packets", "fluid_escalations_by_reason",
)


def _result_dict(result: RunResult) -> dict:
    """Every field of a run's result but the hybrid bookkeeping."""
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name not in _NON_SNAPSHOT_FIELDS}


def _hadoop_flows(num_vms: int, num_flows: int, seed: int):
    params = HadoopTraceParams(num_vms=num_vms, num_flows=num_flows)
    return generate(params, np.random.default_rng(seed))


def test_same_seed_runs_are_identical():
    flows = _hadoop_flows(64, 60, seed=11)
    results = []
    for _ in range(2):
        network = build_network(FatTreeSpec(), SwitchV2P(512), 64, seed=11)
        results.append(run_flows(network, list(flows), trace_name="hadoop"))
    assert _result_dict(results[0]) == _result_dict(results[1])


def test_sequential_matches_parallel_execution():
    flows = tuple(_hadoop_flows(64, 50, seed=3))
    jobs = [
        ExperimentJob(FatTreeSpec(), "SwitchV2P", flows, 64,
                      cache_ratio=4.0, seed=seed, trace_name="hadoop")
        for seed in (3, 5)
    ]
    sequential = parallel_run_experiments(jobs, workers=0)
    parallel = parallel_run_experiments(jobs, workers=2)
    assert len(sequential) == len(parallel) == 2
    for seq, par in zip(sequential, parallel):
        assert _result_dict(seq) == _result_dict(par)


def test_golden_hadoop_snapshot():
    """Byte-identical to the committed snapshot of this exact run.

    Unlike the in-process tests above, this catches determinism drift
    introduced by *code changes* — any hot-path edit that perturbs
    event order, float arithmetic, or RNG consumption shows up as a
    mismatch here.  If a change intentionally alters simulated behavior,
    regenerate the snapshot (see the "params" block in the file) and
    call the change out in the PR.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    params = golden["params"]
    assert params["scheme"] == "SwitchV2P"
    flows = _hadoop_flows(params["num_vms"], params["num_flows"],
                          seed=params["seed"])
    network = build_network(FatTreeSpec(), SwitchV2P(params["cache_slots"]),
                            params["num_vms"], seed=params["seed"])
    result = run_flows(network, list(flows), trace_name="hadoop")
    expected = golden["result"]
    # DetailedRunResult's fields are newer than the snapshot: per-switch
    # bytes must sum to its pod bytes; the rest are compared run to run,
    # and inline against pooled, by the tests above.
    assert [sum(pod.values()) for pod in result.pod_switch_bytes] \
        == expected["pod_bytes"]
    summary = {field.name for field in dataclasses.fields(RunResult)}
    got = {name: value for name, value in _result_dict(result).items()
           if name in summary}
    assert set(got) == set(expected), "RunResult fields changed; regenerate"
    mismatches = {key: (expected[key], got[key])
                  for key in expected if expected[key] != got[key]}
    assert not mismatches, f"drift vs golden snapshot: {mismatches}"


def _assert_same_sweep_row(seq, row):
    assert (seq.scheme, seq.x_value) == (row.scheme, row.x_value)
    assert seq.hit_rate == row.hit_rate
    assert seq.fct_improvement == row.fct_improvement
    assert seq.first_packet_improvement == row.first_packet_improvement
    assert _result_dict(seq.result) == _result_dict(row.result)


def _assert_identical_across_execution_modes(sweep, tmp_path, pools=(2,),
                                             same=_assert_same_sweep_row):
    """``sweep(workers=, cache=)`` several ways, byte-identical rows:
    sequential into a cold store, process pools of each size in
    ``pools`` without one, and a warm replay that must not simulate.
    ``same(sequential row, row)`` asserts two rows are one."""
    cold_store = RunCache(tmp_path)
    sequential = sweep(workers=0, cache=cold_store)
    pooled = [sweep(workers=workers, cache=None) for workers in pools]
    replay_store = RunCache(tmp_path)
    replayed = sweep(workers=0, cache=replay_store)

    assert cold_store.stats.hits == 0 < cold_store.stats.stores
    assert replay_store.stats.misses == 0, "warm replay must be all hits"
    assert replay_store.stats.hits == cold_store.stats.stores
    assert len(sequential) > 0
    for rows in (*pooled, replayed):
        assert len(rows) == len(sequential)
        for seq, row in zip(sequential, rows):
            same(seq, row)


_TINY_SPEC = FatTreeSpec(pods=2, racks_per_pod=2, servers_per_rack=2,
                         spines_per_pod=2, num_cores=2,
                         gateway_pods=(1,), gateways_per_pod=1)


def test_sweep_identical_across_execution_modes(tmp_path):
    """One sweep, four execution paths, byte-identical rows.

    The same small cache-size sweep runs sequentially, over process
    pools of 2 and 4 workers, and as a warm-cache replay; every
    SweepRow (including the embedded RunResult scalars) must match
    exactly.  This is the orchestrator's core contract: parallelism and
    memoization are pure performance features, invisible in the results.
    """
    trace = TraceSpec.create("hadoop", 7, num_vms=16, num_flows=40)

    def sweep(**mode):
        return cache_size_sweep(
            spec=_TINY_SPEC, flows=trace.materialize(), num_vms=16,
            ratios=(0.5, 4.0), schemes=("SwitchV2P", "GwCache"), seed=7,
            trace_name="hadoop", trace_spec=trace, **mode)

    _assert_identical_across_execution_modes(sweep, tmp_path, pools=(2, 4))


def _rows(jobs, **mode):
    return sweep_rows(dict(zip(jobs, parallel_run_experiments(
        list(jobs.values()), **mode))))


def _hadoop_job(spec):
    return ExperimentJob(spec=spec, scheme_name="NoCache",
                         flows=_hadoop_flows(16, 40, seed=7), num_vms=16,
                         seed=7, trace_name="hadoop")


def _gateway_sweep(**mode):
    return _rows(gateway_sweep(
        _hadoop_job(dataclasses.replace(_TINY_SPEC, gateways_per_pod=2)),
        gateways_per_pod=(2, 1),
        schemes=("SwitchV2P", "GwCache", "NoCache"), cache_ratio=4.0),
        **mode)


def _topology_sweep(**mode):
    return _rows(topology_sweep(
        _hadoop_job(_TINY_SPEC), (1, 2), total_servers=8, racks_per_pod=2,
        schemes=("SwitchV2P", "GwCache"), cache_ratio=4.0), **mode)


def _appendix_sweep(**mode):
    scale = FigureScale(num_vms=32, websearch_flows=6, ratios=(0.5, 4.0),
                        seed=7)
    return _rows(ARTIFACTS["appendix_controller"].jobs(scale), **mode)


#: Both fault tables at a size that runs in seconds.
_SMALL_CHAOS = ChaosParams(num_flows=120, num_vms=32, horizon_ns=msec(12),
                           schemes=("SwitchV2P",))


def test_chaos_experiment_is_deterministic():
    """The chaos table twice in one process, sequentially: equal rows.
    ChaosRow is a frozen dataclass tree, so == compares every per-phase
    resilience number."""
    entry = ARTIFACTS["faults_resilience"]
    jobs = entry.jobs(_SMALL_CHAOS)

    def rows():
        results = parallel_run_experiments(list(jobs.values()), workers=0,
                                           cache=None)
        return entry.collect(dict(zip(jobs, results)))

    assert rows() == rows()


def test_fault_tables_identical_across_execution_modes(tmp_path):
    """The faults path — schedules, failover probes, memo flushes, the
    gray detector and the audit — is as seed-stable as the fault-free
    runs, inline, pooled and replayed from the store.  A chaos or gray
    row is a frozen dataclass tree of numbers: its repr compares every
    per-phase resilience number exactly, a NaN window FCT included."""
    listed = [(ARTIFACTS[name], ARTIFACTS[name].jobs(_SMALL_CHAOS))
              for name in ("faults_resilience", "gray_degradation")]

    def rows(**mode):
        results = iter(parallel_run_experiments(
            [job for _, jobs in listed for job in jobs.values()], **mode))
        return [row for entry, jobs in listed for row in entry.collect(
            {label: next(results) for label in jobs})]

    def same(seq, row):
        assert repr(seq) == repr(row)

    _assert_identical_across_execution_modes(rows, tmp_path, same=same)


@pytest.mark.parametrize("sweep", [_gateway_sweep, _topology_sweep,
                                   _appendix_sweep])
def test_other_sweeps_identical_across_execution_modes(sweep, tmp_path):
    """Figures 9 and 10 and the appendix keep the same contract: they
    too run every simulation through the orchestrator."""
    _assert_identical_across_execution_modes(sweep, tmp_path)


def test_hybrid_k16_matches_packet_cache_metrics():
    """Hybrid fidelity stays exact at k=16 scale, same seed.

    This is the scale companion of tests/test_hybrid_fidelity: same-rack
    flow groups share fabric links, so the shared-link contention
    recompute runs, and it may not perturb a single cache metric
    relative to packet fidelity.  At this shape each flow runs one
    fluid round (12 in all) and ends in a tail escalation: no probe
    round is skipped and no pair warms up, so probe skipping and the
    warmup ledger are left to tests/test_hybrid_fidelity.  At 2 MB per
    flow they engage (54 skips, 12 warm pairs, 90 rounds) and packet
    and hybrid send 21 and 15 learning packets (ROADMAP, "Find out why
    hybrid moves gateway load").
    """
    from repro.transport.flow import FlowSpec

    spec = FatTreeSpec(pods=16, racks_per_pod=4, servers_per_rack=4,
                       spines_per_pod=4, num_cores=16,
                       gateway_pods=(1, 5, 9, 13), gateways_per_pod=2)
    # Same-rack source groups targeting one destination rack: flows
    # share fabric links, so the max-min fair-share path runs.
    flows = [FlowSpec(src_vip=4 * i, dst_vip=4 * i + 130,
                      size_bytes=600_000, start_ns=i * 2_000)
             for i in range(12)]

    def run(fidelity: str):
        network = build_network(spec, SwitchV2P(8192), 192, seed=13,
                                fidelity=fidelity)
        return run_flows(network, list(flows), trace_name="steady"), network

    def cache_metrics(result: RunResult, network) -> dict:
        collector = network.collector
        scheme = network.scheme
        return {
            "hit_rate": result.hit_rate,
            "gateway_arrivals": collector.gateway_arrivals,
            "misdeliveries": collector.misdeliveries,
            "learning_packets": collector.learning_packets,
            "invalidation_packets": collector.invalidation_packets,
            "per_cache": sorted(
                (switch_id, cache.stats.lookups, cache.stats.hits,
                 cache.stats.insertions, cache.stats.evictions,
                 cache.stats.invalidations)
                for switch_id, cache in scheme.caches.items()),
            "packets_sent": result.packets_sent,
            "completion": result.completion_rate,
        }

    packet, packet_net = run("packet")
    hybrid, hybrid_net = run("hybrid")
    assert hybrid.fluid_adoptions > 0, "hybrid run never went fluid"
    assert hybrid.fluid_packets > 0
    assert hybrid.completion_rate == 1.0
    assert cache_metrics(packet, packet_net) \
        == cache_metrics(hybrid, hybrid_net)
    assert packet_net.scheme.rng_draws == hybrid_net.scheme.rng_draws


def test_run_experiment_twice_identical():
    """The one-call harness (scheme factory included) is deterministic."""
    flows = list(_hadoop_flows(48, 40, seed=9))
    results = [
        run_experiment(FatTreeSpec(), "SwitchV2P", flows, 48,
                       cache_ratio=4.0, seed=9, trace_name="hadoop")
        for _ in range(2)
    ]
    assert _result_dict(results[0]) == _result_dict(results[1])
