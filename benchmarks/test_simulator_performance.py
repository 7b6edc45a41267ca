"""Microbenchmarks of the simulator itself.

Unlike the figure benchmarks (which run once and print tables), these
use pytest-benchmark's statistical timing to track the substrate's
performance: event throughput of the engine, packets/second through the
full network datapath, and cache-operation costs — the quantities that
bound how far paper-scale experiments can be pushed in pure Python.

Each benchmark is compared against the committed baseline in
``BENCH_sim.json`` (repo root).  The comparison is advisory by default —
a run slower than its budget prints a warning, because shared CI boxes
are far too noisy for a hard wall-clock gate — and becomes a hard
failure when ``REPRO_BENCH_ENFORCE=1`` is set (for dedicated machines).
"""

import json
import os
import warnings
from pathlib import Path

from repro.cache import SwitchCache
from repro.experiments.runcache import RunCache
from repro.experiments.runner import build_network, run_flows
from repro.experiments.sweeps import cache_size_sweep
from repro.core import SwitchV2P
from repro.net.topology import FatTreeSpec
from repro.perf import timed_call
from repro.sim.engine import Engine
from repro.traces.hadoop import HadoopTraceParams, generate
from repro.traces.spec import TraceSpec

import numpy as np

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"


def _check_budget(benchmark, name: str) -> None:
    """Compare a finished benchmark against the committed baseline.

    Advisory unless REPRO_BENCH_ENFORCE=1: wall-clock on shared runners
    routinely varies more than the margins we care about, so by default
    a blown budget only warns.  Skipped entirely under
    --benchmark-disable (stats are empty then).
    """
    stats = getattr(benchmark, "stats", None)
    if stats is None or not BASELINE_PATH.is_file():
        return
    entry = json.loads(BASELINE_PATH.read_text())["benchmarks"].get(name)
    if entry is None:
        return
    budget_ms = entry["budget_ms"]
    min_ms = stats.stats.min * 1000.0
    if min_ms <= budget_ms:
        return
    message = (f"{name}: min {min_ms:.1f} ms exceeds the BENCH_sim.json "
               f"budget of {budget_ms:.1f} ms "
               f"(baseline after_ms.min={entry['after_ms']['min']:.1f})")
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        raise AssertionError(message)
    warnings.warn(message, stacklevel=2)


def test_engine_event_throughput(benchmark):
    def run_events():
        engine = Engine()

        def chain(n):
            if n:
                engine.schedule_after(1, chain, n - 1)

        engine.schedule(0, chain, 20_000)
        engine.run()
        return engine.events_processed

    events = benchmark(run_events)
    assert events == 20_001
    _check_budget(benchmark, "test_engine_event_throughput")


def test_engine_rto_rearm_throughput(benchmark):
    """The reliable transport's timer shape: every ACK re-arms an RTO.

    64 flows each run a chain of 300 calendar events 12.8 us apart,
    interleaved 200 ns from one another; every event cancels its flow's
    timer and re-arms it 100 us - 1 ms out.  Live timers are therefore
    always parked slots ahead of the clock with dead ones behind them —
    the case where a timer bound that is not tight sends every event
    through the wheel.  Only each flow's last timer fires.
    """
    flows, acks_per_flow = 64, 300

    def run_flows_of_acks():
        engine = Engine()
        timers = [None] * flows
        timeouts = []

        def ack(flow, remaining):
            engine.cancel_timer(timers[flow])
            timers[flow] = engine.schedule_timer(
                100_000 + flow * 14_000, timeouts.append, flow)
            if remaining:
                engine.schedule_after(flows * 200, ack, flow, remaining - 1)

        for flow in range(flows):
            engine.schedule(flow * 200, ack, flow, acks_per_flow - 1)
        engine.run()
        return engine.events_processed, sorted(timeouts)

    events, timeouts = benchmark(run_flows_of_acks)
    assert events == flows * acks_per_flow + flows
    assert timeouts == list(range(flows))
    _check_budget(benchmark, "test_engine_rto_rearm_throughput")


def _cache_churn(benchmark, cache, name: str) -> None:
    """10 000 VIPs over 4096 lines: every insert evicts, every lookup hits."""
    vips = list(range(10_000))

    def churn():
        for vip in vips:
            cache.insert(vip, vip)
            cache.lookup(vip)

    benchmark(churn)
    assert cache.stats.lookups >= len(vips)
    _check_budget(benchmark, name)


def test_cache_lookup_insert_throughput(benchmark):
    _cache_churn(benchmark, SwitchCache(4096, salt=3),
                 "test_cache_lookup_insert_throughput")


def test_cache_lookup_insert_throughput_4way(benchmark):
    _cache_churn(benchmark, SwitchCache(4096, ways=4, salt=3),
                 "test_cache_lookup_insert_throughput_4way")


def test_end_to_end_packet_rate(benchmark):
    params = HadoopTraceParams(num_vms=128, num_flows=300)
    flows = generate(params, np.random.default_rng(4))

    def simulate():
        network = build_network(FatTreeSpec(), SwitchV2P(1024), 128, seed=4)
        result = run_flows(network, list(flows), trace_name="hadoop")
        return result

    result = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert result.completion_rate == 1.0
    _check_budget(benchmark, "test_end_to_end_packet_rate")


def _row_fingerprint(rows):
    """Exact-value fingerprint of a sweep's rows (floats via repr)."""
    import dataclasses

    def result_dict(result):
        return {f.name: repr(getattr(result, f.name))
                for f in dataclasses.fields(result)
                if f.name not in ("collector", "network")}

    return json.dumps([[row.scheme, repr(row.x_value), repr(row.hit_rate),
                        repr(row.fct_improvement),
                        repr(row.first_packet_improvement),
                        result_dict(row.result)] for row in rows])


def test_sweep_orchestration(benchmark, tmp_path):
    """Cold vs parallel vs warm-cache runs of one small figure sweep.

    The pytest-benchmark statistic (and the BENCH_sim.json budget)
    covers the *warm replay* — the everyday "re-print the figure" path
    that the run cache turns into disk reads.  The cold sequential and
    cold 2- and 4-worker passes are measured once each via repro.perf
    and compared as speedup assertions: warm must beat cold by >= 5x,
    and a pool must beat sequential by the floor BENCH_sim.json derives
    from its measured runs, which scales with the workers that have a
    core to run on (:func:`_parallel_speedup_floor`).  All paths must
    produce byte-identical rows.
    """
    spec = FatTreeSpec(pods=2, racks_per_pod=2, servers_per_rack=2,
                       spines_per_pod=2, num_cores=2,
                       gateway_pods=(1,), gateways_per_pod=1)
    trace = TraceSpec.create("hadoop", 7, num_vms=32, num_flows=160)
    flows = trace.materialize()
    sweep_kwargs = dict(spec=spec, flows=flows, num_vms=32,
                        ratios=(0.5, 2.0, 8.0),
                        schemes=("SwitchV2P", "GwCache"), seed=7,
                        trace_name="hadoop", trace_spec=trace)

    cold_rows, cold_ns = timed_call(
        cache_size_sweep, workers=0, cache=None, **sweep_kwargs)
    parallel = {workers: timed_call(cache_size_sweep, workers=workers,
                                    cache=None, **sweep_kwargs)
                for workers in (2, 4)}

    prime_store = RunCache(tmp_path)
    primed_rows = cache_size_sweep(workers=0, cache=prime_store,
                                   **sweep_kwargs)
    assert prime_store.stats.misses > 0 and prime_store.stats.stores > 0

    def warm_replay():
        store = RunCache(tmp_path)
        rows = cache_size_sweep(workers=0, cache=store, **sweep_kwargs)
        assert store.stats.misses == 0, "warm replay must be pure hits"
        return rows

    warm_rows = benchmark.pedantic(warm_replay, rounds=3, iterations=1)

    fingerprint = _row_fingerprint(cold_rows)
    for parallel_rows, _ in parallel.values():
        assert _row_fingerprint(parallel_rows) == fingerprint
    assert _row_fingerprint(primed_rows) == fingerprint
    assert _row_fingerprint(warm_rows) == fingerprint

    stats = getattr(benchmark, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        warm_ns = stats.stats.min * 1e9
        _check_speedup("warm cache replay", cold_ns / warm_ns, 5.0)
    for workers, (_, parallel_ns) in parallel.items():
        _check_speedup(f"{workers}-worker parallel sweep",
                       cold_ns / parallel_ns, _parallel_speedup_floor(workers))
    _check_budget(benchmark, "test_sweep_orchestration")


def _parallel_speedup_floor(workers: int) -> float:
    """Advisory floor for a cold pool run's speed-up over sequential.

    Workers beyond the cores only add fork cost, so what counts is
    ``min(workers, os.cpu_count())``; BENCH_sim.json holds the speed-up
    asked of each such worker, set from its measured 2- and 4-worker
    runs on 2 vCPUs.  On one core the floor is below 1: a pool cannot
    win there, it must only not cost much.
    """
    entry = json.loads(BASELINE_PATH.read_text())["benchmarks"][
        "test_sweep_orchestration"]
    effective = min(workers, os.cpu_count() or 1)
    return entry["parallel_speedup_floor_per_effective_worker"] * effective


def _check_speedup(label: str, speedup: float, floor: float) -> None:
    """Advisory speedup floor, hard only under REPRO_BENCH_ENFORCE=1."""
    if speedup >= floor:
        return
    message = (f"{label}: observed speedup {speedup:.2f}x is below the "
               f"{floor:.2f}x floor")
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        raise AssertionError(message)
    warnings.warn(message, stacklevel=2)
