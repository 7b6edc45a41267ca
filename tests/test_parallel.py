"""Tests for the streaming parallel experiment orchestrator."""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.baselines import NoCache
from repro.experiments.parallel import (
    ExperimentJob,
    ExperimentJobError,
    default_workers,
    parallel_run_experiments,
)
from repro.experiments.runcache import RunCache
from repro.experiments.runner import SCHEME_FACTORIES
from repro.perf import PhaseTimer
from repro.traces.spec import TraceSpec
from repro.transport.flow import FlowSpec

from conftest import CountingTimer, tiny_spec


def _flows(count: int = 20):
    return tuple(FlowSpec(src_vip=i % 8, dst_vip=(i + 3) % 8,
                          size_bytes=2_000, start_ns=i * 20_000)
                 for i in range(count))


def jobs(count=3):
    return [ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                          flows=_flows(), num_vms=8, cache_ratio=4.0, seed=s)
            for s in range(count)]


def _result_dict(result) -> dict:
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name not in ("collector", "network")}


def test_sequential_execution():
    results = parallel_run_experiments(jobs(2), workers=0)
    assert len(results) == 2
    assert all(r.completion_rate == 1.0 for r in results)


def test_parallel_matches_sequential():
    batch = jobs(3)
    sequential = parallel_run_experiments(batch, workers=0)
    parallel = parallel_run_experiments(batch, workers=2)
    for seq, par in zip(sequential, parallel):
        assert seq.hit_rate == par.hit_rate
        assert seq.avg_fct_ns == par.avg_fct_ns
        assert seq.packets_sent == par.packets_sent


def test_results_in_job_order():
    batch = jobs(3)
    results = parallel_run_experiments(batch, workers=2)
    # Different seeds give different (deterministic) results; re-running
    # job 1 alone must reproduce slot 1.
    again = parallel_run_experiments([batch[1]], workers=0)
    assert again[0].avg_fct_ns == results[1].avg_fct_ns


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    assert default_workers() == 0
    monkeypatch.setenv("REPRO_PARALLEL", "4")
    assert default_workers() == 4
    monkeypatch.setenv("REPRO_PARALLEL", "soup")
    with pytest.raises(ValueError):
        default_workers()


def test_default_workers_rejects_a_negative_count(monkeypatch):
    """-2 used to clamp to 0 and run sequentially without a word."""
    monkeypatch.setenv("REPRO_PARALLEL", "-2")
    with pytest.raises(ValueError, match="REPRO_PARALLEL='-2'"):
        default_workers()


# ----------------------------------------------------------------------
# Trace-spec jobs (workers regenerate flows locally)
# ----------------------------------------------------------------------
def test_trace_spec_job_matches_flows_job():
    """A job carrying the lightweight TraceSpec recipe must produce the
    same result as one carrying the materialized flow list."""
    trace = TraceSpec.create("hadoop", 5, num_vms=8, num_flows=30)
    by_spec = ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                            num_vms=8, cache_ratio=4.0, seed=5, trace=trace)
    by_flows = ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                             flows=tuple(trace.materialize()), num_vms=8,
                             cache_ratio=4.0, seed=5)
    [a] = parallel_run_experiments([by_spec], workers=0)
    [b] = parallel_run_experiments([by_flows], workers=0)
    assert _result_dict(a) == _result_dict(b)
    # One run key, so listed together they are one simulation.
    first, second = parallel_run_experiments([by_spec, by_flows], workers=0)
    assert first is second


def test_trace_spec_job_parallel_matches_sequential():
    trace = TraceSpec.create("hadoop", 5, num_vms=8, num_flows=30)
    batch = [ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                           num_vms=8, cache_ratio=4.0, seed=s, trace=trace)
             for s in (5, 7)]
    sequential = parallel_run_experiments(batch, workers=0)
    parallel = parallel_run_experiments(batch, workers=2)
    for seq, par in zip(sequential, parallel):
        assert _result_dict(seq) == _result_dict(par)


# ----------------------------------------------------------------------
# Job hygiene
# ----------------------------------------------------------------------
def test_job_tuples_list_flows():
    job = ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                        flows=list(_flows(4)), num_vms=8, cache_ratio=4.0)
    assert isinstance(job.flows, tuple)
    assert job.resolve_flows() == job.flows


def test_job_requires_exactly_one_workload_form():
    with pytest.raises(ValueError):
        ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P", num_vms=8)
    with pytest.raises(ValueError):
        ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                      flows=_flows(), num_vms=8,
                      trace=TraceSpec.create("hadoop", 0, num_vms=8,
                                             num_flows=4))


def test_job_requires_positive_vm_count():
    with pytest.raises(ValueError):
        ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                      flows=_flows(), num_vms=0)


# ----------------------------------------------------------------------
# Orchestration: progress, perf, memoization, duplicates, failure
# ----------------------------------------------------------------------
def test_progress_callback_fires_per_job():
    ticks = []
    parallel_run_experiments(jobs(3), workers=0,
                             progress=lambda d, t, c: ticks.append((d, t, c)))
    assert ticks == [(1, 3, False), (2, 3, False), (3, 3, False)]


def test_progress_callback_streams_in_parallel():
    ticks = []
    parallel_run_experiments(jobs(3), workers=2,
                             progress=lambda d, t, c: ticks.append((d, t, c)))
    assert [d for d, _, _ in ticks] == [1, 2, 3]
    assert all(t == 3 and c is False for _, t, c in ticks)


def test_perf_timer_accumulates_job_wall_clock():
    timer = PhaseTimer()
    parallel_run_experiments(jobs(2), workers=0, perf=timer)
    assert timer.phases_ns.get("jobs", 0) > 0


def test_cache_short_circuits_dispatch(tmp_path):
    batch = jobs(3)
    store = RunCache(tmp_path)
    cold = parallel_run_experiments(batch, workers=0, cache=store)
    assert store.stats.stores == 3
    ticks = []
    warm = parallel_run_experiments(
        batch, workers=2, cache=store,
        progress=lambda d, t, c: ticks.append((d, t, c)))
    assert store.stats.misses == 3  # the cold pass's initial lookups
    assert store.stats.hits == 3
    assert ticks == [(1, 3, True), (2, 3, True), (3, 3, True)]
    for a, b in zip(cold, warm):
        assert _result_dict(a) == _result_dict(b)


def test_partial_cache_runs_only_misses(tmp_path):
    batch = jobs(3)
    store = RunCache(tmp_path)
    parallel_run_experiments([batch[1]], workers=0, cache=store)
    ticks = []
    results = parallel_run_experiments(
        batch, workers=0, cache=store,
        progress=lambda d, t, c: ticks.append(c))
    assert ticks.count(True) == 1
    assert ticks.count(False) == 2
    assert store.stats.stores == 3
    alone = parallel_run_experiments([batch[1]], workers=0, cache=None)
    assert _result_dict(results[1]) == _result_dict(alone[0])


# ----------------------------------------------------------------------
# Duplicate jobs and failing jobs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_duplicated_job_is_simulated_once(workers, tmp_path):
    first, second = jobs(2)
    twin = dataclasses.replace(first)
    assert twin is not first and twin == first
    timer, ticks, store = CountingTimer(), [], RunCache(tmp_path)
    results = parallel_run_experiments(
        [first, second, twin, first], workers=workers, cache=store,
        perf=timer, progress=lambda d, t, c: ticks.append((d, t, c)))
    assert len(results) == 4
    assert results[0] is results[2] is results[3]
    assert results[1] is not results[0]
    assert timer.entries == ["jobs", "jobs"]
    assert ticks == [(1, 2, False), (2, 2, False)]
    assert store.stats.stores == 2


def test_jobs_differing_only_in_flow_content_stay_apart():
    """Same-length workloads of different flows have different run keys,
    so they are never merged."""
    first = jobs(1)[0]
    bigger = dataclasses.replace(first, flows=tuple(
        dataclasses.replace(flow, size_bytes=3 * flow.size_bytes)
        for flow in first.flows))
    assert len(bigger.flows) == len(first.flows) and bigger != first
    a, b = parallel_run_experiments([first, bigger], workers=0, cache=None)
    assert a is not b
    assert _result_dict(a) != _result_dict(b)


def _slow_marked_nocache(slots, marker):
    """Scheme factory for the failure test: leave a marker, dawdle."""
    with open(marker, "w"):
        pass
    time.sleep(0.3)
    return NoCache()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched scheme registry")
def test_failing_job_stops_dispatch_and_is_named(tmp_path, monkeypatch):
    """A job that raises surfaces at once, by name: what has not
    started is dropped instead of run to completion first."""
    monkeypatch.setitem(SCHEME_FACTORIES, "SlowMarked", _slow_marked_nocache)
    workers = 2

    def slow(index):
        return ExperimentJob(
            spec=tiny_spec(), scheme_name="SlowMarked", flows=_flows(4),
            num_vms=8, seed=index, trace_name="hadoop",
            scheme_kwargs={"marker": str(tmp_path / f"started-{index}")})

    broken = ExperimentJob(spec=tiny_spec(), scheme_name="NoSuchScheme",
                           flows=_flows(4), num_vms=8, cache_ratio=4.0,
                           seed=9, trace_name="hadoop")
    batch = [slow(0), broken] + [slow(index) for index in range(1, 9)]
    with pytest.raises(ExperimentJobError) as failure:
        parallel_run_experiments(batch, workers=workers, cache=None)
    message = str(failure.value)
    assert "NoSuchScheme" in message
    assert "cache ratio 4" in message and "trace hadoop" in message
    assert "unknown scheme" in message, "the worker's own error is kept"
    started = sorted(os.listdir(tmp_path))
    assert "started-0" in started
    assert len(started) <= workers, started


def test_failing_job_is_named_when_run_inline():
    broken = ExperimentJob(spec=tiny_spec(), scheme_name="NoSuchScheme",
                           flows=_flows(4), num_vms=8, cache_ratio=0.5)
    with pytest.raises(ExperimentJobError, match="NoSuchScheme.*ratio 0.5"):
        parallel_run_experiments([broken], workers=0, cache=None)
