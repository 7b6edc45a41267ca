"""Tests for the sweep helpers: normalization, and every run a pool job."""

import os

import pytest

from repro.experiments.parallel import ExperimentJob, parallel_run_experiments
from repro.experiments.runcache import RunCache
from repro.experiments.sweeps import (
    REFERENCE,
    cache_size_sweep,
    gateway_sweep,
    sweep_rows,
    topology_sweep,
)
from repro.transport.flow import FlowSpec

from conftest import CountingTimer, tiny_spec


def flows(count=25, vms=8):
    return [FlowSpec(src_vip=i % vms, dst_vip=(i + 3) % vms,
                     size_bytes=2_000, start_ns=i * 15_000)
            for i in range(count)]


def test_cache_sweep_row_shape():
    rows = cache_size_sweep(tiny_spec(), flows(), num_vms=8, ratios=(4.0,),
                            schemes=("SwitchV2P",))
    [row] = rows
    assert row.scheme == "SwitchV2P"
    assert row.x_value == 4.0
    cells = row.as_row()
    assert cells[0] == "SwitchV2P"
    assert len(cells) == 5


def base(spec=None):
    """A NoCache job of :func:`flows` for the fabric sweeps to vary."""
    return ExperimentJob(spec=spec or tiny_spec(), scheme_name="NoCache",
                         flows=tuple(flows()), num_vms=8)


def rows_of(jobs, **options):
    """Simulate a sweep's jobs and normalize them."""
    return sweep_rows(dict(zip(jobs, parallel_run_experiments(
        list(jobs.values()), **options))))


def test_gateway_sweep_normalizes_to_largest_fleet():
    rows = rows_of(gateway_sweep(base(tiny_spec(gateways_per_pod=2)),
                                 gateways_per_pod=(2, 1),
                                 schemes=("NoCache",), cache_ratio=0.0))
    first, second = rows
    # The first (largest fleet) NoCache row is the reference: exactly 1.
    assert first.fct_improvement == pytest.approx(1.0)
    # The reduced fleet is measured against that same reference, so its
    # factor reflects real degradation (not forced to 1).
    assert second.x_value < first.x_value


def test_topology_sweep_rejects_impossible_geometry():
    with pytest.raises(ValueError):
        topology_sweep(base(), (1000,), total_servers=8, racks_per_pod=2,
                       schemes=("NoCache",), cache_ratio=0.0)


def test_topology_sweep_varies_specs():
    jobs = topology_sweep(base(), (1, 2), total_servers=8, racks_per_pod=2,
                          schemes=("NoCache",), cache_ratio=0.0)
    assert [(job.spec.pods, job.spec.servers_per_rack)
            for (scheme, _), job in jobs.items()
            if scheme == REFERENCE] == [(1, 4), (2, 2)]


# ----------------------------------------------------------------------
# One flat job list per sweep: the parent simulates nothing
# ----------------------------------------------------------------------
#: The shape of the benchmark's sweep-fig5 workload: 3 ratios x
#: (SwitchV2P, GwCache) + NoCache, which is also the reference.
BENCH_RATIOS = (0.5, 4.0, 32.0)
BENCH_SCHEMES = ("SwitchV2P", "GwCache", "NoCache")


def test_parent_simulates_nothing_with_workers(monkeypatch):
    """Reference run included, every simulation reaches the pool."""
    parent, simulate = os.getpid(), ExperimentJob.run

    def run(job, *args, **kwargs):
        assert os.getpid() != parent, "the sweep simulated in the parent"
        return simulate(job, *args, **kwargs)

    monkeypatch.setattr(ExperimentJob, "run", run)
    timer, ticks = CountingTimer(), []
    rows = cache_size_sweep(tiny_spec(), flows(), num_vms=8,
                            ratios=BENCH_RATIOS, schemes=BENCH_SCHEMES,
                            workers=2, cache=None, perf=timer,
                            progress=lambda d, t, c: ticks.append((d, t)))
    assert len(rows) == 9
    assert timer.entries == ["jobs"] * 7
    assert ticks == [(done, 7) for done in range(1, 8)]


def test_replicated_rows_share_one_result_object():
    rows = cache_size_sweep(tiny_spec(), flows(), num_vms=8,
                            ratios=BENCH_RATIOS,
                            schemes=BENCH_SCHEMES + ("Direct",), cache=None)
    for scheme in ("NoCache", "Direct"):
        results = [row.result for row in rows if row.scheme == scheme]
        assert len(results) == 3
        assert all(result is results[0] for result in results)
        assert all(result.cache_ratio == 0.0 for result in results)
    assert len({id(row.result) for row in rows}) == 8
    nocache = [row for row in rows if row.scheme == "NoCache"]
    assert [row.x_value for row in nocache] == list(BENCH_RATIOS)
    assert all(row.fct_improvement == 1.0 for row in nocache)


def test_reference_job_hits_entry_stored_by_run_experiment(tmp_path):
    """The reference job's key is that of a lone job of the same
    inputs, so a store written by such a run still hits."""
    store = RunCache(tmp_path)
    [reference] = parallel_run_experiments(
        [ExperimentJob(tiny_spec(), "NoCache", flows(), 8, 0.0, 3,
                       trace_name="hadoop")], workers=0, cache=store)
    assert (store.stats.stores, store.stats.hits) == (1, 0)
    rows = cache_size_sweep(tiny_spec(), flows(), num_vms=8, ratios=(4.0,),
                            schemes=("SwitchV2P", "NoCache"), seed=3,
                            trace_name="hadoop", cache=store)
    assert (store.stats.stores, store.stats.hits) == (2, 1)
    assert rows[1].result == reference


def test_gateway_sweep_lists_nocache_twice_and_simulates_it_once():
    ticks = []
    rows = rows_of(gateway_sweep(base(tiny_spec(gateways_per_pod=2)),
                                 gateways_per_pod=(2, 1),
                                 schemes=("GwCache", "NoCache"),
                                 cache_ratio=4.0),
                   cache=None, progress=lambda d, t, c: ticks.append((d, t)))
    # 2 fleets x 2 schemes; the reference is the first fleet's NoCache.
    assert ticks == [(done, 4) for done in range(1, 5)]
    assert [row.scheme for row in rows] == ["GwCache", "NoCache"] * 2
    assert rows[1].fct_improvement == 1.0
    assert rows[1].result.cache_ratio == 0.0
    assert rows[0].result.cache_ratio == 4.0


def test_topology_sweep_normalizes_each_fabric_to_its_own_nocache():
    ticks = []
    rows = rows_of(topology_sweep(base(), (1, 2), total_servers=8,
                                  racks_per_pod=2,
                                  schemes=("NoCache", "GwCache"),
                                  cache_ratio=4.0),
                   cache=None, workers=2,
                   progress=lambda d, t, c: ticks.append((d, t)))
    assert ticks == [(done, 4) for done in range(1, 5)]
    assert [(row.scheme, row.x_value) for row in rows] == [
        ("NoCache", 1.0), ("GwCache", 1.0), ("NoCache", 2.0), ("GwCache", 2.0)]
    assert rows[0].fct_improvement == rows[2].fct_improvement == 1.0
    assert rows[0].result is not rows[2].result


def test_public_api_exports_resolve():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
