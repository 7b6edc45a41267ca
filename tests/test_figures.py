"""Tests for the figures' job lists and the registry entries that run
them (tiny scale): every sweep is its jobs plus a pure ``sweep_rows``."""

import math

import pytest

from repro.experiments import FigureScale
from repro.experiments.artifacts import (
    APPENDIX_VARIANTS,
    ARTIFACTS,
    FIG7_SCHEMES,
    FIG8_POD,
    TABLE5_TRACES,
    simulate,
)
from repro.experiments.figures import figure5_jobs
from repro.experiments.parallel import parallel_run_experiments
from repro.experiments.sweeps import (
    gateway_sweep,
    ratio_sweep,
    sweep_rows,
    topology_sweep,
)
from repro.net.node import Layer
from repro.traces.spec import TraceSpec

TINY = FigureScale(num_vms=64, hadoop_flows=150, websearch_flows=15,
                   microburst_bursts=30, video_streams=8, alibaba_rpcs=100,
                   alibaba_services=8, alibaba_containers=8,
                   ratios=(4.0,), seed=2)


def _rows(jobs):
    """Simulate a sweep's jobs and normalize them."""
    return sweep_rows(dict(zip(jobs, parallel_run_experiments(
        list(jobs.values())))))


def _hadoop():
    return figure5_jobs("hadoop", TINY)("NoCache", 0.0)


def test_figure5_returns_rows_for_all_schemes():
    rows = _rows(ratio_sweep(figure5_jobs("hadoop", TINY), TINY.ratios,
                             ("SwitchV2P", "NoCache")))
    assert {r.scheme for r in rows} == {"SwitchV2P", "NoCache"}
    assert all(r.x_value == 4.0 for r in rows)
    for row in rows:
        assert 0.0 <= row.hit_rate <= 1.0
        assert math.isfinite(row.fct_improvement)


def test_figure5_nocache_normalizes_to_one():
    rows = _rows(ratio_sweep(figure5_jobs("hadoop", TINY), TINY.ratios,
                             ("NoCache",)))
    assert all(r.fct_improvement == pytest.approx(1.0) for r in rows)


def test_figure5_jobs_materialize_the_trace_once_for_every_job(monkeypatch):
    """One materialization per call, and every job holds that one flow
    tuple, so keying a sweep digests the flows once; Bluebird's punt
    channel is sized from them."""
    calls = []
    materialize = TraceSpec.materialize
    monkeypatch.setattr(TraceSpec, "materialize", lambda spec: (
        calls.append(spec) or materialize(spec)))
    job = figure5_jobs("hadoop", TINY)
    assert len(calls) == 1
    jobs = [job(scheme, ratio) for scheme in ("NoCache", "SwitchV2P",
                                              "Bluebird")
            for ratio in (0.5, 4.0)]
    assert len(calls) == 1
    assert all(each.flows is jobs[0].flows for each in jobs)
    assert jobs[0].flows == tuple(materialize(calls[0]))
    kwargs = jobs[-1].scheme_kwargs
    assert jobs[-2].scheme_kwargs is kwargs
    assert set(kwargs) == {"punt_bps", "punt_buffer_bytes"}


def test_figure8_reports_pod_switches():
    results = simulate([ARTIFACTS["fig8_switch_bytes"]],
                       TINY)["fig8_switch_bytes"]
    assert list(results) == list(FIG7_SCHEMES)
    for result in results.values():
        assert len(result.pod_bytes) == 8
        labels = set(result.pod_switch_bytes[FIG8_POD])
        assert "gateway-tor" in labels
        assert any(label.startswith("spine-") for label in labels)


def test_figure9_sweeps_gateway_counts():
    rows = _rows(gateway_sweep(_hadoop(), (10, 1), ("SwitchV2P", "NoCache"),
                               8.0))
    counts = {int(r.x_value) for r in rows}
    assert counts == {40, 4}


def test_figure10_requires_divisible_servers():
    rows = _rows(topology_sweep(_hadoop(), (2, 8), 128, 4, ("SwitchV2P",),
                                8.0))
    assert {int(r.x_value) for r in rows} == {2, 8}
    with pytest.raises(ValueError):
        topology_sweep(_hadoop(), (64,), 128, 4, ("SwitchV2P",), 8.0)


def test_table5_covers_all_traces():
    results = simulate([ARTIFACTS["table5_hit_distribution"]],
                       TINY)["table5_hit_distribution"]
    assert list(results) == list(TABLE5_TRACES) == [
        "hadoop", "websearch", "alibaba", "microbursts", "video"]
    for result in results.values():
        hits, first_packet_hits = result.layer_hits
        assert len(hits) == len(first_packet_hits) == len(Layer)
        assert all(first <= every
                   for first, every in zip(first_packet_hits, hits))


def test_appendix_controller_labels_periods():
    rows = simulate([ARTIFACTS["appendix_controller"]],
                    TINY)["appendix_controller"]
    assert [r.scheme for r in rows] == list(APPENDIX_VARIANTS) == [
        "SwitchV2P", "Controller@150us", "Controller@300us"]
    assert [r.result.scheme for r in rows] == [r.scheme for r in rows]
