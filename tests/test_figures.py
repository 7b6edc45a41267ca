"""Tests for the per-figure experiment entry points (tiny scale)."""

import math

import pytest

from repro.experiments import (
    FigureScale,
    appendix_controller,
    figure5,
    figure9,
    figure10,
)
from repro.experiments.artifacts import (
    ARTIFACTS,
    FIG7_SCHEMES,
    FIG8_POD,
    TABLE5_TRACES,
)
from repro.net.node import Layer

TINY = FigureScale(num_vms=64, hadoop_flows=150, websearch_flows=15,
                   microburst_bursts=30, video_streams=8, alibaba_rpcs=100,
                   alibaba_services=8, alibaba_containers=8,
                   ratios=(4.0,), seed=2)


def test_figure5_returns_rows_for_all_schemes():
    rows = figure5("hadoop", TINY, schemes=("SwitchV2P", "NoCache"))
    assert {r.scheme for r in rows} == {"SwitchV2P", "NoCache"}
    assert all(r.x_value == 4.0 for r in rows)
    for row in rows:
        assert 0.0 <= row.hit_rate <= 1.0
        assert math.isfinite(row.fct_improvement)


def test_figure5_nocache_normalizes_to_one():
    rows = figure5("hadoop", TINY, schemes=("NoCache",))
    assert all(r.fct_improvement == pytest.approx(1.0) for r in rows)


def test_figure8_reports_pod_switches():
    results = ARTIFACTS["fig8_switch_bytes"].run(TINY)
    assert list(results) == list(FIG7_SCHEMES)
    for result in results.values():
        assert len(result.pod_bytes) == 8
        labels = set(result.pod_switch_bytes[FIG8_POD])
        assert "gateway-tor" in labels
        assert any(label.startswith("spine-") for label in labels)


def test_figure9_sweeps_gateway_counts():
    rows = figure9(TINY, gateways_per_pod=(10, 1),
                   schemes=("SwitchV2P", "NoCache"))
    counts = {int(r.x_value) for r in rows}
    assert counts == {40, 4}


def test_figure10_requires_divisible_servers():
    rows = figure10(TINY, pods_values=(2, 8), schemes=("SwitchV2P",))
    assert {int(r.x_value) for r in rows} == {2, 8}
    with pytest.raises(ValueError):
        figure10(TINY, pods_values=(64,), schemes=("SwitchV2P",))


def test_table5_covers_all_traces():
    results = ARTIFACTS["table5_hit_distribution"].run(TINY)
    assert list(results) == list(TABLE5_TRACES) == [
        "hadoop", "websearch", "alibaba", "microbursts", "video"]
    for result in results.values():
        hits, first_packet_hits = result.layer_hits
        assert len(hits) == len(first_packet_hits) == len(Layer)
        assert all(first <= every
                   for first, every in zip(first_packet_hits, hits))


def test_appendix_controller_labels_periods():
    rows = appendix_controller(TINY, periods_us=(150,))
    schemes = {r.scheme for r in rows}
    assert schemes == {"SwitchV2P", "Controller@150us"}
