"""Tests for the experiment harness: runner, sweeps, figures, migration."""

import dataclasses
import json
import math

import pytest

from repro.baselines import NoCache
from repro.experiments import (
    SCHEME_FACTORIES,
    ExperimentJob,
    FigureScale,
    build_network,
    build_trace,
    ft8_spec,
    ft16_spec,
    make_scheme,
    migration_jobs,
    parallel_run_experiments,
)
from repro.experiments.artifacts import gateway_packet_fraction
from repro.experiments.figures import bluebird_kwargs
from repro.experiments.sweeps import cache_size_sweep
from repro.net.node import Layer
from repro.traces.incast import IncastTraceParams
from repro.transport.flow import FlowSpec

from conftest import tiny_spec

TINY_SCALE = FigureScale(num_vms=64, hadoop_flows=120, websearch_flows=20,
                         microburst_bursts=30, video_streams=8,
                         alibaba_rpcs=80, alibaba_services=8,
                         alibaba_containers=8, ratios=(1.0,))


def tiny_flows(count=20, vms=8):
    return [FlowSpec(src_vip=i % vms, dst_vip=(i + 3) % vms,
                     size_bytes=2_000, start_ns=i * 10_000)
            for i in range(count)]


def test_make_scheme_knows_all_names():
    for name in SCHEME_FACTORIES:
        scheme = make_scheme(name, address_space=100, cache_ratio=1.0)
        assert scheme is not None


def test_make_scheme_rejects_unknown():
    with pytest.raises(ValueError):
        make_scheme("Nonsense", 100, 1.0)


def test_run_experiment_produces_complete_summary():
    result = ExperimentJob(tiny_spec(), "SwitchV2P", tiny_flows(), num_vms=8,
                           cache_ratio=10.0, trace_name="tiny").run()
    assert result.scheme == "SwitchV2P"
    assert result.trace == "tiny"
    assert result.completion_rate == 1.0
    assert result.packets_sent > 0
    assert 0.0 <= result.hit_rate <= 1.0
    assert math.isfinite(result.avg_fct_ns)
    assert len(result.pod_bytes) == tiny_spec().pods
    assert result.pod_bytes == [sum(pod.values())
                                for pod in result.pod_switch_bytes]
    assert [len(hits) for hits in result.layer_hits] == [len(Layer)] * 2
    # Plain data: the whole result survives a JSON round trip.
    fields = dataclasses.asdict(result)
    assert json.loads(json.dumps(fields)) == fields


def test_cache_size_sweep_normalizes_against_nocache():
    rows = cache_size_sweep(tiny_spec(), tiny_flows(), num_vms=8,
                            ratios=(1.0, 10.0),
                            schemes=("NoCache", "SwitchV2P"))
    nocache_rows = [r for r in rows if r.scheme == "NoCache"]
    assert all(r.fct_improvement == pytest.approx(1.0) for r in nocache_rows)
    assert len(rows) == 4


def test_sweep_reuses_ratio_independent_schemes():
    rows = cache_size_sweep(tiny_spec(), tiny_flows(), num_vms=8,
                            ratios=(1.0, 10.0),
                            schemes=("Direct", "OnDemand"))
    direct = [r for r in rows if r.scheme == "Direct"]
    assert direct[0].result is direct[1].result


def test_build_trace_all_names():
    for name in ("hadoop", "websearch", "microbursts", "video", "alibaba"):
        flows, num_vms = build_trace(name, TINY_SCALE)
        assert flows, name
        assert all(f.dst_vip < num_vms for f in flows)


def test_build_trace_unknown_name():
    with pytest.raises(ValueError):
        build_trace("netflix", TINY_SCALE)


def test_specs_match_paper_topologies():
    assert ft8_spec().num_switches == 80
    assert ft8_spec().num_gateways == 40
    assert ft16_spec().pods == 16


def test_bluebird_kwargs_scale_with_load():
    flows, _ = build_trace("hadoop", TINY_SCALE)
    kwargs = bluebird_kwargs(flows, ft8_spec(), TINY_SCALE)
    assert kwargs["punt_bps"] >= 20e6
    assert kwargs["punt_buffer_bytes"] >= 16_384


def _migration_table(params):
    """Table 4's ``{variant: result}`` on the tiny fabric."""
    jobs = migration_jobs(params, spec=tiny_spec())
    return dict(zip(jobs, parallel_run_experiments(list(jobs.values()),
                                                   workers=0, cache=None)))


def test_migration_table_shape():
    params = IncastTraceParams(num_senders=4, packets_per_sender=50)
    results = _migration_table(params)
    assert list(results) == [
        "NoCache",
        "OnDemand",
        "SwitchV2P w/o invalidations",
        "SwitchV2P w/o timestamp vector",
        "SwitchV2P w/ timestamp vector",
    ]
    rows = list(results.values())
    nocache = rows[0]
    assert gateway_packet_fraction(nocache) == pytest.approx(1.0, abs=0.01)
    full = rows[-1]
    assert gateway_packet_fraction(full) < 0.7
    # Invalidations only exist for the variants that enable them.
    assert rows[2].invalidation_packets == 0
    assert full.invalidation_packets <= rows[3].invalidation_packets


def test_migration_variants_keep_delivering():
    params = IncastTraceParams(num_senders=4, packets_per_sender=50)
    for result in _migration_table(params).values():
        assert result.packets_sent >= params.total_packets


def test_build_network_respects_gateway_override():
    network = build_network(tiny_spec(), NoCache(), num_vms=4,
                            gateway_processing_ns=123)
    assert network.config.gateway_processing_ns == 123
