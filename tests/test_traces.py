"""Tests for the workload generators."""

import math

import numpy as np
import pytest

from repro.traces import (
    HADOOP_CDF,
    WEBSEARCH_CDF,
    AlibabaTraceParams,
    HadoopTraceParams,
    IncastTraceParams,
    MicroburstTraceParams,
    VideoTraceParams,
    WebSearchTraceParams,
    alibaba,
    hadoop,
    incast,
    load_to_arrival_rate,
    mean_size,
    microbursts,
    poisson_arrival_times,
    sample_sizes,
    summarize,
    validate_cdf,
    video,
    websearch,
)


def rng():
    return np.random.default_rng(7)


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------
def test_cdfs_are_valid():
    validate_cdf(HADOOP_CDF)
    validate_cdf(WEBSEARCH_CDF)


def test_validate_rejects_malformed():
    with pytest.raises(ValueError):
        validate_cdf(((10, 0.0),))
    with pytest.raises(ValueError):
        validate_cdf(((10, 0.0), (5, 1.0)))
    with pytest.raises(ValueError):
        validate_cdf(((10, 0.5), (20, 0.2)))
    with pytest.raises(ValueError):
        validate_cdf(((10, 0.0), (20, 0.9)))


def test_sample_sizes_within_cdf_support():
    sizes = sample_sizes(HADOOP_CDF, 2000, rng())
    assert sizes.min() >= 1
    assert sizes.max() <= HADOOP_CDF[-1][0]
    assert len(sizes) == 2000


def _sample_sizes_per_draw(cdf, count, generator):
    """``sample_sizes`` as it was: one ``np.searchsorted`` per draw."""
    uniform = generator.random(count)
    sizes = np.empty(count)
    knots = list(cdf)
    probs = np.array([p for _, p in knots])
    for i, u in enumerate(uniform):
        j = int(np.searchsorted(probs, u, side="right"))
        j = min(max(j, 1), len(knots) - 1)
        s0, p0 = knots[j - 1]
        s1, p1 = knots[j]
        if p1 <= p0:
            sizes[i] = s1
            continue
        fraction = (u - p0) / (p1 - p0)
        sizes[i] = math.exp(math.log(s0) + fraction * (math.log(s1) - math.log(s0)))
    return np.maximum(1, sizes).astype(np.int64)


@pytest.mark.parametrize("cdf", [HADOOP_CDF, WEBSEARCH_CDF],
                         ids=["hadoop", "websearch"])
def test_sample_sizes_equal_the_per_draw_loop(cdf):
    """The one vectorised search draws bit-identical sizes, and leaves
    the generator where the loop did."""
    for seed in range(5):
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(sample_sizes(cdf, 5000, batched),
                              _sample_sizes_per_draw(cdf, 5000, looped))
        assert batched.random() == looped.random()
    assert len(sample_sizes(cdf, 0, rng())) == 0


def test_websearch_flows_heavier_than_hadoop():
    generator = rng()
    hadoop_sizes = sample_sizes(HADOOP_CDF, 3000, generator)
    websearch_sizes = sample_sizes(WEBSEARCH_CDF, 3000, generator)
    assert np.median(websearch_sizes) > 10 * np.median(hadoop_sizes)


def test_mean_size_is_between_extremes():
    mean = mean_size(HADOOP_CDF)
    assert HADOOP_CDF[0][0] < mean < HADOOP_CDF[-1][0]


def test_poisson_arrivals_monotonic():
    times = poisson_arrival_times(0.001, 500, rng())
    assert (np.diff(times) >= 0).all()


def test_arrival_rate_matches_load():
    rate = load_to_arrival_rate(0.3, 128, 100e9, 10_000)
    # 0.3 * 128 * 100e9/8 = 4.8e11 bytes/s over 10KB flows = 4.8e7 flows/s.
    assert rate == pytest.approx(4.8e7 / 1e9)


def test_arrival_rate_validation():
    with pytest.raises(ValueError):
        load_to_arrival_rate(0.0, 128, 100e9, 1000)
    with pytest.raises(ValueError):
        poisson_arrival_times(0, 10, rng())


# ----------------------------------------------------------------------
# hadoop / websearch
# ----------------------------------------------------------------------
def test_hadoop_trace_shape():
    params = HadoopTraceParams(num_vms=100, num_flows=500)
    flows = hadoop.generate(params, rng())
    assert len(flows) == 500
    assert all(0 <= f.src_vip < 100 and 0 <= f.dst_vip < 100 for f in flows)
    assert all(f.src_vip != f.dst_vip for f in flows)
    assert all(f.transport == "tcp" for f in flows)


def test_hadoop_has_high_destination_reuse():
    params = HadoopTraceParams(num_vms=100, num_flows=1000)
    summary = summarize(hadoop.generate(params, rng()), 100)
    assert summary.reuse_fraction > 0.9


def test_websearch_has_low_destination_reuse():
    params = WebSearchTraceParams(num_vms=1000, num_flows=100)
    summary = summarize(websearch.generate(params, rng()), 1000)
    assert summary.reuse_fraction < 0.2


def test_websearch_flows_are_heavy():
    params = WebSearchTraceParams(num_vms=1000, num_flows=200)
    summary = summarize(websearch.generate(params, rng()), 1000)
    hadoop_summary = summarize(
        hadoop.generate(HadoopTraceParams(num_vms=1000, num_flows=200),
                        rng()), 1000)
    assert summary.mean_flow_bytes > 10 * hadoop_summary.mean_flow_bytes


# ----------------------------------------------------------------------
# alibaba
# ----------------------------------------------------------------------
def test_alibaba_rpcs_have_responses():
    params = AlibabaTraceParams(num_services=8, containers_per_service=4,
                                num_rpcs=200)
    flows = alibaba.generate(params, rng())
    assert len(flows) == 200
    assert all(f.response_bytes > 0 for f in flows)
    assert all(f.src_vip != f.dst_vip for f in flows)


def test_alibaba_popularity_is_skewed():
    params = AlibabaTraceParams(num_services=32, containers_per_service=2,
                                num_rpcs=2000, zipf_exponent=1.2)
    flows = alibaba.generate(params, rng())
    service_of = lambda vip: vip // params.containers_per_service
    counts = np.bincount([service_of(f.dst_vip) for f in flows],
                         minlength=32)
    top = np.sort(counts)[::-1]
    # The top ~20% of services receive most of the requests.
    assert top[:6].sum() > 0.6 * counts.sum()


# ----------------------------------------------------------------------
# microbursts / video / incast
# ----------------------------------------------------------------------
def test_microbursts_are_udp_mice():
    params = MicroburstTraceParams(num_vms=200, num_bursts=50, burst_fanin=4)
    flows = microbursts.generate(params, rng())
    assert len(flows) == 50 * 4
    assert all(f.transport == "udp" for f in flows)
    assert all(f.size_bytes == params.flow_bytes for f in flows)


def test_microbursts_have_destination_reuse():
    params = MicroburstTraceParams(num_vms=200, num_bursts=200, burst_fanin=4)
    summary = summarize(microbursts.generate(params, rng()), 200)
    assert summary.destinations < 200  # skew concentrates destinations


def test_video_streams_are_disjoint():
    params = VideoTraceParams(num_vms=200, num_streams=16)
    flows = video.generate(params, rng())
    endpoints = [f.src_vip for f in flows] + [f.dst_vip for f in flows]
    assert len(set(endpoints)) == len(endpoints)
    summary = summarize(flows, 200)
    assert summary.reuse_fraction == 0.0


def test_video_rate_and_size():
    params = VideoTraceParams(num_vms=200, num_streams=4,
                              stream_rate_bps=48e6, duration_ns=1_000_000)
    flows = video.generate(params, rng())
    assert all(f.udp_rate_bps == 48e6 for f in flows)
    assert all(f.size_bytes == 6_000 for f in flows)  # 48Mbps * 1ms / 8


def test_video_requires_enough_vms():
    with pytest.raises(ValueError):
        VideoTraceParams(num_vms=10, num_streams=16)


def test_incast_targets_single_destination():
    params = IncastTraceParams(num_senders=8, packets_per_sender=10)
    flows = incast.generate(params, rng(), sender_vips=list(range(1, 9)))
    assert len(flows) == 8
    assert all(f.dst_vip == 0 for f in flows)
    assert all(f.transport == "udp" for f in flows)
    assert params.total_packets == 80


def test_incast_needs_enough_senders():
    params = IncastTraceParams(num_senders=8)
    with pytest.raises(ValueError):
        incast.generate(params, rng(), sender_vips=[1, 2, 3])


def test_trace_determinism():
    params = HadoopTraceParams(num_vms=64, num_flows=100)
    a = hadoop.generate(params, np.random.default_rng(3))
    b = hadoop.generate(params, np.random.default_rng(3))
    assert a == b
