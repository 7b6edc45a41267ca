"""Tests for the windowed time-series samplers."""

import pytest

from repro.baselines import NoCache
from repro.core import SwitchV2P
from repro.metrics.timeline import (
    RatioTimeline,
    WindowedRateSampler,
    track_hit_rate,
)
from repro.sim.engine import Engine, msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def test_windowed_rate_records_deltas():
    engine = Engine()
    counter = {"value": 0}
    sampler = WindowedRateSampler(engine, lambda: counter["value"],
                                  period_ns=100)
    sampler.start()
    engine.schedule(50, lambda: counter.__setitem__("value", 3))
    engine.schedule(150, lambda: counter.__setitem__("value", 5))
    engine.run(until=250)
    assert sampler.values() == [3.0, 2.0]
    assert sampler.peak() == 3.0


def test_sampler_cannot_start_twice():
    sampler = WindowedRateSampler(Engine(), lambda: 0, period_ns=10)
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        WindowedRateSampler(Engine(), lambda: 0, period_ns=0)
    with pytest.raises(ValueError):
        RatioTimeline(Engine(), lambda: 0, lambda: 0, period_ns=0)


def test_ratio_timeline_skips_empty_windows():
    engine = Engine()
    num = {"value": 0}
    den = {"value": 0}
    timeline = RatioTimeline(engine, lambda: num["value"],
                             lambda: den["value"], period_ns=100)
    timeline.start()
    engine.schedule(150, lambda: (num.__setitem__("value", 1),
                                  den.__setitem__("value", 2)))
    engine.run(until=350)
    # First window empty (skipped), second has ratio 0.5.
    assert timeline.values() == [0.5]


def test_gateway_load_falls_as_caches_warm():
    """The paper's adaptivity claim: in-network hit rate climbs within
    the run as switches learn, cutting windowed gateway load."""
    scheme = SwitchV2P(total_cache_slots=400)
    network = small_network(scheme, num_vms=8)
    timeline = track_hit_rate(network, period_ns=usec(400))
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=i % 4, dst_vip=5, size_bytes=3_000,
                      start_ns=i * usec(150)) for i in range(20)]
    player.add_flows(flows)
    network.run(until=msec(4))
    values = timeline.values()
    assert values, "expected at least one sampled window"
    # Later windows hit more than the first.
    assert max(values[1:], default=values[-1]) >= values[0]


def test_gateway_load_sampler_counts_arrivals():
    network = small_network(NoCache(), num_vms=8)
    collector = network.collector
    sampler = WindowedRateSampler(network.engine,
                                  lambda: collector.gateway_arrivals, usec(500))
    sampler.start()
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000,
                               start_ns=0)])
    network.run(until=msec(3))
    assert sum(sampler.values()) == network.collector.gateway_arrivals