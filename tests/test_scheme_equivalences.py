"""Equivalence relations between schemes at parameter extremes.

The paper positions NoCache and OnDemand as special cases of the
hybrid (Hoverboard) design: no offloading, and immediate offloading.
These tests pin those relationships in code.
"""

import dataclasses

import pytest

from repro.baselines import GwCache, Hoverboard, LocalLearning, NoCache, OnDemand
from repro.core import SwitchV2P, SwitchV2PConfig
from repro.experiments.runner import build_network, run_flows
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def run(scheme, seed=0):
    network = small_network(scheme, num_vms=8, seed=seed)
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=i % 4, dst_vip=4 + (i % 3), size_bytes=4_000,
                      start_ns=i * usec(250)) for i in range(12)]
    player.add_flows(flows)
    network.run(until=msec(30))
    return network.collector


def test_hoverboard_without_offload_equals_nocache():
    """An unreachable threshold makes Hoverboard behave as NoCache."""
    hoverboard = run(Hoverboard(offload_threshold=10**9))
    nocache = run(NoCache())
    assert hoverboard.gateway_arrivals == nocache.gateway_arrivals
    assert hoverboard.average_fct_ns() == nocache.average_fct_ns()
    assert hoverboard.average_stretch() == nocache.average_stretch()


def test_hoverboard_immediate_offload_approaches_ondemand():
    """Threshold 1 with OnDemand's install delay reproduces OnDemand's
    per-destination behaviour."""
    hoverboard = run(Hoverboard(offload_threshold=1,
                                install_delay_ns=usec(52)))
    ondemand = run(OnDemand(install_delay_ns=usec(52)))
    assert hoverboard.gateway_arrivals == ondemand.gateway_arrivals
    assert hoverboard.average_fct_ns() == ondemand.average_fct_ns()


def test_switchv2p_all_features_off_is_pure_role_learning():
    """With every special function disabled, SwitchV2P still caches
    (plain role-based learning) but emits zero protocol packets."""
    config = SwitchV2PConfig(enable_learning_packets=False,
                             enable_spillover=False,
                             enable_promotion=False,
                             enable_invalidation=False)
    scheme = SwitchV2P(total_cache_slots=400, config=config)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=i % 4, dst_vip=4 + (i % 3), size_bytes=4_000,
                      start_ns=i * usec(250)) for i in range(12)]
    player.add_flows(flows)
    network.run(until=msec(30))
    assert scheme.learning_packets_sent == 0
    assert scheme.invalidation_packets_sent == 0
    assert scheme.promotions_sent == 0
    assert scheme.spillovers_reinserted == 0
    assert network.collector.in_network_hits > 0


def test_identical_seeds_identical_results_across_scheme_instances():
    a = run(Hoverboard(offload_threshold=5), seed=3)
    b = run(Hoverboard(offload_threshold=5), seed=3)
    assert a.average_fct_ns() == b.average_fct_ns()
    assert a.gateway_arrivals == b.gateway_arrivals


class _StepByStepHook:
    """Reference switch hook: every step on every hop, cache or not.

    This is what GwCache and LocalLearning each spelled out before
    ``CachingScheme.on_switch`` (which skips cache-less switches up
    front and fetches the cache once) replaced both copies.
    """

    def on_switch(self, switch, packet, ingress):
        if not self.is_traffic(packet):
            return True
        if self.try_resolve(switch, packet):
            return True
        cache = self.cache_of(switch)
        if packet.resolved and cache is not None:
            cache.insert(packet.dst_vip, packet.outer_dst)
        return True


@pytest.mark.parametrize("scheme_class", [GwCache, LocalLearning])
def test_shared_switch_hook_equals_step_by_step_reference(scheme_class):
    """Same RunResult and same per-cache counters, hop for hop."""
    reference_class = type("Reference", (_StepByStepHook, scheme_class), {})
    flows = [FlowSpec(src_vip=i % 24, dst_vip=(7 * i + 3) % 24,
                      size_bytes=1_500 + 700 * (i % 5), start_ns=i * usec(9))
             for i in range(120)]

    def outcome(cls):
        scheme = cls(total_cache_slots=96)
        network = build_network(FatTreeSpec(), scheme, 24, seed=5)
        result = run_flows(network, flows, trace_name="mix")
        stats = {switch_id: [getattr(cache.stats, name)
                             for name in cache.stats.__slots__]
                 for switch_id, cache in scheme.caches.items()}
        return dataclasses.asdict(result), stats

    shared, reference = outcome(scheme_class), outcome(reference_class)
    assert shared[0]["hit_rate"] > 0, "the workload never hit a cache"
    assert shared == reference
