"""Equivalence relations between schemes, their parameter extremes and
the step-by-step data planes their bound hooks replaced."""

import dataclasses
from functools import partial

import pytest

from repro.baselines import Controller, GwCache, LocalLearning, OnDemand
from repro.core import Role, SwitchV2P, SwitchV2PConfig
from repro.experiments.runner import build_network, run_flows
from repro.faults import FaultSchedule
from repro.net.addresses import pip_pod
from repro.net.node import Layer
from repro.net.packet import PacketKind
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
    a = run(OnDemand(install_delay_ns=usec(20)), seed=3)
    b = run(OnDemand(install_delay_ns=usec(20)), seed=3)
    assert a.average_fct_ns() == b.average_fct_ns()
    assert a.gateway_arrivals == b.gateway_arrivals


def test_ondemand_counts_installs_once_per_destination():
    scheme = OnDemand(install_delay_ns=usec(20))
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=0, dst_vip=5, size_bytes=1_500,
                      start_ns=i * usec(300)) for i in range(5)]
    player.add_flows(flows)
    network.run(until=msec(20))
    host = network.host_of(0)
    assert list(scheme.cached_mappings(host)) == [5]


class _StepByStepHook:
    """Reference switch hook: every step on every hop, cache or not.

    This is what GwCache and LocalLearning each spelled out before
    ``CachingScheme.bind_hook`` (which skips cache-less switches up
    front and fetches the cache once) replaced both copies.
    """

    def bind_hook(self, switch):
        return partial(self.on_switch, switch)

    def on_switch(self, switch, packet, ingress):
        if not self.is_traffic(packet):
            return True
        if self.try_resolve(switch, packet, self.cache_of(switch)):
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


# ----------------------------------------------------------------------
# SwitchV2P: the per-role hooks against the single body they replaced
# ----------------------------------------------------------------------
class _StepByStepSwitchV2P(SwitchV2P):
    """Reference data plane: ``SwitchV2P.on_switch`` as it stood before
    each switch got its role's own function — one body that looks the
    role up per packet and walks Table 1 as an if-chain, calling
    ``cache.insert`` for every learning outcome."""

    def bind_hook(self, switch):
        return partial(self.on_switch, switch)

    def on_switch(self, switch, packet, ingress):
        kind = packet.kind
        if kind > PacketKind.ACK:
            if kind is PacketKind.LEARNING:
                return self._on_learning_packet(switch, packet)
            self._apply_invalidation(switch, packet)
            return True

        config = self.config
        role = self.roles[switch.switch_id]
        cache = self.caches.get(switch.switch_id)
        if not config.role_aware:
            role = None

        # 1. Misdelivery tagging at ToRs (§3.3).
        if (
            switch.layer is Layer.TOR
            and ingress is not None
            and ingress._src_is_host
            and not packet._misdelivery_tag
            and (packet.outer_src != ingress.src.pip
                 or packet._carried_mapping is not None)
        ):
            self._tag_misdelivered(switch, packet)

        # 2. In-band metadata: spilled entries, promotions.
        if packet._spill_entry is not None and config.enable_spillover:
            self._reference_pickup_spill(packet, role, cache)
        if packet._promote_entry is not None and (role == Role.CORE
                                                  or not config.role_aware):
            self._reference_admit_promotion(packet, cache)

        # 3. Lookup, with spine promotion on a hot hit.
        if not packet.resolved and cache is not None:
            hot_before = (
                role is Role.SPINE
                and config.enable_promotion
                and cache.access_bit(packet.dst_vip) == 1
            )
            resolved_here = self.try_resolve(switch, packet, cache)
            if resolved_here and hot_before \
                    and pip_pod(packet.outer_dst) != switch.pod:
                packet.promote_entry = (packet.dst_vip, packet.outer_dst)
                self.promotions_sent += 1

        # 4. Learning (Table 1), one policy per role.
        if role is Role.TOR:
            if cache is not None:
                result = cache.insert(packet.src_vip, packet.outer_src)
                if result.evicted is not None and config.enable_spillover:
                    packet.spill_entry = result.evicted
        elif role is Role.SPINE or role is Role.GATEWAY_SPINE:
            if packet.resolved and cache is not None:
                result = cache.insert(packet.dst_vip, packet.outer_dst, True)
                if result.evicted is not None and config.enable_spillover:
                    packet.spill_entry = result.evicted
        elif role is Role.GATEWAY_TOR:
            if packet.resolved and cache is not None:
                result = cache.insert(packet.dst_vip, packet.outer_dst)
                if result.evicted is not None and config.enable_spillover:
                    packet.spill_entry = result.evicted
            if packet.resolved:
                self._maybe_send_learning_packet(switch, packet)
        elif role is None and packet.resolved and cache is not None:
            result = cache.insert(packet.dst_vip, packet.outer_dst)
            if result.evicted is not None and config.enable_spillover:
                packet.spill_entry = result.evicted
        return True

    def _reference_pickup_spill(self, packet, role, cache):
        if role == Role.CORE or cache is None:
            return
        vip, pip = packet._spill_entry
        conservative = role in (Role.SPINE, Role.GATEWAY_SPINE)
        result = cache.insert(vip, pip, only_if_clear=conservative)
        if result.admitted:
            packet.spill_entry = result.evicted
            self.spillovers_reinserted += 1
            self._collector.spillover_inserts += 1

    def _reference_admit_promotion(self, packet, cache):
        if cache is None:
            return
        vip, pip = packet._promote_entry
        result = cache.insert(vip, pip, only_if_clear=True)
        packet.promote_entry = None
        if result.admitted:
            self.promotions_admitted += 1
            self._collector.promotions += 1


_V2P_COUNTERS = ("learning_packets_sent", "invalidation_packets_sent",
                 "spillovers_reinserted", "promotions_sent",
                 "promotions_admitted", "rng_draws")


def _v2p_outcome(cls, config, migrate, **kwargs):
    """One FT8 run: busy enough that every role learns, spills, promotes
    and announces; with ``migrate`` the hot destination moves racks
    every 150 us, so tagged packets and invalidations flow too."""
    slots = 160 * kwargs.get("cache_ways", 1)  # 2 sets a switch
    scheme = cls(total_cache_slots=slots, config=config, **kwargs)
    network = build_network(FatTreeSpec(), scheme, 48, seed=5)
    flows = [FlowSpec(src_vip=(5 * i) % 48, dst_vip=(7 * i + 3) % 12,
                      size_bytes=3_000 + 1_400 * (i % 7), start_ns=i * usec(6))
             for i in range(260)]
    if migrate:
        for step in range(1, 9):
            network.engine.schedule(
                step * usec(150), network.migrate, 3,
                network.hosts[(16 * step + 3) % len(network.hosts)])
    result = run_flows(network, flows, trace_name="mix")
    caches = {switch_id: ([getattr(cache.stats, name)
                           for name in cache.stats.__slots__],
                          cache.entries())
              for switch_id, cache in scheme.caches.items()}
    counters = {name: getattr(scheme, name) for name in _V2P_COUNTERS}
    hits = dict(network.collector.hits_by_layer)
    return dataclasses.asdict(result), caches, counters, hits, scheme


@pytest.mark.parametrize("label, config, migrate, kwargs", [
    ("every-role", SwitchV2PConfig(p_learn=0.2), False, {}),
    ("role-unaware", SwitchV2PConfig(p_learn=0.2, role_aware=False), False, {}),
    ("tagged", SwitchV2PConfig(p_learn=0.2), True, {}),
    ("tagged-role-unaware", SwitchV2PConfig(role_aware=False), True, {}),
    ("four-way", SwitchV2PConfig(p_learn=0.2), True, {"cache_ways": 4}),
])
def test_per_role_hooks_equal_step_by_step_reference(label, config, migrate,
                                                     kwargs):
    """Same RunResult, cache contents and counters, protocol counters
    and per-layer hits — and the run really went where its label says."""
    *hooks, scheme = _v2p_outcome(SwitchV2P, config, migrate, **kwargs)
    *reference, _ = _v2p_outcome(_StepByStepSwitchV2P, config, migrate,
                                 **kwargs)
    assert hooks == reference
    result, _, counters, hits, = hooks
    assert result["completion_rate"] == 1.0
    assert counters["spillovers_reinserted"] > 0
    if config.role_aware:
        assert set(scheme.roles.values()) == set(Role)
        assert counters["promotions_admitted"] > 0
        assert counters["learning_packets_sent"] > 0
        assert hits[Layer.TOR] > 0 and hits[Layer.SPINE] > 0
    if migrate:
        assert result["misdeliveries"] > 0
        assert counters["invalidation_packets_sent"] > 0


# ----------------------------------------------------------------------
# Fault resets: a cache emptied in place against a rebuilt one
# ----------------------------------------------------------------------
class _RebuildOnReset:
    """Reference fault reset, as it stood before resets went in place: a
    failed or recovered switch got a new empty cache of the same geometry
    (fresh counters, the fluid observer attached again) and its hook was
    bound again over it."""

    #: Entries the resets threw away: the outages must hit warm caches.
    wiped = 0

    def on_switch_reset(self, switch):
        cache = self.caches.get(switch.switch_id)
        if cache is None:
            return
        self.wiped += cache.occupancy()
        fresh = self.make_cache(cache.num_slots, salt=cache.salt)
        if self.cache_observer is not None:
            fresh.attach_observer(self.cache_observer(switch.switch_id))
        self.caches[switch.switch_id] = fresh
        switch.hook = self.bind_hook(switch)


@pytest.mark.parametrize("scheme_class, fidelity", [
    (SwitchV2P, "packet"), (SwitchV2P, "hybrid"), (GwCache, "packet"),
    (LocalLearning, "hybrid"), (Controller, "packet")])
def test_reset_in_place_equals_rebuilt_cache(scheme_class, fidelity):
    """Same RunResult, cache contents and counters through outages of a
    spine, a core and a gateway ToR that wipe warm caches."""
    reference_class = type("Reference", (_RebuildOnReset, scheme_class), {})
    spec = FatTreeSpec()
    flows = [FlowSpec(src_vip=i % 24, dst_vip=(7 * i + 3) % 24,
                      size_bytes=1_500 + 700 * (i % 5), start_ns=i * usec(9))
             for i in range(120)]
    outages = (FaultSchedule()
               .switch_outage("spine", (0, 0), usec(300), usec(200))
               .switch_outage("core", 0, usec(400), usec(300))
               .switch_outage("tor", (spec.gateway_pods[0], spec.gateway_rack),
                              usec(600), usec(100)))

    def outcome(cls):
        scheme = cls(total_cache_slots=96)
        network = build_network(spec, scheme, 24, seed=5, fidelity=fidelity)
        outages.apply(network)
        result = run_flows(network, flows, trace_name="mix")
        caches = {switch_id: ([getattr(cache.stats, name)
                               for name in cache.stats.__slots__],
                              cache.entries())
                  for switch_id, cache in scheme.caches.items()}
        return (dataclasses.asdict(result), caches), scheme

    in_place, _ = outcome(scheme_class)
    rebuilt, reference = outcome(reference_class)
    assert reference.wiped > 0, "no outage hit a warm cache"
    assert in_place == rebuilt
