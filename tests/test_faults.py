"""Fault-injection subsystem tests: schedules, firing, and resilience.

Covers the :mod:`repro.faults` schedule (builders, validation, locator
resolution, event firing), the failure/recovery semantics it drives
(cache flush on switch restart, link cut and random loss, gateway
crash + hypervisor failover), and the :mod:`repro.metrics.resilience`
phase accounting used by the chaos experiment.
"""

import pytest

from repro.baselines import NoCache, OnDemand
from repro.core import SwitchV2P
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.metrics.resilience import ResilienceProbe, _split
from repro.metrics.timeline import Sample
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig

from conftest import small_network, tiny_spec


def steady_flows(count=8, dst=5, span_ns=usec(200)):
    return [FlowSpec(src_vip=0, dst_vip=dst, size_bytes=5_000,
                     start_ns=i * span_ns) for i in range(count)]


# ----------------------------------------------------------------------
# schedule construction and introspection
# ----------------------------------------------------------------------
def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1, FaultKind.SWITCH_FAIL, ("spine", 0, 0))
    with pytest.raises(ValueError):
        FaultEvent(0, FaultKind.LINK_LOSS, ("link", ("tor", 0, 0),
                                            ("spine", 0, 0)), loss_rate=1.5)
    with pytest.raises(ValueError):
        FaultSchedule().fail_switch(0, "leaf", (0, 0))


def test_schedule_window_introspection():
    schedule = (FaultSchedule()
                .gateway_outage(0, msec(2), msec(3))
                .switch_outage("spine", (0, 1), msec(4), msec(2)))
    assert schedule.has_gateway_events()
    assert schedule.first_fault_ns() == msec(2)
    assert schedule.last_recovery_ns() == msec(6)
    assert not FaultSchedule().has_gateway_events()
    assert FaultSchedule().first_fault_ns() is None
    assert FaultSchedule().last_recovery_ns() is None


def test_a_zero_rate_link_loss_is_the_heal():
    """A link-loss episode opens at its nonzero rate and heals at rate
    0, as the same episode built with ``degrade_link`` does."""
    a, b = ("tor", 0, 0), ("spine", 0, 0)
    lossy = (FaultSchedule().link_loss(1000, a, b, 0.2)
             .link_loss(5000, a, b, 0.0))
    degraded = (FaultSchedule().degrade_link(1000, a, b, 0.2)
                .degrade_link(5000, a, b))
    for schedule in (lossy, degraded):
        assert schedule.first_fault_ns() == 1000
        assert schedule.last_recovery_ns() == 5000
    # An earlier switch outage no longer hides the loss episode's heal.
    lossy.switch_outage("spine", (0, 1), 0, 500)
    assert lossy.first_fault_ns() == 0
    assert lossy.last_recovery_ns() == 5000
    # The heal alone opens no fault window.
    assert FaultSchedule().link_loss(5000, a, b, 0.0).first_fault_ns() is None


def test_builders_are_fluent_and_ordered():
    schedule = (FaultSchedule()
                .link_outage(("tor", 0, 0), ("spine", 0, 0), msec(1), msec(1))
                .link_loss(msec(3), ("tor", 0, 0), ("spine", 0, 0), 0.25))
    kinds = [event.kind for event in schedule.events]
    assert kinds == [FaultKind.LINK_DOWN, FaultKind.LINK_UP,
                     FaultKind.LINK_LOSS]


# ----------------------------------------------------------------------
# event firing against a live network
# ----------------------------------------------------------------------
def test_switch_outage_fires_and_recovers():
    network = small_network(NoCache(), num_vms=8)
    spine = network.fabric.spines[(0, 1)]
    schedule = FaultSchedule().switch_outage("spine", (0, 1),
                                             msec(1), msec(2))
    schedule.apply(network)
    network.engine.run(until=msec(2))
    assert spine.failed
    network.engine.run(until=msec(4))
    assert not spine.failed
    assert len(schedule.fired) == 2
    assert "switch-fail" in schedule.fired[0][1]
    assert "switch-recover" in schedule.fired[1][1]


def test_switch_recovery_flushes_cache():
    """A recovered switch re-warms from scratch (cold SRAM restart)."""
    scheme = SwitchV2P(total_cache_slots=200)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows(steady_flows(4))
    network.engine.run(until=msec(5))
    warm = [switch for switch in network.fabric.switches
            if scheme.cache_of(switch) is not None
            and scheme.cache_of(switch).occupancy() > 0]
    assert warm, "traffic should have warmed some caches"
    victim = warm[0]
    FaultSchedule().switch_outage(
        victim.layer.name.lower(), _coords(network, victim),
        network.engine.now + usec(1), usec(10)).apply(network)
    network.engine.run(until=network.engine.now + usec(20))
    assert not victim.failed
    assert scheme.cache_of(victim).occupancy() == 0


def _coords(network, switch):
    """Locator coordinates of ``switch`` in its fabric."""
    fabric = network.fabric
    for key, candidate in fabric.tors.items():
        if candidate is switch:
            return key
    for key, candidate in fabric.spines.items():
        if candidate is switch:
            return key
    for index, candidate in enumerate(fabric.cores):
        if candidate is switch:
            return index
    raise AssertionError(f"{switch.name} not in fabric")


def test_link_outage_cuts_both_directions_then_restores():
    network = small_network(NoCache(), num_vms=8)
    tor = network.fabric.tors[(0, 0)]
    spine = network.fabric.spines[(0, 0)]
    up_link = network.fabric.link_between(tor, spine)
    down_link = network.fabric.link_between(spine, tor)
    schedule = FaultSchedule().link_outage(("tor", 0, 0), ("spine", 0, 0),
                                           msec(1), msec(2))
    schedule.apply(network)
    player = TrafficPlayer(network)
    records = player.add_flows(steady_flows(8))
    network.engine.run(until=msec(2))
    assert not up_link.up and not down_link.up
    network.run(until=msec(30))
    assert up_link.up and down_link.up
    # The sibling spine carried the traffic through the cut.
    assert all(record.completed for record in records)


def test_link_loss_drops_packets_reproducibly():
    def lost_with_seed(seed):
        network = small_network(NoCache(), num_vms=8, seed=seed)
        FaultSchedule().link_loss(0, ("tor", 0, 0), ("spine", 0, 0),
                                  0.5).apply(network)
        player = TrafficPlayer(network)
        player.add_flows(steady_flows(8))
        network.run(until=msec(40))
        up = network.fabric.link_between(network.fabric.tors[(0, 0)],
                                         network.fabric.spines[(0, 0)])
        down = network.fabric.link_between(network.fabric.spines[(0, 0)],
                                           network.fabric.tors[(0, 0)])
        return up.stats.lost + down.stats.lost

    lost = lost_with_seed(0)
    assert lost > 0
    assert lost == lost_with_seed(0)


def test_unknown_locator_raises():
    network = small_network(NoCache(), num_vms=8)
    schedule = FaultSchedule()
    schedule.add(FaultEvent(0, FaultKind.SWITCH_FAIL, ("leaf", 0, 0)))
    schedule.apply(network)
    with pytest.raises(ValueError):
        network.engine.run(until=msec(1))


# ----------------------------------------------------------------------
# gray failures: degraded, not dead
# ----------------------------------------------------------------------
def test_gray_event_validation():
    with pytest.raises(ValueError):  # a flap needs a period and a count
        FaultEvent(0, FaultKind.LINK_FLAP,
                   ("link", ("tor", 0, 0), ("spine", 0, 0)))
    with pytest.raises(ValueError):  # PIPs are 64-bit at most
        FaultSchedule().flip_cache_bit(0, "tor", (0, 0), entry=0, bit=64)
    with pytest.raises(ValueError):  # brownout shed rate is a probability
        FaultSchedule().brownout_gateway(0, 0, drop_rate=1.5)
    with pytest.raises(ValueError):  # degradation never speeds a link up
        FaultEvent(0, FaultKind.LINK_DEGRADE,
                   ("link", ("tor", 0, 0), ("spine", 0, 0)),
                   loss_rate=0.1, extra_ns=-1)


def test_link_degradation_inflates_then_heals():
    network = small_network(NoCache(), num_vms=8)
    tor = network.fabric.tors[(0, 0)]
    spine = network.fabric.spines[(0, 0)]
    up = network.fabric.link_between(tor, spine)
    down = network.fabric.link_between(spine, tor)
    base_ns = up.propagation_ns
    schedule = FaultSchedule().link_degradation(
        ("tor", 0, 0), ("spine", 0, 0), msec(1), msec(2), 0.25, usec(5))
    schedule.apply(network)
    network.engine.run(until=msec(2))
    assert up.loss_rate == 0.25 and down.loss_rate == 0.25
    assert up.propagation_ns == base_ns + usec(5)
    assert up.up and down.up  # degraded, not cut
    network.engine.run(until=msec(4))
    assert up.loss_rate == 0.0 and down.loss_rate == 0.0
    assert up.propagation_ns == base_ns
    assert any("link-degrade" in label for _, label in schedule.fired)


def test_link_flap_cycles_and_ends_up():
    network = small_network(NoCache(), num_vms=8)
    tor = network.fabric.tors[(0, 0)]
    spine = network.fabric.spines[(0, 0)]
    up = network.fabric.link_between(tor, spine)
    down = network.fabric.link_between(spine, tor)
    schedule = FaultSchedule().flap_link(
        msec(1), ("tor", 0, 0), ("spine", 0, 0),
        period_ns=usec(100), count=2)
    schedule.apply(network)
    # Half-cycles: down at 1ms, up at 1.1ms, down at 1.2ms, up at 1.3ms.
    network.engine.run(until=msec(1) + usec(50))
    assert not up.up and not down.up
    network.engine.run(until=msec(1) + usec(150))
    assert up.up and down.up
    network.engine.run(until=msec(1) + usec(250))
    assert not up.up and not down.up
    network.engine.run(until=msec(2))
    assert up.up and down.up  # a flap is self-healing by construction
    assert schedule.last_recovery_ns() == msec(1) + 3 * usec(100)


def test_switch_slowdown_applies_then_heals():
    network = small_network(NoCache(), num_vms=8)
    spine = network.fabric.spines[(0, 0)]
    schedule = FaultSchedule().switch_slowdown(
        "spine", (0, 0), msec(1), msec(1), usec(10))
    schedule.apply(network)
    network.engine.run(until=msec(1) + usec(1))
    assert spine._slow_ns == usec(10)
    assert not spine.failed  # slow, not dead: caches keep serving
    network.engine.run(until=msec(3))
    assert spine._slow_ns == 0


def test_gateway_brownout_sheds_reproducibly_then_heals():
    def brownout_drops(seed):
        network = small_network(NoCache(), num_vms=8, seed=seed)
        gateway = network.gateways[0]
        schedule = FaultSchedule().gateway_brownout(
            0, msec(1), msec(6), drop_rate=0.5, extra_ns=usec(20))
        schedule.apply(network)
        player = TrafficPlayer(network)
        records = player.add_flows(steady_flows(12, span_ns=usec(500)))
        network.run(until=msec(40))
        # Healed after the window; shed arrivals were retransmitted.
        assert gateway.brownout_drop_rate == 0.0
        assert gateway.brownout_extra_ns == 0
        assert all(record.completed for record in records)
        assert network.collector.gateway_brownout_drops \
            == gateway.dropped_brownout
        return gateway.dropped_brownout

    drops = brownout_drops(0)
    assert drops > 0
    assert drops == brownout_drops(0)  # named-stream RNG: reproducible


def test_brownout_with_positive_rate_requires_rng():
    network = small_network(NoCache(), num_vms=8)
    with pytest.raises(ValueError):
        network.gateways[0].set_brownout(0.5, 0, None)


def test_cache_bitflip_corrupts_live_line_and_logs():
    scheme = SwitchV2P(total_cache_slots=400)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows(steady_flows(4))
    network.run(until=msec(5))
    victim = next(switch for switch in network.fabric.switches
                  if scheme.cache_of(switch) is not None
                  and scheme.cache_of(switch).occupancy() > 0)
    cache = scheme.cache_of(victim)
    schedule = FaultSchedule().flip_cache_bit(
        network.engine.now + usec(1), victim.layer.name.lower(),
        _coords(network, victim), entry=0, bit=3)
    schedule.apply(network)
    network.engine.run(until=network.engine.now + usec(2))
    assert len(schedule.corruptions) == 1
    switch_id, vip, old_pip, new_pip = schedule.corruptions[0]
    assert switch_id == victim.switch_id
    assert new_pip == old_pip ^ (1 << 3)
    assert cache.peek(vip) == new_pip  # the line now serves the bad PIP


def test_cache_bitflip_without_corruptible_line_is_logged_noop():
    # NoCache has no switch caches at all; the event must not crash.
    network = small_network(NoCache(), num_vms=8)
    schedule = FaultSchedule().flip_cache_bit(usec(10), "tor", (0, 0))
    schedule.apply(network)
    network.engine.run(until=usec(20))
    assert schedule.corruptions == []
    assert any("skipped" in label for _, label in schedule.fired)
    # A cold (empty) cache is equally a logged no-op.
    cold = small_network(SwitchV2P(total_cache_slots=400), num_vms=8)
    schedule2 = FaultSchedule().flip_cache_bit(usec(10), "tor", (0, 0))
    schedule2.apply(cold)
    cold.engine.run(until=usec(20))
    assert schedule2.corruptions == []
    assert any("skipped" in label for _, label in schedule2.fired)


# ----------------------------------------------------------------------
# gateway faults and hypervisor failover
# ----------------------------------------------------------------------
def test_gateway_events_enable_failover_detector():
    network = small_network(NoCache(), num_vms=8)
    assert network.failure_detector is None
    FaultSchedule().gateway_outage(0, msec(1), msec(1)).apply(network)
    assert network.failure_detector is not None
    # Switch-only schedules leave the detector off.
    other = small_network(NoCache(), num_vms=8)
    FaultSchedule().switch_outage("spine", (0, 0), msec(1), msec(1)) \
        .apply(other)
    assert other.failure_detector is None


def test_gateway_failover_to_survivor():
    """With a live sibling, flows ride out one gateway's crash."""
    spec = tiny_spec(gateway_pods=(0, 1))
    network = small_network(NoCache(), num_vms=8, spec=spec)
    assert len(network.gateways) == 2
    FaultSchedule().crash_gateway(msec(1), 0).apply(network)
    player = TrafficPlayer(network)
    records = player.add_flows(steady_flows(12, span_ns=usec(300)))
    network.run(until=msec(40))
    assert network.gateway_failovers >= 1
    assert all(record.completed for record in records)


def test_total_gateway_outage_hard_drops():
    """No survivor: unresolved packets are dropped and counted."""
    network = small_network(NoCache(), num_vms=8)
    assert len(network.gateways) == 1
    FaultSchedule().crash_gateway(0, 0).apply(network)
    player = TrafficPlayer(network, TransportConfig(max_retransmits=2))
    records = player.add_flows(steady_flows(4))
    network.run(until=msec(40))
    drops = (sum(host.unroutable_drops for host in network.hosts)
             + network.gateways[0].dropped_while_failed)
    assert drops > 0
    assert not any(record.completed for record in records)
    assert network.collector.availability == 0.0


def test_transport_gives_up_after_max_retransmits():
    network = small_network(NoCache(), num_vms=8)
    network.gateways[0].fail()
    player = TrafficPlayer(network, TransportConfig(max_retransmits=3))
    records = player.add_flows(steady_flows(2))
    network.run(until=msec(200))
    assert all(record.failed for record in records)
    assert all(record.retransmissions >= 3 for record in records)
    assert len(network.collector.failed_flows()) == len(records)
    # Give-ups are explicit terminal states: reason recorded, nothing
    # left dangling (the chaos liveness oracle depends on both).
    assert all(record.failure_reason == "max-retransmits"
               for record in records)
    assert network.collector.unterminated_flows() == []


def test_unterminated_flows_tracks_open_work():
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    records = player.add_flows(steady_flows(1, span_ns=0))
    network.run(until=usec(1))  # cut the run mid-flow
    assert network.collector.unterminated_flows() == records
    network.run(until=msec(40))
    assert records[0].completed
    assert network.collector.unterminated_flows() == []


def test_detector_reinstates_recovery_at_backoff_ceiling():
    """A gateway that recovers while probes sit at the backoff ceiling
    is reinstated within one ceiling-length probe period."""
    network = small_network(NoCache(), num_vms=8)
    detector = network.enable_gateway_failover(
        probe_interval_ns=usec(100), backoff_base_ns=usec(100),
        max_backoff_ns=usec(400), miss_threshold=2)
    gateway = network.gateways[0]
    network.engine.schedule(usec(50), gateway.fail)
    # Probes at 100, 200 (detection), 400, 800, then every 400 (ceiling).
    network.run(until=usec(2_000))
    assert detector.detections == 1
    assert gateway not in network.live_gateways
    assert detector._misses[gateway.pip] >= detector.miss_threshold
    network.engine.schedule(usec(2_100), gateway.recover)
    network.run(until=usec(2_100) + usec(400))
    assert detector.reinstatements == 1
    assert gateway in network.live_gateways
    assert detector._misses[gateway.pip] == 0


def test_detector_survives_crash_restart_crash_between_probes():
    """Flapping faster than the probe period must not wedge the loop."""
    network = small_network(NoCache(), num_vms=8)
    detector = network.enable_gateway_failover(
        probe_interval_ns=usec(200), backoff_base_ns=usec(100),
        max_backoff_ns=usec(400), miss_threshold=2)
    gateway = network.gateways[0]
    # All three transitions land inside the first probe interval.
    network.engine.schedule(usec(10), gateway.fail)
    network.engine.schedule(usec(20), gateway.recover)
    network.engine.schedule(usec(30), gateway.fail)
    network.run(until=msec(3))
    # The probe loop saw only "failed": detection happened exactly once.
    assert detector.detections == 1
    assert detector.reinstatements == 0
    assert gateway not in network.live_gateways
    # A later recovery is still picked up — the detector never wedged.
    probes_before = detector.probes_sent
    network.engine.schedule(msec(3) + usec(10), gateway.recover)
    network.run(until=msec(4))
    assert detector.probes_sent > probes_before
    assert detector.reinstatements == 1
    assert gateway in network.live_gateways


def test_detector_ignores_blip_shorter_than_a_probe():
    """A crash healed before any probe fires is never failed over."""
    network = small_network(NoCache(), num_vms=8)
    detector = network.enable_gateway_failover(
        probe_interval_ns=usec(200), miss_threshold=2)
    gateway = network.gateways[0]
    network.engine.schedule(usec(10), gateway.fail)
    network.engine.schedule(usec(20), gateway.recover)
    network.run(until=msec(2))
    assert detector.detections == 0
    assert detector.reinstatements == 0
    assert gateway in network.live_gateways


def test_ondemand_install_requires_live_gateway():
    scheme = OnDemand()
    network = small_network(scheme, num_vms=8)
    network.gateways[0].fail()
    player = TrafficPlayer(network, TransportConfig(max_retransmits=2))
    player.add_flows(steady_flows(2))
    network.run(until=msec(20))
    assert scheme.host_cache_installs == 0


# ----------------------------------------------------------------------
# resilience metrics
# ----------------------------------------------------------------------
def test_split_partitions_around_fault_window():
    samples = [Sample(time_ns=t, value=float(t)) for t in range(10)]
    before, during, after = _split(samples, 3, 6)
    assert [s.time_ns for s in before] == [0, 1, 2]
    assert [s.time_ns for s in during] == [3, 4, 5, 6]
    assert [s.time_ns for s in after] == [7, 8, 9]
    # No faults: everything is "before".
    before, during, after = _split(samples, None, None)
    assert len(before) == 10 and not during and not after


def test_probe_without_schedule_puts_all_samples_before():
    network = small_network(SwitchV2P(total_cache_slots=200), num_vms=8)
    probe = ResilienceProbe(network, usec(250))
    player = TrafficPlayer(network)
    player.add_flows(steady_flows(8))
    network.run(until=msec(5))
    summary = probe.summarize(None)
    assert summary.before.samples > 0
    assert summary.during.samples == 0
    assert summary.after.samples == 0
    assert summary.time_to_recover_ns is None
    assert summary.availability == 1.0


def test_probe_measures_recovery_after_outage():
    scheme = SwitchV2P(total_cache_slots=400)
    network = small_network(scheme, num_vms=8)
    probe = ResilienceProbe(network, usec(100))
    schedule = FaultSchedule().switch_outage("spine", (0, 0),
                                             msec(2), msec(1))
    schedule.apply(network)
    player = TrafficPlayer(network)
    player.add_flows(steady_flows(60, span_ns=usec(100)))
    network.run(until=msec(10))
    summary = probe.summarize(schedule)
    assert summary.before.samples > 0
    assert summary.during.samples > 0
    assert summary.after.samples > 0
    # Steady traffic keeps the hit rate warm, so it recovers quickly.
    assert summary.time_to_recover_ns is not None
    assert summary.hit_rate_dip >= 0.0


# ----------------------------------------------------------------------
# chaos experiment plumbing
# ----------------------------------------------------------------------
def test_chaos_experiment_is_deterministic():
    """A faulted chaos job run twice in one process: the fault schedule,
    failover probes and memo flushes leave no state behind that the
    second run could see."""
    from dataclasses import replace

    from repro.experiments.faults import ChaosParams, chaos_jobs

    params = replace(ChaosParams(), num_flows=120, horizon_ns=msec(12),
                     schemes=("SwitchV2P",))
    job = chaos_jobs(params)["SwitchV2P", "faulted"]
    first, second = (job.run(cache=None) for _ in range(2))
    assert first.avg_fct_ns == second.avg_fct_ns
    assert first.resilience.availability == second.resilience.availability
    assert first.resilience.during.mean_hit_rate == \
        second.resilience.during.mean_hit_rate
    assert first.resilience.gateway_failovers == \
        second.resilience.gateway_failovers
