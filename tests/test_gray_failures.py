"""Self-healing mapping plane tests: gray detection, audit, staleness.

Covers the gray (EWMA) half of the gateway failure detector — brownout
detection, hysteresis reinstatement, dwell gating against flapping —
the :class:`repro.core.AntiEntropyAuditor` cache-vs-database sweep, the
``corrupt_entry`` fault-injection contract of both cache classes, and
the bounded-staleness runtime oracle end to end.
"""

import pytest

from repro.baselines import NoCache
from repro.cache import SwitchCache
from repro.core import AntiEntropyAuditor, SwitchV2P
from repro.faults import FaultSchedule, OracleSuite
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def steady_flows(count=8, dst=5, span_ns=usec(200)):
    return [FlowSpec(src_vip=0, dst_vip=dst, size_bytes=5_000,
                     start_ns=i * span_ns) for i in range(count)]


# ----------------------------------------------------------------------
# gray (EWMA) gateway detection
# ----------------------------------------------------------------------
def _gray_network(**detector_kwargs):
    network = small_network(NoCache(), num_vms=8)
    detector_kwargs.setdefault("probe_interval_ns", usec(100))
    detector = network.enable_gateway_failover(**detector_kwargs)
    return network, network.gateways[0], detector


def test_gray_detector_fails_out_browned_gateway():
    network, gateway, detector = _gray_network(gray_loss_threshold=0.2)
    network.engine.schedule(usec(50), network.set_gateway_brownout,
                            gateway, 0.6, 0)
    network.run(until=msec(1))
    # The gateway never crashed, so the binary detector saw nothing;
    # only the shed-rate EWMA failed it out of the pool.
    assert detector.detections == 0
    assert detector.gray_detections == 1
    assert gateway not in network.live_gateways
    # Heal the brownout: the EWMA decays below half the threshold and
    # (dwell 0) the gateway is reinstated.
    network.engine.schedule(msec(1) + usec(10), network.set_gateway_brownout,
                            gateway, 0.0, 0)
    network.run(until=msec(3))
    assert detector.gray_reinstatements == 1
    assert gateway in network.live_gateways


def test_gray_detector_latency_threshold():
    network, gateway, detector = _gray_network(
        gray_latency_threshold_ns=gateway_latency_threshold())
    network.engine.schedule(usec(50), network.set_gateway_brownout,
                            gateway, 0.0, usec(300))
    network.run(until=msec(1))
    assert detector.gray_detections == 1
    assert gateway not in network.live_gateways
    network.engine.schedule(msec(1) + usec(10), network.set_gateway_brownout,
                            gateway, 0.0, 0)
    network.run(until=msec(3))
    assert detector.gray_reinstatements == 1
    assert gateway in network.live_gateways


def gateway_latency_threshold():
    """Threshold above the healthy 40us service time, below 40+300us."""
    return usec(140)


def test_gray_reinstatement_waits_for_dwell():
    network, gateway, detector = _gray_network(
        gray_loss_threshold=0.2, reinstate_dwell_ns=msec(1))
    network.engine.schedule(usec(50), network.set_gateway_brownout,
                            gateway, 0.6, 0)
    network.engine.schedule(msec(1), network.set_gateway_brownout,
                            gateway, 0.0, 0)
    # By 2 ms the EWMA is long below half the threshold, but the dwell
    # clock (1 ms since the last over-threshold sample) has not run out.
    network.run(until=msec(2))
    assert detector.gray_detections == 1
    assert detector.gray_reinstatements == 0
    assert gateway not in network.live_gateways
    network.run(until=msec(4))
    assert detector.gray_reinstatements == 1
    assert gateway in network.live_gateways


def test_gray_flapping_gateway_does_not_thrash_pool():
    """A brownout oscillating faster than the EWMA can clear must fail
    the gateway out exactly once and never bounce it back mid-flap."""
    network, gateway, detector = _gray_network(
        gray_loss_threshold=0.2, reinstate_dwell_ns=msec(1))
    # Toggle the brownout every 150us for 3ms: 10 on/off cycles.
    for cycle in range(10):
        network.engine.schedule(usec(50) + cycle * usec(300),
                                network.set_gateway_brownout, gateway, 0.6, 0)
        network.engine.schedule(usec(200) + cycle * usec(300),
                                network.set_gateway_brownout, gateway, 0.0, 0)
    network.run(until=usec(50) + 10 * usec(300))
    assert detector.gray_detections == 1
    assert detector.gray_reinstatements == 0
    assert gateway not in network.live_gateways
    # Sustained health after the flapping: reinstated exactly once.
    network.run(until=msec(6))
    assert detector.gray_reinstatements == 1
    assert gateway in network.live_gateways


def test_binary_dwell_blocks_flap_miss_resets():
    """Regression: a gateway crash-flapping faster than the miss
    threshold accumulates must still be detected when the dwell stops
    healthy probes from resetting the miss count."""
    def run_flaps(dwell_ns):
        network = small_network(NoCache(), num_vms=8)
        detector = network.enable_gateway_failover(
            probe_interval_ns=usec(100), backoff_base_ns=usec(100),
            miss_threshold=3, reinstate_dwell_ns=dwell_ns)
        gateway = network.gateways[0]
        # Down 300us, up 100us, repeatedly: a healthy probe always
        # lands before three consecutive misses accumulate.
        for cycle in range(5):
            network.engine.schedule(usec(50) + cycle * usec(400),
                                    gateway.fail)
            network.engine.schedule(usec(350) + cycle * usec(400),
                                    gateway.recover)
        network.run(until=msec(2))
        return network, detector, gateway

    network, detector, gateway = run_flaps(dwell_ns=msec(1))
    assert detector.detections == 1
    assert gateway not in network.live_gateways
    # Without the dwell, every brief recovery resets the miss count and
    # the flapping gateway is never failed over — the thrash this
    # hysteresis exists to prevent.
    _, blind, _ = run_flaps(dwell_ns=0)
    assert blind.detections == 0
    # After the flapping stops for good, the dwell detector reinstates.
    network.engine.schedule(network.engine.now + usec(10), gateway.recover)
    network.run(until=msec(5))
    assert detector.reinstatements == 1
    assert gateway in network.live_gateways


def test_detector_gray_kwargs_validated():
    network = small_network(NoCache(), num_vms=8)
    with pytest.raises(ValueError):
        network.enable_gateway_failover(gray_loss_threshold=1.5)
    other = small_network(NoCache(), num_vms=8)
    with pytest.raises(ValueError):
        other.enable_gateway_failover(reinstate_dwell_ns=-1)
    third = small_network(NoCache(), num_vms=8)
    with pytest.raises(ValueError):
        third.enable_gateway_failover(ewma_alpha=0.0)


# ----------------------------------------------------------------------
# corrupt_entry: the fault-injection contract of both cache classes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_cache", [
    lambda: SwitchCache(64),
    lambda: SwitchCache(64, ways=4),
], ids=["direct-mapped", "set-associative"])
def test_corrupt_entry_contract(make_cache):
    cache = make_cache()
    assert cache.corrupt_entry(0, 5) is None  # empty: logged no-op
    cache.insert(3, 0b1000)
    vip, old_pip, new_pip = cache.corrupt_entry(0, 1)
    assert (vip, old_pip, new_pip) == (3, 0b1000, 0b1010)
    assert cache.peek(3) == new_pip
    # The ordinal wraps modulo occupancy, so any schedule stays valid.
    vip2, old2, new2 = cache.corrupt_entry(7, 1)
    assert vip2 == 3 and old2 == new_pip and new2 == old_pip


@pytest.mark.parametrize("make_cache", [
    lambda: SwitchCache(64),
    lambda: SwitchCache(64, ways=4),
], ids=["direct-mapped", "set-associative"])
def test_corrupt_entry_fires_mutation_observer(make_cache):
    cache = make_cache()
    cache.insert(3, 99)
    fired = []
    cache.on_mutate = lambda: fired.append(True)
    cache.corrupt_entry(0, 0)
    assert fired  # the hybrid engine must see silent state changes


# ----------------------------------------------------------------------
# anti-entropy audit
# ----------------------------------------------------------------------
def _warm_network():
    scheme = SwitchV2P(total_cache_slots=400)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows(steady_flows(4))
    network.run(until=msec(5))
    victim = next(switch for switch in network.fabric.switches
                  if scheme.cache_of(switch) is not None
                  and scheme.cache_of(switch).occupancy() > 0)
    return network, scheme, victim


def test_audit_once_repairs_only_divergent_entries():
    network, scheme, victim = _warm_network()
    cache = scheme.cache_of(victim)
    auditor = AntiEntropyAuditor(network, usec(500))
    assert auditor.audit_once() == 0  # coherent caches: nothing to do
    vip, _old, bad_pip = cache.corrupt_entry(0, 20)
    assert auditor.audit_once() == 1
    assert cache.peek(vip) != bad_pip  # invalidated, not resurrected
    assert auditor.repairs == 1
    assert auditor.entries_checked > 0


def test_periodic_audit_repairs_within_one_period():
    network, scheme, victim = _warm_network()
    cache = scheme.cache_of(victim)
    auditor = network.enable_anti_entropy(usec(500),
                                          staleness_bound_ns=usec(500))
    vip, _old, bad_pip = cache.corrupt_entry(0, 20)
    network.engine.run(until=network.engine.now + usec(600))
    assert auditor.sweeps >= 1
    assert auditor.repairs >= 1
    assert cache.peek(vip) != bad_pip
    # Idempotent: a second enable returns the running auditor.
    assert network.enable_anti_entropy(usec(500)) is auditor


def test_audit_validation_and_stop():
    network, _scheme, _victim = _warm_network()
    with pytest.raises(ValueError):
        AntiEntropyAuditor(network, 0)
    with pytest.raises(ValueError):
        # A sweep cannot promise a bound tighter than its own period.
        AntiEntropyAuditor(network, usec(500), staleness_bound_ns=usec(100))
    auditor = AntiEntropyAuditor(network, usec(500))
    auditor.start()
    auditor.stop()
    sweeps = auditor.sweeps
    network.engine.run(until=network.engine.now + msec(2))
    assert auditor.sweeps == sweeps  # stopped means stopped


# ----------------------------------------------------------------------
# the bounded-staleness oracle end to end
# ----------------------------------------------------------------------
def _staleness_run(with_audit):
    scheme = SwitchV2P(total_cache_slots=400)
    network = small_network(scheme, num_vms=8)
    suite = OracleSuite(network)
    player = TrafficPlayer(network)
    player.add_flows(steady_flows(4))
    # Corrupt a warmed ToR line at 4ms; nothing in the schedule ever
    # heals it, so only the audit can.  Bit 20 lands in the rack field,
    # making the PIP point at a nonexistent rack.
    schedule = FaultSchedule().flip_cache_bit(msec(4), "tor", (0, 0),
                                              entry=0, bit=20)
    schedule.apply(network)
    suite.watch_schedule(schedule)
    if with_audit:
        network.enable_anti_entropy(usec(500), staleness_bound_ns=msec(1))
    suite.configure_staleness(msec(1), audit_period_ns=usec(500),
                              check_interval_ns=usec(250))
    network.run(until=msec(8))
    suite.finish(msec(8))
    assert schedule.corruptions, "the flip must have hit a live line"
    return suite.violations


def test_staleness_oracle_trips_without_audit():
    violations = _staleness_run(with_audit=False)
    assert any(v.oracle == "bounded-staleness" for v in violations)
    # The injected corruption itself is exempt from the coherence
    # oracle (it is in schedule.corruptions); only its persistence
    # past the bound is a violation.
    assert not any(v.oracle == "cache-coherence" for v in violations)


def test_staleness_oracle_clean_with_audit():
    assert _staleness_run(with_audit=True) == []


def test_gray_experiment_rejects_a_scheme_list(capsys):
    """Every gray run is SwitchV2P: a scheme list would do nothing, so
    ``reproduce`` exits 2 naming the flag no run reads."""
    from repro.cli import main
    with pytest.raises(SystemExit) as exit_:
        main(["reproduce", "gray_degradation", "--schemes", "GwCache"])
    assert exit_.value.code == 2
    assert ("--schemes: no run of gray_degradation reads "
            "ChaosParams.schemes") in capsys.readouterr().err
