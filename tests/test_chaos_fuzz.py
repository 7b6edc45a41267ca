"""Chaos-fuzzer tests: schedule generation, oracles, shrinking, replay.

Covers the randomized :func:`repro.faults.fuzz.generate_schedule`
sampler (determinism, recovery pairing), the
:class:`repro.faults.oracles.OracleSuite` runtime invariants, the ddmin
shrinker, and the end-to-end ``python -m repro chaos`` pipeline:
injected bug -> tripped oracle -> minimal schedule -> ``run_one_trial``
on it re-trips the same oracle.
"""

import pytest

from repro.baselines import NoCache
from repro.core import SwitchV2P
from repro.experiments import runner
from repro.experiments.chaosfuzz import (
    BUGS,
    ChaosFuzzParams,
    fuzz_flows,
    gray_chaos_params,
    run_chaos_fuzz,
    run_one_trial,
)
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import chaos_spec
from repro.faults import (
    FaultKind,
    FaultSchedule,
    FuzzConfig,
    OracleSuite,
    ddmin,
    generate_schedule,
)
from repro.faults.fuzz import gray_fuzz_config
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import msec, usec
from repro.sim.randomness import derive_seed
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig

from conftest import small_network, tiny_spec

#: Reduced workload so a trial (and the shrinker's dozens of re-runs)
#: stays fast; the chaos_spec topology itself is fixed.
SMALL_PARAMS = ChaosFuzzParams(num_vms=16, num_flows=24)

#: Recovery event kinds (a LINK_LOSS with rate 0 also clears a fault).
_RECOVERY_KINDS = (FaultKind.SWITCH_RECOVER, FaultKind.LINK_UP,
                   FaultKind.GATEWAY_RESTART)


# ----------------------------------------------------------------------
# schedule introspection
# ----------------------------------------------------------------------
def test_the_trial_horizon_counts_migrations():
    """A trial runs a grace period past its last event of any kind, a
    migration included, though a migration is no recovery."""
    schedule = (FaultSchedule()
                .switch_outage("core", 0, usec(10), usec(20))
                .migrate_vm(msec(9), vip=0, pod=0, rack=0, host_index=0))
    params = ChaosFuzzParams()
    grace_ns = params.horizon_ns(()) - params.arrival_span_ns
    assert params.horizon_ns(schedule.events) == msec(9) + grace_ns
    assert schedule.last_recovery_ns() == usec(30)


# ----------------------------------------------------------------------
# VM_MIGRATE events
# ----------------------------------------------------------------------
def test_vm_migrate_event_fires():
    network = small_network(NoCache(), num_vms=8)
    old_host = network.host_of(0)
    target = next(h for h in network.hosts if h is not old_host)
    from repro.net.addresses import pip_host, pip_pod, pip_rack
    schedule = FaultSchedule().migrate_vm(
        usec(10), vip=0, pod=pip_pod(target.pip), rack=pip_rack(target.pip),
        host_index=pip_host(target.pip))
    schedule.apply(network)
    network.run(until=usec(50))
    assert network.host_of(0) is target
    assert 0 in old_host.follow_me
    assert any("vm-migrate" in label for _, label in schedule.fired)


def test_vm_migrate_unknown_target_is_logged_noop():
    network = small_network(NoCache(), num_vms=8)
    before = {vip: network.database.get(vip) for vip in range(8)}
    schedule = (FaultSchedule()
                .migrate_vm(usec(10), vip=999, pod=0, rack=0, host_index=0)
                .migrate_vm(usec(20), vip=0, pod=7, rack=9, host_index=9))
    schedule.apply(network)
    network.run(until=usec(50))
    assert {vip: network.database.get(vip) for vip in range(8)} == before
    assert len(schedule.fired) == 2
    assert all("skipped" in label for _, label in schedule.fired)


# ----------------------------------------------------------------------
# the fuzzer
# ----------------------------------------------------------------------
def test_generate_schedule_is_deterministic():
    spec = tiny_spec()
    a = generate_schedule(spec, num_vms=8, seed=7)
    b = generate_schedule(spec, num_vms=8, seed=7)
    assert a.events == b.events
    c = generate_schedule(spec, num_vms=8, seed=8)
    assert c.events != a.events


def test_generate_schedule_events_sorted_and_in_window():
    config = FuzzConfig(mean_events=10)
    schedule = generate_schedule(tiny_spec(), num_vms=8, config=config, seed=3)
    times = [e.at_ns for e in schedule.events]
    assert times == sorted(times)
    faults = [e for e in schedule.events if e.kind not in _RECOVERY_KINDS]
    assert all(0 <= e.at_ns < config.window_ns for e in faults
               if not (e.kind is FaultKind.LINK_LOSS and e.loss_rate == 0.0))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_generate_schedule_ensures_eventual_recovery(seed):
    """With ensure_recovery, no target is left permanently degraded."""
    schedule = generate_schedule(tiny_spec(), num_vms=8,
                                 config=FuzzConfig(mean_events=10), seed=seed)
    by_target = {}
    for event in schedule.events:
        if event.kind is FaultKind.VM_MIGRATE:
            continue  # churn, not a fault: nothing to recover
        by_target.setdefault(event.target, []).append(event)
    for target, events in by_target.items():
        last_ns = max(e.at_ns for e in events)
        healed = [e for e in events if e.at_ns == last_ns
                  and (e.kind in _RECOVERY_KINDS
                       or (e.kind is FaultKind.LINK_LOSS
                           and e.loss_rate == 0.0))]
        assert healed, f"{target} ends degraded: {events}"


def test_generate_schedule_respects_kind_weights():
    config = FuzzConfig(mean_events=12, switch_weight=0.0, link_weight=0.0,
                        loss_weight=0.0, gateway_weight=0.0,
                        migrate_weight=1.0)
    schedule = generate_schedule(tiny_spec(), num_vms=8, config=config, seed=5)
    assert schedule.events
    assert all(e.kind is FaultKind.VM_MIGRATE for e in schedule.events)


def test_gray_fuzz_config_mixes_gray_kinds_deterministically():
    config = gray_fuzz_config(mean_events=24)
    a = generate_schedule(tiny_spec(), num_vms=8, config=config, seed=4)
    b = generate_schedule(tiny_spec(), num_vms=8, config=config, seed=4)
    assert a.events == b.events
    gray = {FaultKind.LINK_DEGRADE, FaultKind.LINK_FLAP,
            FaultKind.SWITCH_SLOW, FaultKind.GATEWAY_BROWNOUT,
            FaultKind.CACHE_BITFLIP}
    assert {e.kind for e in a.events} & gray
    # The stock config never emits gray kinds: existing seeds replay
    # byte-identically.
    stock = generate_schedule(tiny_spec(), num_vms=8,
                              config=FuzzConfig(mean_events=24), seed=4)
    assert not {e.kind for e in stock.events} & gray


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(burstiness=1.5)
    with pytest.raises(ValueError):
        FuzzConfig(min_outage_ns=0)
    with pytest.raises(ValueError):
        FuzzConfig(switch_weight=0, link_weight=0, loss_weight=0,
                   gateway_weight=0, migrate_weight=0)
    with pytest.raises(ValueError):
        FuzzConfig(max_loss_rate=0.01)


def test_fuzz_flows_deterministic_and_never_self_addressed():
    flows_a = fuzz_flows(SMALL_PARAMS, trial_seed=9)
    flows_b = fuzz_flows(SMALL_PARAMS, trial_seed=9)
    assert flows_a == flows_b
    assert len(flows_a) == SMALL_PARAMS.num_flows
    for flow in flows_a:
        assert flow.src_vip != flow.dst_vip
        assert 0 <= flow.dst_vip < SMALL_PARAMS.num_vms
        assert (SMALL_PARAMS.min_flow_bytes <= flow.size_bytes
                <= SMALL_PARAMS.max_flow_bytes)


# ----------------------------------------------------------------------
# ddmin shrinker
# ----------------------------------------------------------------------
def test_ddmin_finds_single_culprit():
    assert ddmin(list(range(16)), lambda s: 11 in s) == [11]


def test_ddmin_finds_interacting_pair():
    result = ddmin(list(range(8)), lambda s: {2, 5} <= set(s))
    assert sorted(result) == [2, 5]


def test_ddmin_rejects_passing_input():
    with pytest.raises(ValueError):
        ddmin([1, 2, 3], lambda s: False)


def test_ddmin_keeps_full_set_when_all_needed():
    items = [1, 2, 3, 4]
    assert sorted(ddmin(items, lambda s: len(s) == 4)) == items


# ----------------------------------------------------------------------
# oracle suite
# ----------------------------------------------------------------------
def test_oracles_clean_on_healthy_run():
    network = small_network(SwitchV2P(200), num_vms=8)
    suite = OracleSuite(network)
    player = TrafficPlayer(network, TransportConfig())
    records = player.add_flows([
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=4_000, start_ns=0),
        FlowSpec(src_vip=2, dst_vip=7, size_bytes=4_000, start_ns=usec(20)),
    ])
    network.run(until=msec(20))
    suite.finish(msec(20))
    assert suite.violations == []
    assert all(r.completed for r in records)


def test_canary_oracle_always_trips():
    network = small_network(NoCache(), num_vms=8)
    suite = OracleSuite(network)
    suite.arm_canary()
    network.run(until=usec(10))
    suite.finish(usec(10))
    assert [v.oracle for v in suite.violations] == ["canary"]
    # finish() is idempotent: a second call must not double-report.
    suite.finish(usec(10))
    assert len(suite.violations) == 1


def test_liveness_oracle_flags_hung_flow():
    network = small_network(NoCache(), num_vms=8)
    suite = OracleSuite(network)
    player = TrafficPlayer(network, TransportConfig())
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=50_000,
                               start_ns=0)])
    # Cut the run mid-flow: the flow is neither completed nor failed.
    network.run(until=usec(5))
    suite.finish(usec(5))
    assert any(v.oracle == "liveness" for v in suite.violations)


def test_terminal_reason_oracle_flags_bare_failure():
    network = small_network(NoCache(), num_vms=8)
    suite = OracleSuite(network)
    from repro.metrics.collector import FlowRecord
    record = FlowRecord(flow_id=1, src_vip=0, dst_vip=5, size_bytes=100,
                        start_ns=0)
    record.failed = True  # no failure_reason: a harness bug
    network.collector.register_flow(record)
    suite.finish(usec(1))
    assert any(v.oracle == "terminal-reason" for v in suite.violations)


def test_structural_oracle_sweeps_after_each_event():
    network = small_network(SwitchV2P(200), num_vms=8)
    suite = OracleSuite(network)
    # Sabotage: the scheme stops flushing SRAM on power cycles, so the
    # post-event sweep must see a failed switch with a warm cache.
    network.scheme.on_switch_reset = lambda switch: None
    cache = network.scheme.cache_of(network.fabric.spines[(0, 0)])
    cache.insert(0, network.database.get(0))
    schedule = FaultSchedule().switch_outage("spine", (0, 0),
                                             usec(10), usec(50))
    schedule.apply(network)
    suite.watch_schedule(schedule)
    network.run(until=usec(100))
    assert any(v.oracle == "structural" and "SRAM" in v.detail
               for v in suite.violations)


def test_violation_cap_bounds_the_report():
    network = small_network(NoCache(), num_vms=8)
    suite = OracleSuite(network, max_violations=3)
    for i in range(10):
        suite._report("canary", i, f"violation {i}")
    assert len(suite.violations) == 3


# ----------------------------------------------------------------------
# the colocated-sender misdelivery corner (regression)
# ----------------------------------------------------------------------
def test_colocated_sender_does_not_loop_after_migration():
    """A sender sharing the migrated VM's old host must not loop.

    The packet's outer source equals the attached server's PIP, so the
    ToR's "came back from the wrong host" source check never fires; the
    in-band carried mapping is the only misdelivery signal.  Before the
    carried-mapping tag fix the stale ToR entry re-rewrote the packet to
    the old host on every pass, bouncing it until the hop bound.
    """
    # 16 VMs round-robin on 8 hosts: vips 0 and 8 share host 0.
    network = small_network(SwitchV2P(400), num_vms=16)
    suite = OracleSuite(network)
    player = TrafficPlayer(network, TransportConfig(max_retransmits=6,
                                                    max_rto_ns=msec(2)))
    old_host = network.host_of(0)
    assert network.host_of(8) is old_host
    # Warm the old host's ToR with vip 0 -> old_host from remote traffic.
    warm = player.add_flows([FlowSpec(src_vip=4, dst_vip=0,
                                      size_bytes=4_000, start_ns=0)])
    network.run(until=msec(3))
    assert warm[0].completed
    # Migrate vip 0 off the shared host, then send from the colocated
    # neighbour: the first packet hits the ToR's now-stale entry.
    target = next(h for h in network.hosts if h is not old_host)
    network.migrate(0, target)
    records = player.add_flows([FlowSpec(src_vip=8, dst_vip=0,
                                         size_bytes=4_000, start_ns=msec(3))])
    network.run(until=msec(20))
    suite.finish(msec(20))
    assert records[0].completed
    assert suite.violations == []


# ----------------------------------------------------------------------
# the two-migration misdelivery-tag loop (regression)
# ----------------------------------------------------------------------
def test_reforward_resets_misdelivery_episode():
    """Regression: each re-forward of a misdelivered packet must start
    a fresh misdelivery episode (tag cleared), otherwise only the first
    bounce triggers a targeted invalidation and a packet chasing a
    twice-migrated VM can ping-pong between two stale locations forever
    (each old host's re-forward is served by a cache holding the
    *other* stale value, which never matches the carried pair)."""
    scheme = SwitchV2P(total_cache_slots=64)
    network = small_network(scheme, num_vms=8)
    host = network.hosts[0]
    packet = Packet(kind=PacketKind.DATA, flow_id=1, seq=0,
                    payload_bytes=100, src_vip=0, dst_vip=5,
                    outer_src=host.pip)
    packet.misdelivery_tag = True
    packet.hit_switch = 3
    scheme.send_misdelivered_via_gateway(host, packet)
    assert packet.misdelivery_tag is False
    assert packet.carried_mapping == (5, host.pip)
    assert not packet.resolved


#: Migrations and nothing else, densely.  With the tag reset removed,
#: trial 16 of ``run_chaos_fuzz(seed=1)`` under this mix is the first
#: to trip ``forwarding-loop`` on SwitchV2P; the stock mix stays clean
#: over 200 trials with or without the reset.
MIGRATIONS_ONLY = ChaosFuzzParams(fuzz=FuzzConfig(
    mean_events=30, switch_weight=0, link_weight=0, loss_weight=0,
    gateway_weight=0, migrate_weight=1))


def _two_migration_trial():
    trial_seed = derive_seed(1, "chaos-trial-16")
    schedule = generate_schedule(chaos_spec(), MIGRATIONS_ONLY.num_vms,
                                 MIGRATIONS_ONLY.fuzz, seed=trial_seed)
    return run_one_trial("SwitchV2P", schedule.events, MIGRATIONS_ONLY,
                         trial_seed, trial=16)


def _scheme_without_tag_reset(*args):
    """The trial's scheme, its re-forward minus ``misdelivery_tag = False``
    (patched on the instance, as the ``BUGS`` injectors do)."""
    scheme = make_scheme(*args)

    def reforward(host, packet):
        packet.carried_mapping = (packet.dst_vip, host.pip)
        scheme.send_via_gateway(packet)
        host.reforward(packet)
    scheme.send_misdelivered_via_gateway = reforward
    return scheme


def test_migration_only_chaos_catches_the_two_migration_loop(monkeypatch):
    outcome = _two_migration_trial()
    assert not outcome.failed, outcome.violations
    monkeypatch.setattr(runner, "make_scheme", _scheme_without_tag_reset)
    outcome = _two_migration_trial()
    assert any(v.oracle == "forwarding-loop" for v in outcome.violations)


# ----------------------------------------------------------------------
# trials, bugs, shrinking, replay
# ----------------------------------------------------------------------
def test_run_one_trial_clean_without_faults():
    outcome = run_one_trial("SwitchV2P", [], SMALL_PARAMS, trial_seed=3)
    assert not outcome.failed
    assert outcome.num_events == 0


def test_run_one_trial_is_deterministic():
    schedule = generate_schedule(tiny_spec(), 0, seed=2)  # spec-agnostic kinds
    events = [e for e in schedule.events if e.kind in
              (FaultKind.GATEWAY_CRASH, FaultKind.GATEWAY_RESTART)]
    a = run_one_trial("GwCache", events, SMALL_PARAMS, trial_seed=11)
    b = run_one_trial("GwCache", events, SMALL_PARAMS, trial_seed=11)
    assert a == b


def test_bug_canary_fails_the_trial():
    outcome = run_one_trial("SwitchV2P", [], SMALL_PARAMS, trial_seed=3,
                            bug="oracle-canary")
    assert outcome.failed
    assert outcome.violations[0].oracle == "canary"


def test_bug_skip_cache_flush_trips_structural_oracle():
    events = (FaultSchedule()
              .switch_outage("tor", (0, 0), msec(2), usec(500))).events
    outcome = run_one_trial("SwitchV2P", events, SMALL_PARAMS, trial_seed=3,
                            bug="skip-cache-flush")
    assert any(v.oracle == "structural" and "SRAM" in v.detail
               for v in outcome.violations)
    # The identical trial without the bug is clean: the oracle fires on
    # the injected defect, not on fault injection itself.
    clean = run_one_trial("SwitchV2P", events, SMALL_PARAMS, trial_seed=3)
    assert not clean.failed


def test_bug_misdelivery_loop_trips_hop_bound():
    config = FuzzConfig(mean_events=8, switch_weight=0, link_weight=0,
                        loss_weight=0, gateway_weight=0, migrate_weight=1)
    schedule = generate_schedule(chaos_spec(), SMALL_PARAMS.num_vms,
                                 config=config, seed=21)
    outcome = run_one_trial("SwitchV2P", schedule.events, SMALL_PARAMS,
                            trial_seed=21, bug="misdelivery-loop")
    assert any(v.oracle == "forwarding-loop" for v in outcome.violations)


def _replay_shrunk(result, params, bug):
    """``run_one_trial`` on the first failure's shrunk events."""
    failure = result.failures[0]
    assert result.shrunk is not None
    assert 1 <= len(result.shrunk) <= 5
    return run_one_trial(failure.scheme, result.shrunk, params,
                         failure.trial_seed, bug, failure.trial)


def test_shrink_and_replay_round_trip():
    """End-to-end: bug -> failing trial -> minimal schedule -> replay."""
    result = run_chaos_fuzz(trials=4, seed=6, schemes=("SwitchV2P",),
                            params=SMALL_PARAMS, bug="skip-cache-flush")
    assert result.failures, "the injected bug must trip an oracle"
    target_oracle = result.failures[0].violations[0].oracle
    replayed = _replay_shrunk(result, SMALL_PARAMS, "skip-cache-flush")
    assert any(v.oracle == target_oracle for v in replayed.violations)
    # Without shrinking, the failure is the same and nothing is shrunk.
    unshrunk = run_chaos_fuzz(trials=4, seed=6, schemes=("SwitchV2P",),
                              params=SMALL_PARAMS, bug="skip-cache-flush",
                              shrink=False)
    assert unshrunk.outcomes == result.outcomes
    assert unshrunk.shrunk is None


def test_bug_disabled_audit_trips_bounded_staleness():
    """Stopping the anti-entropy audit breaks the staleness promise.

    Six gray-weighted trials with the audit on are clean; the identical
    batch with the audit silently stopped leaves an injected bit flip
    unrepaired past the bound, and the minimized schedule replays.
    Seed 3 is picked for its fourth trial, which lands a flip on an
    occupied, off-path cache line — an entry only the audit would ever
    repair.
    """
    params = gray_chaos_params(num_vms=16, num_flows=24)
    hardened = run_chaos_fuzz(trials=6, seed=3, schemes=("SwitchV2P",),
                              params=params)
    assert hardened.clean and len(hardened.outcomes) == 6
    result = run_chaos_fuzz(trials=6, seed=3, schemes=("SwitchV2P",),
                            params=params, bug="disabled-audit")
    assert result.failures
    oracle = result.failures[0].violations[0].oracle
    assert oracle == "bounded-staleness"
    replayed = _replay_shrunk(result, params, "disabled-audit")
    assert any(v.oracle == "bounded-staleness" for v in replayed.violations)


def test_chaos_fuzz_stock_trials_are_clean():
    result = run_chaos_fuzz(trials=3, seed=1, schemes=("SwitchV2P", "GwCache"),
                            params=SMALL_PARAMS)
    assert result.clean
    assert len(result.outcomes) == 6
    assert result.shrunk is None


def test_bug_registry_names_are_stable():
    # CI and EXPERIMENTS.md reference these by name.
    assert set(BUGS) == {"skip-cache-flush", "misdelivery-loop",
                         "oracle-canary", "disabled-audit"}
