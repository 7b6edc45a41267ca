"""Chaos-fuzzing trials: random fault schedules vs. invariant oracles.

Each trial samples a random :class:`~repro.faults.FaultSchedule` from
the live topology (:mod:`repro.faults.fuzz`), runs a workload under it
as one :class:`~repro.experiments.runner.ExperimentJob` with the runtime
oracles of :mod:`repro.faults.oracles` attached, and reports any
invariant violations.  When a trial fails, the schedule is
delta-debugged down to a minimal reproducing event subset
(:mod:`repro.faults.shrink`).

Everything derives from one root seed: the schedules, the workload and
the substrate RNG, so the same ``--seed`` always produces the same
verdicts: re-running a failing command fails the same way.
A Python caller replays any event subset with :func:`run_one_trial`.

The module also carries a registry of *deliberate* bugs
(:data:`BUGS`) that can be injected per run — both to prove the oracles
actually catch the failure classes they claim to (the tier-1 tests in
``tests/test_chaos_fuzz.py`` turn the harness red with the
``oracle-canary``), and to demo the shrinking pipeline on a real defect
such as a switch that keeps its cache across a power cycle.

Run via ``python -m repro chaos``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import ExperimentJob
from repro.experiments.scenario import (
    ScenarioKnobs,
    chaos_spec,
    random_pair_flows,
)
from repro.faults.fuzz import FuzzConfig, generate_schedule, gray_fuzz_config
from repro.faults.oracles import OracleSuite, OracleViolation
from repro.faults.schedule import FaultEvent
from repro.faults.shrink import ddmin
from repro.sim.engine import msec
from repro.sim.randomness import derive_seed
from repro.transport.flow import FlowSpec
from repro.transport.reliable import TransportConfig
from repro.vnet.network import VirtualNetwork

#: Schemes fuzzed by default: the paper's system and the strongest
#: gateway-centric baseline.  Two architectures double the oracle
#: coverage for the cost of two runs per schedule.
CHAOS_FUZZ_SCHEMES: tuple[str, ...] = ("SwitchV2P", "GwCache")


@dataclass(frozen=True)
class ChaosFuzzParams:
    """Workload + transport tuning of one chaos trial.

    The workload is deliberately smaller and the transport deliberately
    more impatient than the scripted chaos experiment's: a trial must
    reach a quiescent horizon (all flows terminal) in well under a
    second of wall clock, because the shrinker re-runs it dozens of
    times.
    """

    num_vms: int = 48
    num_flows: int = 120
    min_flow_bytes: int = 800
    max_flow_bytes: int = 6_000
    arrival_span_ns: int = msec(3)
    cache_ratio: float = 16.0
    #: Transport give-up tuning: with the RTO capped at 2 ms and six
    #: retransmissions, a flow whose destination is unreachable fails
    #: within ~12 ms, which bounds the liveness horizon.
    max_retransmits: int = 6
    max_rto_ns: int = msec(2)
    #: Self-healing mapping plane: when positive, the anti-entropy
    #: audit sweeps switch caches at this period.  0 keeps the
    #: historical lazy-invalidation-only protocol.
    anti_entropy_period_ns: int = 0
    #: When positive, arms the bounded-staleness runtime oracle with
    #: this bound (plus one audit period of slack).  Requires the
    #: audit: without repair the bound is unenforceable.
    staleness_bound_ns: int = 0
    fuzz: FuzzConfig = FuzzConfig()

    def __post_init__(self) -> None:
        # A transport the trials cannot build fails here, naming its
        # field, not as a SimulationError in the middle of trial 1.
        self.transport()

    def transport(self) -> TransportConfig:
        """The transport every trial plays its flows over."""
        return TransportConfig(max_retransmits=self.max_retransmits,
                               max_rto_ns=self.max_rto_ns)

    def horizon_ns(self, events: tuple[FaultEvent, ...]) -> int:
        """A horizon leaving every flow time to reach a terminal state.

        Last disruption (or last flow arrival, whichever is later) plus
        a grace period covering a full give-up ladder of RTO-capped
        retransmissions, with slack for detours and failover probes.
        """
        grace_ns = (self.max_retransmits + 2) * self.max_rto_ns + msec(2)
        busy_ns = max([self.arrival_span_ns, *(e.at_ns for e in events)])
        if self.anti_entropy_period_ns > 0:
            # Leave the audit at least two full sweeps after the last
            # disruption so the staleness bound is testable.
            grace_ns = max(grace_ns, 2 * self.anti_entropy_period_ns + msec(1))
        return busy_ns + grace_ns


def gray_chaos_params(**overrides) -> ChaosFuzzParams:
    """Trial parameters for a gray-failure campaign.

    Gray fault kinds mixed in (:func:`repro.faults.fuzz.gray_fuzz_config`),
    the anti-entropy audit running at 1 ms, and the bounded-staleness
    oracle armed with a matching bound.  Keyword overrides pass through
    to :class:`ChaosFuzzParams`.
    """
    return ChaosFuzzParams(**{"fuzz": gray_fuzz_config(),
                              "anti_entropy_period_ns": msec(1),
                              "staleness_bound_ns": msec(1), **overrides})


@dataclass(frozen=True)
class TrialOutcome:
    """Verdict of one (schedule, scheme) run."""

    trial: int
    scheme: str
    trial_seed: int
    num_events: int
    violations: tuple[OracleViolation, ...]

    @property
    def failed(self) -> bool:
        return bool(self.violations)


@dataclass
class ChaosFuzzResult:
    """Everything one ``python -m repro chaos`` invocation produced."""

    outcomes: list[TrialOutcome]
    #: The first failure's minimal event list, when it was shrunk.
    shrunk: list[FaultEvent] | None = None

    @property
    def failures(self) -> list[TrialOutcome]:
        return [outcome for outcome in self.outcomes if outcome.failed]

    @property
    def clean(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# deliberate bugs (harness self-tests + shrinking demos)
# ----------------------------------------------------------------------
def _bug_skip_cache_flush(network: VirtualNetwork, suite: OracleSuite) -> None:
    """Switch power cycles no longer flush the scheme's cache state.

    Shadows the scheme's ``on_switch_reset`` with an instance attribute
    that does nothing.  A failed switch then keeps its SRAM — exactly
    the stale-state resurrection the structural oracle forbids.
    """
    network.scheme.on_switch_reset = lambda switch: None


def _bug_misdelivery_loop(network: VirtualNetwork, suite: OracleSuite) -> None:
    """Misdelivered packets bounce back to the same wrong host forever.

    Replaces the scheme's misdelivery re-forwarding with a rule that
    re-addresses the packet to the very host that just rejected it —
    the classic stale-rule forwarding loop the hop-bound oracle exists
    to catch.
    """
    def bounce(host, packet) -> None:
        packet.outer_dst = host.pip
        packet.resolved = True
        host.reforward(packet)
    network.scheme.on_misdelivery = bounce


def _bug_oracle_canary(network: VirtualNetwork, suite: OracleSuite) -> None:
    """Arm the synthetic always-failing oracle (proves the gate gates)."""
    suite.arm_canary()


def _bug_disabled_audit(network: VirtualNetwork, suite: OracleSuite) -> None:
    """The anti-entropy audit silently stops sweeping.

    Models a wedged control-plane reconciliation job.  Under a gray
    schedule that corrupts or strands a cache entry off the traffic
    path, nothing repairs it any more, so the bounded-staleness oracle
    must trip.  Run with gray trial parameters
    (:func:`gray_chaos_params`); without the audit/oracle armed this
    injector is a no-op and the trial stays green.
    """
    if network.anti_entropy is not None:
        network.anti_entropy.stop()


#: name -> injector(network, suite).  Injectors patch the per-run scheme
#: instance (never the class), so no cleanup is needed.
BUGS = {
    "skip-cache-flush": _bug_skip_cache_flush,
    "misdelivery-loop": _bug_misdelivery_loop,
    "oracle-canary": _bug_oracle_canary,
    "disabled-audit": _bug_disabled_audit,
}


# ----------------------------------------------------------------------
# one trial
# ----------------------------------------------------------------------
def fuzz_flows(params: ChaosFuzzParams, trial_seed: int) -> list[FlowSpec]:
    """The trial workload: short flows between random VM pairs."""
    rng = np.random.default_rng(derive_seed(trial_seed, "flows"))
    return random_pair_flows(rng, params.num_flows, params.num_vms,
                             params.min_flow_bytes, params.max_flow_bytes,
                             params.arrival_span_ns)


def run_one_trial(scheme_name: str, events, params: ChaosFuzzParams,
                  trial_seed: int, bug: str | None = None,
                  trial: int = 0) -> TrialOutcome:
    """Run one scheme under one fault-event list with oracles attached.

    Deterministic in all arguments: the substrate RNG, the workload and
    the schedule all derive from ``trial_seed``.  ``events`` may be any
    subset of a generated schedule — this is the function the shrinker
    re-runs.
    """
    events = tuple(events)
    job = ExperimentJob(
        spec=chaos_spec(), scheme_name=scheme_name,
        flows=fuzz_flows(params, trial_seed), num_vms=params.num_vms,
        cache_ratio=params.cache_ratio, seed=trial_seed,
        transport=params.transport(), horizon_ns=params.horizon_ns(events),
        faults=events,
        scenario=ScenarioKnobs(
            anti_entropy_period_ns=params.anti_entropy_period_ns,
            staleness_bound_ns=params.staleness_bound_ns))
    _, violations = job.run(oracles=() if bug is None else (BUGS[bug],))
    return TrialOutcome(trial=trial, scheme=scheme_name,
                        trial_seed=trial_seed, num_events=len(events),
                        violations=tuple(violations))


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_failure(outcome: TrialOutcome, events, params: ChaosFuzzParams,
                   bug: str | None = None,
                   progress=None) -> list[FaultEvent]:
    """ddmin the event list to a minimal subset re-tripping the oracle.

    "Still failing" means: re-running the identical trial with the
    candidate events trips at least one violation of the *same oracle*
    as the original failure (not necessarily the same detail string —
    shrinking changes timing).
    """
    target_oracle = outcome.violations[0].oracle
    attempts = 0

    def still_fails(candidate) -> bool:
        nonlocal attempts
        attempts += 1
        if progress is not None:
            progress(attempts, len(candidate))
        result = run_one_trial(outcome.scheme, candidate, params,
                               outcome.trial_seed, bug, outcome.trial)
        return any(v.oracle == target_oracle for v in result.violations)

    return ddmin(list(events), still_fails)


# ----------------------------------------------------------------------
# the trial loop
# ----------------------------------------------------------------------
def run_chaos_fuzz(trials: int, seed: int,
                   schemes: tuple[str, ...] = CHAOS_FUZZ_SCHEMES,
                   params: ChaosFuzzParams | None = None,
                   bug: str | None = None,
                   shrink: bool = True,
                   progress=None) -> ChaosFuzzResult:
    """Run fuzzed chaos trials; shrink the first failure.

    Each trial derives its own seed from ``seed``, samples one schedule
    and runs it against every scheme.  Scanning stops at the first
    failing run (further trials would re-report the same defect); when
    ``shrink`` is set, the failing schedule is minimized into
    ``result.shrunk``.

    Args:
        progress: optional ``progress(done, total, label)`` callback
            fired after every scheme run.
    """
    if params is None:
        params = ChaosFuzzParams()
    spec = chaos_spec()
    result = ChaosFuzzResult(outcomes=[])
    total = trials * len(schemes)
    done = 0
    for trial in range(trials):
        trial_seed = derive_seed(seed, f"chaos-trial-{trial}")
        schedule = generate_schedule(spec, params.num_vms, params.fuzz,
                                     seed=trial_seed)
        events = list(schedule.events)
        for scheme_name in schemes:
            outcome = run_one_trial(scheme_name, events, params, trial_seed,
                                    bug, trial)
            result.outcomes.append(outcome)
            done += 1
            if progress is not None:
                progress(done, total, f"trial {trial}/{scheme_name}: "
                         + ("FAIL" if outcome.failed else "ok"))
            if outcome.failed:
                if shrink:
                    result.shrunk = shrink_failure(outcome, events, params,
                                                   bug)
                return result
    return result
