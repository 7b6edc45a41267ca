"""Graceful-degradation experiment: gray failures vs. the self-healing plane.

The chaos experiment (:mod:`repro.experiments.faults`) exercises
fail-stop faults, which binary probing detects.  Gray failures are the
harder case: a browned-out gateway still answers probes while shedding
half its arrivals, a degraded cable loses packets without ever going
down, and a flipped SRAM bit silently rewrites a cached translation.
Nothing in the fail-stop toolkit notices any of them.

This experiment runs SwitchV2P twice through one gray episode — a
gateway brownout overlapping a degraded ToR-spine cable, plus cache
bit flips that outlive both — in two protocol variants:

* **hardened**: the gray (EWMA) failure detector fails the browned-out
  gateway out of the pool and reinstates it after a dwell, the
  anti-entropy audit repairs the corrupted cache lines within the
  staleness bound.
* **unhardened**: the same schedule with every self-healing knob off —
  binary probing only, no audit.  The brownout is
  invisible to it and the corrupted lines persist, so flows whose
  translations were flipped retransmit into a black hole until the
  transport gives up.

Each variant also runs fault-free so the table reports degradation and
recovery against its own baseline; with no fault to react to, the two
fault-free runs are one run, one pool job (:func:`gray_jobs`).  Run via
``python -m repro reproduce gray_degradation``; its claims are the
``gray_degradation`` entry's in ``repro.experiments.artifacts``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.faults import ChaosParams, chaos_job
from repro.experiments.parallel import ExperimentJob
from repro.experiments.scenario import (
    DegradationRow,
    ScenarioKnobs,
    chaos_spec,
    ratio,
)
from repro.faults import FaultSchedule
from repro.sim.engine import msec, usec

#: Report order: the self-healing plane on, then off.
GRAY_VARIANTS: tuple[str, ...] = ("hardened", "unhardened")

#: The gray episode: one brownout + cable degradation window while
#: arrivals are in full swing, and bit flips in the middle of it whose
#: damage — unlike the window — does not heal on its own.
GRAY_START_NS = msec(2)
GRAY_END_NS = msec(5)
BROWNOUT_DROP_RATE = 0.6
BROWNOUT_EXTRA_NS = usec(300)
DEGRADE_LOSS_RATE = 0.25
DEGRADE_EXTRA_NS = usec(50)
BITFLIP_NS = msec(3)
#: Bit 20 lands in the PIP's rack field, so a flipped line points at a
#: rack the fabric does not have: packets black-hole instead of
#: misdelivering, which sidesteps the protocol's own misdelivery-tag
#: repair — exactly the damage only the anti-entropy audit can undo.
BITFLIP_BIT = 20
FLIPS_PER_TOR = 2

#: Detection + self-healing, the hardened variant.  Both variants probe
#: on the detector's defaults (200 us, three misses); only the hardened
#: one reads the gray (EWMA) signals and runs the audit.  Started by
#: ``build_scenario``, ahead of the schedule's own idempotent start, so
#: the gray knobs win; the unhardened variant leaves the detector to the
#: schedule and its defaults.
HARDENED = ScenarioKnobs(
    failover={"gray_loss_threshold": 0.2,
              "gray_latency_threshold_ns": usec(120),
              "reinstate_dwell_ns": usec(400)},
    anti_entropy_period_ns=msec(1), staleness_bound_ns=msec(2))


def gray_schedule() -> FaultSchedule:
    """The shared gray episode: brownout + degraded cable + bit flips.

    Gateway 0 browns out (sheds arrivals, inflates its latency) over
    the gray window while the pod-1 ToR-0 uplink to spine (1, 0) runs
    lossy and slow; both heal at the window's end.  Midway through,
    every tenant-pod ToR takes ``FLIPS_PER_TOR`` SRAM bit flips in its
    translation cache — corruption that no scheduled event repairs, so
    any recovery after the window is the protocol's own doing.
    """
    spec = chaos_spec()
    window_ns = GRAY_END_NS - GRAY_START_NS
    schedule = FaultSchedule()
    schedule.gateway_brownout(0, GRAY_START_NS, window_ns,
                              BROWNOUT_DROP_RATE, BROWNOUT_EXTRA_NS)
    schedule.link_degradation(("tor", 1, 0), ("spine", 1, 0),
                              GRAY_START_NS, window_ns,
                              DEGRADE_LOSS_RATE, DEGRADE_EXTRA_NS)
    gateway_pods = set(spec.gateway_pods)
    for pod in range(spec.pods):
        if pod in gateway_pods:
            continue
        for rack in range(spec.racks_per_pod):
            for ordinal in range(FLIPS_PER_TOR):
                # Spread the ordinals so repeated flips on one ToR hit
                # distinct occupied lines (modulo occupancy at fire
                # time, so this stays a no-op on cold caches).
                schedule.flip_cache_bit(BITFLIP_NS, "tor", (pod, rack),
                                        entry=ordinal * 3, bit=BITFLIP_BIT)
    return schedule


def gray_jobs(params: ChaosParams) -> dict[tuple[str, str], ExperimentJob]:
    """``{(variant, "baseline" | "gray"): job}``; every run is
    SwitchV2P, whatever ``params.schemes`` says.  Both baselines are
    the one unhardened fault-free run."""
    base = chaos_job(params, "SwitchV2P", (GRAY_START_NS, GRAY_END_NS),
                     (GRAY_END_NS, params.horizon_ns))
    faults = tuple(gray_schedule().events)
    return {("hardened", "baseline"): base,
            ("hardened", "gray"): replace(base, faults=faults,
                                          scenario=HARDENED),
            ("unhardened", "baseline"): base,
            ("unhardened", "gray"): replace(base, faults=faults)}


@dataclass(frozen=True)
class GrayRow(DegradationRow):
    """Baseline-vs-gray-episode comparison for one protocol variant.

    The window is the gray window: the blast radius of the brownout +
    degradation, before the persistent bit-flip damage dominates.
    """

    variant: str
    #: Average FCT of flows starting *after* the window heals: the
    #: recovery test.  Brownout and cable damage are gone by then, so
    #: any residue here is the unrepaired bit-flip corruption — senders
    #: retransmitting into black-holed translations.
    baseline_after_fct_ns: float
    faulted_after_fct_ns: float

    @property
    def after_fct_degradation(self) -> float:
        """Post-episode FCT degradation — did the plane actually heal?"""
        return ratio(self.faulted_after_fct_ns, self.baseline_after_fct_ns)


def gray_rows(results: dict) -> list[GrayRow]:
    """One row per variant of :func:`gray_jobs`' results, in order."""
    rows = []
    for variant in GRAY_VARIANTS:
        base, gray = results[variant, "baseline"], results[variant, "gray"]
        rows.append(GrayRow.between(
            base, gray, variant=variant,
            baseline_after_fct_ns=base.window_fct_ns[1],
            faulted_after_fct_ns=gray.window_fct_ns[1]))
    return rows
