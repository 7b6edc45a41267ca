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
recovery against its own baseline.  Run via ``python -m repro reproduce
gray_degradation`` or the benchmark ``benchmarks/test_gray_degradation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.faults import ChaosParams, run_chaos_scenario
from repro.experiments.scenario import (
    DegradationRow,
    Scenario,
    baseline_vs_faulted,
    chaos_spec,
    ratio,
    window_fct_ns,
)
from repro.faults import FaultSchedule
from repro.net.topology import FatTreeSpec
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
#: one reads the gray (EWMA) signals and runs the audit.
HARDENED_FAILOVER = {"gray_loss_threshold": 0.2,
                     "gray_latency_threshold_ns": usec(120),
                     "reinstate_dwell_ns": usec(400)}
ANTI_ENTROPY_PERIOD_NS = msec(1)
STALENESS_BOUND_NS = msec(2)


def gray_schedule(spec: FatTreeSpec | None = None) -> FaultSchedule:
    """The shared gray episode: brownout + degraded cable + bit flips.

    Gateway 0 browns out (sheds arrivals, inflates its latency) over
    the gray window while the pod-1 ToR-0 uplink to spine (1, 0) runs
    lossy and slow; both heal at the window's end.  Midway through,
    every tenant-pod ToR takes ``FLIPS_PER_TOR`` SRAM bit flips in its
    translation cache — corruption that no scheduled event repairs, so
    any recovery after the window is the protocol's own doing.
    """
    if spec is None:
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
    gray_detections: int
    gray_reinstatements: int
    audit_repairs: int
    corrupted_lines: int

    @property
    def after_fct_degradation(self) -> float:
        """Post-episode FCT degradation — did the plane actually heal?"""
        return ratio(self.faulted_after_fct_ns, self.baseline_after_fct_ns)


def run_gray_experiment(params: ChaosParams | None = None,
                        progress=None) -> list[GrayRow]:
    """Run each variant with and without the shared gray episode.

    Args:
        params: sizes the runs; every run is SwitchV2P, so
            ``params.schemes`` must keep its default.
        progress: optional ``progress(done, total, label)`` callback,
            fired after each of the four runs.
    """
    if params is None:
        params = ChaosParams()
    if params.schemes != ChaosParams.schemes:
        raise ValueError(
            f"the gray experiment runs SwitchV2P only; schemes="
            f"{params.schemes!r} would be ignored")

    def run_once(variant: str, schedule: FaultSchedule | None) -> Scenario:
        armed = {}
        if variant == "hardened" and schedule is not None:
            # Started by build_scenario, ahead of the schedule's own
            # idempotent start, so the gray knobs win; the unhardened
            # variant leaves the detector to the schedule and its defaults.
            armed = {"failover": HARDENED_FAILOVER,
                     "anti_entropy_period_ns": ANTI_ENTROPY_PERIOD_NS,
                     "staleness_bound_ns": STALENESS_BOUND_NS}
        return run_chaos_scenario("SwitchV2P", params, schedule, **armed)

    rows = []
    for variant, fields, base, faulted, schedule in baseline_vs_faulted(
            GRAY_VARIANTS, run_once, gray_schedule,
            (GRAY_START_NS, GRAY_END_NS), "gray", progress):
        network = faulted.network
        detector, auditor = network.failure_detector, network.anti_entropy
        rows.append(GrayRow(
            variant=variant,
            baseline_after_fct_ns=window_fct_ns(
                base.network.collector, GRAY_END_NS, params.horizon_ns),
            faulted_after_fct_ns=window_fct_ns(
                network.collector, GRAY_END_NS, params.horizon_ns),
            gray_detections=detector.gray_detections,
            gray_reinstatements=detector.gray_reinstatements,
            audit_repairs=auditor.repairs if auditor is not None else 0,
            corrupted_lines=len(schedule.corruptions),
            **fields))
    return rows
