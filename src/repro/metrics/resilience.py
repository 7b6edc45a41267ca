"""Resilience metrics: how a scheme degrades and recovers under faults.

End-of-run aggregates hide the shape of an outage: a run that loses its
gateway for 2 ms and fully recovers can post the same average hit rate
as one that limps for the rest of the run.  A :class:`ResilienceProbe`
attaches windowed samplers (in-network hit rate and delivered goodput)
to a live network and, after the run, splits the timeline around a
:class:`~repro.faults.FaultSchedule` into *before / during / after*
phases, yielding the numbers the chaos experiment reports:

* phase-averaged windowed hit rate and goodput,
* time-to-recover: how long after the last repair the windowed hit
  rate returns to (a fraction of) its pre-fault baseline,
* per-flow availability and the drop counters attributable to faults.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.metrics.timeline import Sample, WindowedRateSampler, track_hit_rate

DEFAULT_RECOVERY_FRACTION = 0.9


@dataclass(frozen=True)
class PhaseStats:
    """Windowed-metric averages for one phase of the run."""

    samples: int
    mean_hit_rate: float
    mean_goodput_bytes: float


@dataclass(frozen=True)
class ResilienceSummary:
    """The chaos experiment's per-run resilience numbers."""

    before: PhaseStats
    during: PhaseStats
    after: PhaseStats
    #: ns from the last repair until windowed hit rate first reaches
    #: ``recovery_fraction`` x the pre-fault baseline; None if it never
    #: does (or there were no faults / no baseline).
    time_to_recover_ns: int | None
    availability: float
    completed_flows: int
    failed_flows: int
    gateway_crash_drops: int
    gateway_unavailable_drops: int
    unroutable_drops: int
    #: Packets shed by browned-out (gray-degraded) gateways; 0 for
    #: fail-stop-only schedules.
    gateway_brownout_drops: int = 0

    @property
    def hit_rate_dip(self) -> float:
        """How far windowed hit rate fell during faults vs. before."""
        return max(0.0, self.before.mean_hit_rate - self.during.mean_hit_rate)


class ResilienceProbe:
    """Windowed samplers + fault-aware summarization for one run.

    Create *before* ``network.run`` (the samplers schedule themselves
    from t=0), then call :meth:`summarize` afterwards::

        probe = ResilienceProbe(network, period_ns=usec(250))
        schedule.apply(network)
        network.run(until=horizon)
        summary = probe.summarize(schedule)
    """

    def __init__(self, network, period_ns: int) -> None:
        self.network = network
        self.period_ns = period_ns
        self.hit_rate = track_hit_rate(network, period_ns)
        collector = network.collector
        self.goodput = WindowedRateSampler(
            network.engine, lambda: collector.delivered_payload_bytes,
            period_ns, label="goodput bytes/window")
        self.goodput.start()

    # ------------------------------------------------------------------
    def summarize(self, schedule=None,
                  recovery_fraction: float = DEFAULT_RECOVERY_FRACTION,
                  ) -> ResilienceSummary:
        """Split the sampled timelines around ``schedule``'s fault window."""
        first = schedule.first_fault_ns() if schedule is not None else None
        last = schedule.last_recovery_ns() if schedule is not None else None
        before_h, during_h, after_h = _split(self.hit_rate.samples, first, last)
        before_g, during_g, after_g = _split(self.goodput.samples, first, last)

        baseline = _mean(before_h)
        recover_ns = self._time_to_recover(last, baseline, recovery_fraction)

        collector = self.network.collector
        hosts = self.network.host_by_pip.values()
        return ResilienceSummary(
            before=_phase(before_h, before_g),
            during=_phase(during_h, during_g),
            after=_phase(after_h, after_g),
            time_to_recover_ns=recover_ns,
            availability=collector.availability,
            completed_flows=len(collector.completed_flows()),
            failed_flows=len(collector.failed_flows()),
            gateway_crash_drops=collector.gateway_crash_drops,
            gateway_unavailable_drops=collector.gateway_unavailable_drops,
            unroutable_drops=sum(host.unroutable_drops for host in hosts),
            gateway_brownout_drops=collector.gateway_brownout_drops,
        )

    def _time_to_recover(self, last_recovery_ns: int | None, baseline: float,
                         fraction: float) -> int | None:
        if last_recovery_ns is None or baseline <= 0.0:
            return None
        target = fraction * baseline
        for sample in self.hit_rate.samples:
            if sample.time_ns >= last_recovery_ns and sample.value >= target:
                return sample.time_ns - last_recovery_ns
        return None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _split(samples: list[Sample], first: int | None,
           last: int | None) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Partition samples into before / during / after the fault window.

    With no faults everything is "before".  A window is attributed by
    its *end* timestamp (samples record the window that just closed).
    """
    if first is None:
        return list(samples), [], []
    end = last if last is not None else max(
        (s.time_ns for s in samples), default=first)
    before = [s for s in samples if s.time_ns < first]
    during = [s for s in samples if first <= s.time_ns <= end]
    after = [s for s in samples if s.time_ns > end]
    return before, during, after


def _mean(samples: list[Sample]) -> float:
    if not samples:
        return 0.0
    return statistics.fmean(s.value for s in samples)


def _phase(hit_samples: list[Sample], goodput_samples: list[Sample]) -> PhaseStats:
    return PhaseStats(samples=len(hit_samples),
                      mean_hit_rate=_mean(hit_samples),
                      mean_goodput_bytes=_mean(goodput_samples))
