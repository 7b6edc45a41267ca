"""Time-series sampling of live metrics during a run.

The paper argues the data-plane cache "promptly adapts to changing
traffic patterns" — a statement about *convergence over time* that the
end-of-run aggregates cannot show.  These samplers record windowed
rates while the simulation runs: in-network hit rate and goodput over
time (cache warm-up, migration disruption and recovery).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.sim.engine import Engine


@dataclass(frozen=True)
class Sample:
    """One window's measurement."""

    time_ns: int
    value: float


class WindowedRateSampler:
    """Periodically samples the delta of a monotonic counter.

    Args:
        engine: the simulation engine to schedule on.
        counter: callable returning the current cumulative count.
        period_ns: window length.
        label: human-readable name for reports.
    """

    def __init__(self, engine: Engine, counter: Callable[[], float],
                 period_ns: int, label: str = "") -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.engine = engine
        self.counter = counter
        self.period_ns = period_ns
        self.label = label
        self.samples: list[Sample] = []
        self._last_value = 0.0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self._last_value = float(self.counter())
        self.engine.schedule_after(self.period_ns, self._tick)

    def _tick(self) -> None:
        current = float(self.counter())
        self.samples.append(Sample(self.engine.now, current - self._last_value))
        self._last_value = current
        self.engine.schedule_after(self.period_ns, self._tick)

    def values(self) -> list[float]:
        return [sample.value for sample in self.samples]

    def peak(self) -> float:
        return max((s.value for s in self.samples), default=0.0)


class RatioTimeline:
    """Windowed ratio of two monotonic counters (e.g. hit rate).

    Each window records ``1 - delta(numerator)/delta(denominator)`` or
    the plain ratio, depending on ``complement``.
    """

    def __init__(self, engine: Engine, numerator: Callable[[], float],
                 denominator: Callable[[], float], period_ns: int,
                 complement: bool = False, label: str = "") -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.engine = engine
        self.numerator = numerator
        self.denominator = denominator
        self.period_ns = period_ns
        self.complement = complement
        self.label = label
        self.samples: list[Sample] = []
        self._last_num = 0.0
        self._last_den = 0.0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self._last_num = float(self.numerator())
        self._last_den = float(self.denominator())
        self.engine.schedule_after(self.period_ns, self._tick)

    def _tick(self) -> None:
        num = float(self.numerator())
        den = float(self.denominator())
        delta_num = num - self._last_num
        delta_den = den - self._last_den
        self._last_num, self._last_den = num, den
        if delta_den > 0:
            ratio = delta_num / delta_den
            self.samples.append(Sample(
                self.engine.now, 1.0 - ratio if self.complement else ratio))
        self.engine.schedule_after(self.period_ns, self._tick)

    def values(self) -> list[float]:
        return [sample.value for sample in self.samples]


def track_hit_rate(network, period_ns: int) -> RatioTimeline:
    """Windowed in-network hit rate: 1 - gateway/sent per window.

    Sent packets are read live from the servers made so far (the
    collector aggregates them only at finalize time).
    """
    hosts = network.host_by_pip.values()
    collector = network.collector
    timeline = RatioTimeline(
        network.engine,
        numerator=lambda: collector.gateway_arrivals,
        denominator=lambda: sum(host.packets_sent for host in hosts),
        period_ns=period_ns,
        complement=True,
        label="hit rate/window")
    timeline.start()
    return timeline
