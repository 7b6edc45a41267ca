"""Performance observability for simulation runs.

The hot-path optimizations in the engine, packet and forwarding layers
only stay honest if regressions are visible, so this module provides
the measurement side of the bargain:

* :class:`PhaseTimer` — named wall-clock phase accumulators built on
  ``time.perf_counter_ns`` (cheap enough to leave permanently wired
  into :func:`repro.experiments.runner.run_flows`);
* :class:`PhaseMemoryTimer` — a :class:`PhaseTimer` that additionally
  snapshots the Python heap (``tracemalloc``) and process peak RSS at
  every phase boundary, powering ``python -m repro profile --memory``;
* :class:`RunProfile` — a summary of one run (phase breakdown,
  events/sec, packets/sec) with a renderable table;
* :func:`profile_experiment` — the engine behind
  ``python -m repro profile <trace>``, optionally wrapping the run in
  ``cProfile`` for a function-level breakdown.

Measurements never feed back into the simulation (the simulated clock
is integer nanoseconds driven only by scheduled events), so profiling a
run cannot change its result.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import time
import tracemalloc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

try:
    import resource
except ImportError:  # pragma: no cover - non-Unix platforms
    resource = None  # type: ignore[assignment]


def peak_rss_kb() -> float:
    """Process peak resident set size in KiB (0.0 where unavailable).

    ``ru_maxrss`` is kibibytes on Linux; the value is a high-water
    mark, so successive reads are monotonically non-decreasing.
    """
    if resource is None:
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Example:
        >>> timer = PhaseTimer()
        >>> with timer.phase("build"):
        ...     pass
        >>> "build" in timer.phases_ns
        True
    """

    __slots__ = ("phases_ns", "full_collections")

    def __init__(self) -> None:
        #: Phase name -> accumulated wall-clock nanoseconds.
        self.phases_ns: dict[str, int] = {}
        #: Phase name -> full (oldest-generation) collector passes in it.
        self.full_collections: dict[str, int] = {}

    def start(self) -> tuple[int, int]:
        """Open an interval for :meth:`stop`: :meth:`phase` without the
        generator frames, for the fluid scheduler's thousands per run."""
        # A phase entered with the collector off (every fluid round,
        # inside ``Engine.run``'s pause) can trigger no pass and skips
        # the read, the costliest call here.
        passes = gc.get_stats()[2]["collections"] if gc.isenabled() else -1
        return time.perf_counter_ns(), passes

    def stop(self, name: str, started: tuple[int, int]) -> None:
        """Add the interval ``started`` to phase ``name``."""
        elapsed = time.perf_counter_ns() - started[0]
        self.phases_ns[name] = self.phases_ns.get(name, 0) + elapsed
        if started[1] >= 0:
            passes = gc.get_stats()[2]["collections"] - started[1]
            self.full_collections[name] = self.full_collections.get(name, 0) + passes

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (re-entrant by sum)."""
        started = self.start()
        try:
            yield
        finally:
            self.stop(name, started)

    def add(self, name: str, elapsed_ns: int) -> None:
        """Fold an externally measured duration into phase ``name``.

        The parallel sweep orchestrator measures each job's wall clock
        inside the worker process and feeds it back here, so a timer in
        the parent accumulates true per-job compute time even though
        the jobs ran elsewhere.
        """
        self.phases_ns[name] = self.phases_ns.get(name, 0) + int(elapsed_ns)


class PhaseMemoryTimer(PhaseTimer):
    """A :class:`PhaseTimer` that also snapshots memory per phase.

    At each phase exit, records the phase's ``tracemalloc`` peak (reset
    at phase entry, so peaks are attributed to the phase that caused
    them), the Python-heap size still live at the boundary, and the
    process peak RSS high-water mark.  The caller owns the tracing
    lifecycle: call ``tracemalloc.start()`` before the first phase (or
    the tracemalloc columns read zero).

    Re-entered phases keep the maximum of their peaks and the latest
    end-of-phase heap size.
    """

    __slots__ = ("memory_by_phase",)

    def __init__(self) -> None:
        super().__init__()
        #: Phase name -> {"py_peak_kb", "py_end_kb", "rss_peak_kb"}.
        self.memory_by_phase: dict[str, dict[str, float]] = {}

    def start(self) -> tuple[int, int]:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        return super().start()

    def stop(self, name: str, started: tuple[int, int]) -> None:
        super().stop(name, started)
        current, peak = (tracemalloc.get_traced_memory()
                         if tracemalloc.is_tracing() else (0, 0))
        entry = self.memory_by_phase.setdefault(
            name, {"py_peak_kb": 0.0, "py_end_kb": 0.0, "rss_peak_kb": 0.0})
        entry["py_peak_kb"] = max(entry["py_peak_kb"], peak / 1024)
        entry["py_end_kb"] = current / 1024
        entry["rss_peak_kb"] = max(entry["rss_peak_kb"], peak_rss_kb())


def timed_call(fn, /, *args, **kwargs):
    """Call ``fn`` and return ``(result, elapsed_wall_ns)``.

    Lives here (not at the call sites) because wall-clock reads are
    confined to :mod:`repro.perf` by the determinism lint (D101): the
    simulation must never observe real time, and keeping every
    ``perf_counter_ns`` behind this module makes that auditable.
    """
    start = time.perf_counter_ns()
    result = fn(*args, **kwargs)
    return result, time.perf_counter_ns() - start


@dataclass
class RunProfile:
    """Wall-clock summary of one simulation run."""

    trace: str
    scheme: str
    wall_ns: int
    events: int
    packets: int
    phases_ns: dict[str, int] = field(default_factory=dict)
    #: Full collector passes per phase (:attr:`PhaseTimer.full_collections`).
    full_collections: dict[str, int] = field(default_factory=dict)
    #: Simulation fidelity ("packet" or "hybrid") and, for hybrid runs,
    #: the fluid scheduler's bookkeeping: how many flows were adopted,
    #: how many packets were advanced analytically rather than
    #: simulated, and why adopted flows fell back to packet level.
    fidelity: str = "packet"
    fluid_adoptions: int = 0
    fluid_escalations: int = 0
    fluid_rounds: int = 0
    fluid_packets: int = 0
    fluid_escalations_by_reason: dict[str, int] = field(default_factory=dict)
    #: Per-phase memory snapshots (``--memory``): phase name ->
    #: ``{"py_peak_kb", "py_end_kb", "rss_peak_kb"}``; empty when
    #: memory profiling was off.
    memory_by_phase: dict[str, dict[str, float]] = field(default_factory=dict)
    profile_text: str = ""

    @property
    def events_per_sec(self) -> float:
        return self.events / (self.wall_ns / 1e9) if self.wall_ns else 0.0

    @property
    def packets_per_sec(self) -> float:
        return self.packets / (self.wall_ns / 1e9) if self.wall_ns else 0.0

    @property
    def fluid_fraction(self) -> float:
        """Share of data-plane packets advanced analytically."""
        total = self.packets
        return self.fluid_packets / total if total else 0.0

    def as_dict(self) -> dict:
        data = {
            "trace": self.trace,
            "scheme": self.scheme,
            "wall_ms": self.wall_ns / 1e6,
            "events": self.events,
            "packets": self.packets,
            "events_per_sec": self.events_per_sec,
            "packets_per_sec": self.packets_per_sec,
            "fidelity": self.fidelity,
            "phases_ms": {name: ns / 1e6
                          for name, ns in sorted(self.phases_ns.items())},
            "full_collections": dict(sorted(self.full_collections.items())),
        }
        if self.memory_by_phase:
            data["memory_by_phase"] = {
                name: dict(entry)
                for name, entry in sorted(self.memory_by_phase.items())}
        if self.fidelity == "hybrid":
            data["fluid"] = {
                "adoptions": self.fluid_adoptions,
                "escalations": self.fluid_escalations,
                "rounds": self.fluid_rounds,
                "fluid_packets": self.fluid_packets,
                "fluid_fraction": self.fluid_fraction,
                "escalations_by_reason": dict(
                    sorted(self.fluid_escalations_by_reason.items())),
            }
        return data

    def render(self) -> str:
        lines = [
            f"trace={self.trace} scheme={self.scheme}",
            f"wall time        {self.wall_ns / 1e6:12.2f} ms",
            f"events           {self.events:12d}"
            f"  ({self.events_per_sec:,.0f}/s)",
            f"packets          {self.packets:12d}"
            f"  ({self.packets_per_sec:,.0f}/s)",
        ]
        for name, ns in sorted(self.phases_ns.items()):
            lines.append(f"phase {name:<10} {ns / 1e6:12.2f} ms"
                         f"  full gc {self.full_collections.get(name, 0)}")
        for name, entry in sorted(self.memory_by_phase.items()):
            lines.append(
                f"mem   {name:<10} rss-peak {entry['rss_peak_kb'] / 1024:8.1f}"
                f" MB  py-heap peak {entry['py_peak_kb'] / 1024:8.1f} MB"
                f" (end {entry['py_end_kb'] / 1024:.1f} MB)")
        if self.fidelity == "hybrid":
            lines.append(f"fidelity         {'hybrid':>12}")
            lines.append(f"fluid adoptions  {self.fluid_adoptions:12d}"
                         f"  (escalations {self.fluid_escalations},"
                         f" rounds {self.fluid_rounds})")
            lines.append(f"fluid packets    {self.fluid_packets:12d}"
                         f"  ({self.fluid_fraction:.1%} of all packets)")
            for reason, count in sorted(
                    self.fluid_escalations_by_reason.items()):
                lines.append(f"  escalation {reason:<22} {count:8d}")
        if self.profile_text:
            lines.append("")
            lines.append(self.profile_text)
        return "\n".join(lines)


def profile_experiment(spec, scheme_name: str, flows, num_vms: int,
                       cache_ratio: float, seed: int = 0,
                       trace_name: str = "",
                       with_cprofile: bool = False,
                       with_memory: bool = False,
                       top: int = 25,
                       fidelity: str = "packet") -> tuple[RunProfile, object]:
    """Run one experiment under the phase timers (optionally cProfile).

    Args:
        with_memory: snapshot tracemalloc + peak RSS at every phase
            boundary; the event loop is additionally split into a
            ``run-warmup`` phase (through the last flow start plus
            10 ms, the cache cold-start window) and a ``run-steady``
            remainder, so build, warmup and steady-state memory show
            up separately.  Tracing slows the run; wall-clock numbers
            from a ``--memory`` profile are not comparable to plain
            ones.

    Returns:
        ``(profile, result)`` — the wall-clock profile and the normal
        :class:`~repro.experiments.runner.RunResult` (with the network
        retained, so callers can inspect engine counters).
    """
    from repro.experiments.runner import run_experiment
    from repro.sim.engine import msec

    timer = PhaseMemoryTimer() if with_memory else PhaseTimer()
    warmup_split_ns = None
    if with_memory:
        tracemalloc.start()
        last_start = max((flow.start_ns for flow in flows), default=0)
        warmup_split_ns = last_start + msec(10)
    profiler = cProfile.Profile() if with_cprofile else None
    start = time.perf_counter_ns()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_experiment(spec, scheme_name, flows, num_vms,
                                cache_ratio, seed, keep_network=True,
                                trace_name=trace_name, perf=timer,
                                fidelity=fidelity,
                                warmup_split_ns=warmup_split_ns)
    finally:
        if with_memory:
            tracemalloc.stop()
    if profiler is not None:
        profiler.disable()
    wall_ns = time.perf_counter_ns() - start

    network = result.network
    profile_text = ""
    if profiler is not None:
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        profile_text = buffer.getvalue()
    profile = RunProfile(
        trace=trace_name,
        scheme=result.scheme,
        wall_ns=wall_ns,
        events=network.engine.events_processed,
        packets=result.packets_sent,
        phases_ns=dict(timer.phases_ns),
        full_collections=dict(timer.full_collections),
        fidelity=result.fidelity,
        fluid_adoptions=result.fluid_adoptions,
        fluid_escalations=result.fluid_escalations,
        fluid_rounds=result.fluid_rounds,
        fluid_packets=result.fluid_packets,
        fluid_escalations_by_reason=dict(result.fluid_escalations_by_reason),
        memory_by_phase=(dict(timer.memory_by_phase)
                         if isinstance(timer, PhaseMemoryTimer) else {}),
        profile_text=profile_text,
    )
    return profile, result
