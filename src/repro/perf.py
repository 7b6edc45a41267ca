"""Host-side timing: the one module allowed to read the wall clock.

* :class:`PhaseTimer` — named wall-clock phase accumulators built on
  ``time.perf_counter_ns`` (cheap enough to leave permanently wired
  into :func:`repro.experiments.runner.run_flows`), with the full
  collector passes inside each phase;
* :class:`BusyClock` — one accumulator around calls, for the fluid
  scheduler's thousands of round commits per run;
* :class:`PhaseMemoryTimer` — a :class:`PhaseTimer` that additionally
  snapshots the Python heap (``tracemalloc``) and process peak RSS at
  every phase boundary;
* :func:`timed_call`, :func:`peak_rss_kb` — what ``bench/`` and the
  sweep orchestrator measure with;
* :class:`RunProfile` / :func:`profile_experiment` — ``python -m repro
  profile <trace>``: for any trace, scheme and scale, the three things
  ``python -m bench --workload W --trace 1`` does not print (collector
  passes per phase, memory per phase, escalations by reason).

Measurements never feed back into the simulation (the simulated clock
is integer nanoseconds driven only by scheduled events), so profiling a
run cannot change its result.
"""

from __future__ import annotations

import gc
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
        """Open an interval for :meth:`stop` (what :meth:`phase` does
        around its block)."""
        # A phase entered with the collector off (inside
        # ``Engine.run``'s pause) can trigger no pass and skips the
        # read, the costliest call here.
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


_clock = time.perf_counter_ns


class BusyClock:
    """Wall-clock nanoseconds spent inside :meth:`time` calls, summed.

    The fluid scheduler runs every round commit, adoption and
    escalation through one of these, and the runner folds ``ns`` into
    its own timer as phase ``"fluid"``.  A call made while another is
    open (an escalation inside a commit) is already inside the
    enclosing interval and runs untimed.  No collector accounting: the
    scheduler runs inside ``Engine.run``, which pauses the collector.
    """

    __slots__ = ("ns", "_open")

    def __init__(self) -> None:
        self.ns = 0
        self._open = False

    def time(self, body, *args) -> None:
        """Run ``body(*args)``, adding its duration to :attr:`ns`."""
        if self._open:
            body(*args)
            return
        self._open = True
        started = _clock()
        try:
            body(*args)
        finally:
            self._open = False
            self.ns += _clock() - started


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
    """What ``repro profile`` prints about one simulation run."""

    trace: str
    scheme: str
    fidelity: str = "packet"
    phases_ns: dict[str, int] = field(default_factory=dict)
    #: Full collector passes per phase (:attr:`PhaseTimer.full_collections`).
    full_collections: dict[str, int] = field(default_factory=dict)
    #: Per-phase memory snapshots (``--memory``): phase name ->
    #: ``{"py_peak_kb", "py_end_kb", "rss_peak_kb"}``; empty when
    #: memory profiling was off.
    memory_by_phase: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Why adopted flows fell back to packet level (hybrid runs).
    fluid_escalations_by_reason: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"trace={self.trace} scheme={self.scheme} "
                 f"fidelity={self.fidelity}"]
        for name, ns in sorted(self.phases_ns.items()):
            lines.append(f"phase {name:<10} {ns / 1e6:12.2f} ms"
                         f"  full gc {self.full_collections.get(name, 0)}")
        for name, entry in sorted(self.memory_by_phase.items()):
            lines.append(
                f"mem   {name:<10} rss-peak {entry['rss_peak_kb'] / 1024:8.1f}"
                f" MB  py-heap peak {entry['py_peak_kb'] / 1024:8.1f} MB"
                f" (end {entry['py_end_kb'] / 1024:.1f} MB)")
        for reason, count in sorted(self.fluid_escalations_by_reason.items()):
            lines.append(f"escalation {reason:<22} {count:8d}")
        return "\n".join(lines)


def profile_experiment(spec, scheme_name: str, flows, num_vms: int,
                       cache_ratio: float, seed: int = 0,
                       trace_name: str = "",
                       with_memory: bool = False,
                       fidelity: str = "packet") -> RunProfile:
    """Run one experiment under the phase timers.

    Args:
        with_memory: snapshot tracemalloc + peak RSS at every phase
            boundary; the event loop is additionally split into a
            ``run-warmup`` phase (through the last flow start plus
            10 ms, the cache cold-start window) and a ``run-steady``
            remainder, so build, warmup and steady-state memory show
            up separately.  Tracing slows the run; wall-clock numbers
            from a ``--memory`` profile are not comparable to plain
            ones.
    """
    from repro.experiments.runner import run_experiment
    from repro.sim.engine import msec

    timer = PhaseMemoryTimer() if with_memory else PhaseTimer()
    warmup_split_ns = None
    if with_memory:
        tracemalloc.start()
        last_start = max((flow.start_ns for flow in flows), default=0)
        warmup_split_ns = last_start + msec(10)
    try:
        result = run_experiment(spec, scheme_name, flows, num_vms,
                                cache_ratio, seed, trace_name=trace_name,
                                perf=timer, fidelity=fidelity,
                                warmup_split_ns=warmup_split_ns, cache=None)
    finally:
        if with_memory:
            tracemalloc.stop()
    return RunProfile(
        trace=trace_name,
        scheme=result.scheme,
        fidelity=result.fidelity,
        phases_ns=dict(timer.phases_ns),
        full_collections=dict(timer.full_collections),
        memory_by_phase=dict(timer.memory_by_phase) if with_memory else {},
        fluid_escalations_by_reason=dict(result.fluid_escalations_by_reason),
    )
