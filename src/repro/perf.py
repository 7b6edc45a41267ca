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
  sweep orchestrator measure with.

``python -m repro run`` prints a :class:`PhaseTimer` (a
:class:`PhaseMemoryTimer` with ``--memory``) under its table: for any
trace, scheme and scale, what ``python -m bench --workload W --trace 1``
does not print (collector passes per phase, memory per phase).

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
