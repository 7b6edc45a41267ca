"""Streaming parallel execution of independent experiment runs.

Sweeps are embarrassingly parallel: the reference run and every grid
point are independent simulations.  A sweep hands this module *all* of
them as one flat job list; the runs fan out over a process pool while
preserving determinism — each run's inputs are explicit and
self-contained, so results are bit-identical to sequential execution
regardless of completion order.

Design points of the orchestrator:

* **Cheap payloads** — jobs preferentially carry a
  :class:`~repro.traces.spec.TraceSpec` (generator name + params +
  seed, a few hundred bytes) instead of a materialized
  ``tuple[FlowSpec, ...]``; the worker regenerates the flows locally
  and deterministically (:mod:`repro.sim.randomness`).
* **One simulation per distinct job** — jobs are hashable, so a job
  listed twice (NoCache as both the reference and a scheme of Figure 9)
  is simulated once and both positions share the one ``RunResult``.
* **Result memoization** — before dispatch, every job is looked up in
  the content-addressed run cache
  (:mod:`repro.experiments.runcache`); hits never reach the pool, and
  completed misses are stored by the parent, making sweeps resumable.
* **Streaming dispatch** — one job per pool task (a payload pickles in
  about a millisecond against hundreds of simulation), at most
  ``workers`` in the pool at a time, collected as they finish with
  deterministic reassembly by job index; a ``progress`` callback fires
  on every completion and per-job wall-clock times feed a
  :class:`repro.perf.PhaseTimer` under the ``"jobs"`` phase.
* **Loud failure** — a job that raises stops the run: nothing further
  is dispatched and the error names the job
  (:class:`ExperimentJobError`).

Worker count: pass ``workers=`` explicitly (the CLI threads its
``--workers`` flag through); the ``REPRO_PARALLEL`` environment
variable remains a fallback for harnesses that cannot.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, fields
from itertools import islice
from typing import TYPE_CHECKING

from repro.experiments.runcache import (
    canonical_items,
    job_key,
    kwargs_dict,
    resolve_cache,
)
from repro.experiments.runner import RunResult, run_experiment
from repro.net.topology import FatTreeSpec
from repro.perf import timed_call
from repro.traces.spec import TraceSpec
from repro.transport.flow import FlowSpec
from repro.transport.reliable import TransportConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PhaseTimer

#: ``progress(done, total, cached)`` — invoked after every job
#: resolves, whether served from cache (``cached=True``) or simulated.
ProgressFn = Callable[[int, int, bool], None]


@dataclass(frozen=True)
class ExperimentJob:
    """One picklable, hashable experiment description.

    The workload is either ``flows`` (materialized, heavyweight) or
    ``trace`` (a :class:`TraceSpec` the worker materializes locally) —
    exactly one must be set.  ``scheme_kwargs`` accepts a plain dict
    for convenience and is canonicalized to a sorted item tuple on
    construction, so the frozen job is fully hashable and shares its
    normal form with the run-cache key derivation.
    """

    spec: FatTreeSpec
    scheme_name: str
    flows: tuple[FlowSpec, ...] | None = None
    num_vms: int = 0
    cache_ratio: float = 0.0
    seed: int = 0
    transport: TransportConfig | None = None
    horizon_ns: int | None = None
    trace_name: str = ""
    scheme_kwargs: tuple = ()
    trace: TraceSpec | None = None
    #: Simulation fidelity ("packet" or "hybrid"); part of the run-cache
    #: key — hybrid and packet runs of the same point must not collide.
    fidelity: str = "packet"

    def __post_init__(self) -> None:
        if isinstance(self.scheme_kwargs, dict):
            object.__setattr__(self, "scheme_kwargs",
                               canonical_items(self.scheme_kwargs))
        elif not isinstance(self.scheme_kwargs, tuple):
            object.__setattr__(self, "scheme_kwargs",
                               tuple(self.scheme_kwargs))
        if self.flows is not None and not isinstance(self.flows, tuple):
            object.__setattr__(self, "flows", tuple(self.flows))
        if (self.flows is None) == (self.trace is None):
            raise ValueError(
                "ExperimentJob needs exactly one of flows= or trace=")
        if self.num_vms <= 0:
            raise ValueError("ExperimentJob.num_vms must be positive")

    def __hash__(self) -> int:
        # The flows' count stands in for their content: the orchestrator
        # hashes every listed job to find duplicates, and walking a
        # thousand-flow tuple per job costs as much as replaying the job
        # from a warm cache.  ``__eq__`` still compares the flows.
        return hash((len(self.flows or ()),
                     *(getattr(self, field.name) for field in fields(self)
                       if field.name != "flows")))

    def resolve_flows(self) -> tuple[FlowSpec, ...]:
        """The flow list, regenerating from the trace spec if needed."""
        if self.flows is not None:
            return self.flows
        return tuple(self.trace.materialize())

    def scheme_kwargs_dict(self) -> dict:
        """The canonical kwargs back as a plain dict for the factory."""
        return kwargs_dict(self.scheme_kwargs)

    def run(self, **options) -> RunResult:
        """Simulate this job; ``options`` (``cache``, ``perf``,
        ``warmup_split_ns``) pass through to :func:`run_experiment`."""
        return run_experiment(
            self.spec, self.scheme_name, self.resolve_flows(), self.num_vms,
            self.cache_ratio, self.seed, self.transport, self.horizon_ns,
            trace_name=self.trace_name,
            scheme_kwargs=self.scheme_kwargs_dict() or None,
            fidelity=self.fidelity, **options)

    def describe(self) -> str:
        """What a failure report calls this job."""
        trace = self.trace_name or (
            self.trace.name if self.trace is not None else "unnamed")
        return (f"{self.scheme_name} (cache ratio {self.cache_ratio:g}, "
                f"trace {trace}, seed {self.seed})")


class ExperimentJobError(RuntimeError):
    """A job raised while simulating; the message names the job."""


def _execute_job(job: ExperimentJob) -> tuple[RunResult, int]:
    """Run one job (the pool's task); returns (result, wall_ns).

    The inner run bypasses the run cache (``cache=None``): the
    orchestrating parent already resolved hits and is the single
    writer, so workers never race on the store.
    """
    try:
        return timed_call(job.run, cache=None)
    except Exception as exc:
        # Re-raised with the job's name: across the pool boundary the
        # original arrives without it, and a sweep has dozens of jobs.
        raise ExperimentJobError(
            f"job {job.describe()} failed: "
            f"{type(exc).__name__}: {exc}") from exc


def default_workers() -> int:
    """Worker count from REPRO_PARALLEL (0/unset = sequential).

    A fallback only — callers with an explicit worker count (the CLI's
    ``--workers``) pass it straight through instead of mutating the
    environment.
    """
    value = os.environ.get("REPRO_PARALLEL", "0")
    try:
        workers = int(value)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ValueError(
            f"REPRO_PARALLEL={value!r} is not a worker count (an integer "
            ">= 0)")
    return workers


def parallel_run_experiments(jobs: Sequence[ExperimentJob],
                             workers: int | None = None, *,
                             cache="auto",
                             progress: ProgressFn | None = None,
                             perf: PhaseTimer | None = None,
                             ) -> list[RunResult]:
    """Run jobs, optionally over a process pool, with memoization.

    Results are returned in job order regardless of completion order,
    and are bit-identical to sequential execution (simulations are
    deterministic given their explicit inputs).  Equal jobs are one
    simulation: their positions hold the same ``RunResult`` object, and
    ``progress``/``perf`` count distinct jobs.

    Args:
        workers: process count; ``None`` falls back to
            :func:`default_workers` (the ``REPRO_PARALLEL`` variable),
            and ``0``/``1`` runs inline.
        cache: a :class:`~repro.experiments.runcache.RunCache`,
            ``None`` to disable memoization, or ``"auto"`` (default)
            for the environment-configured store.
        progress: ``progress(done, total, cached)`` per resolved job.
        perf: optional :class:`~repro.perf.PhaseTimer`; each job's
            wall-clock time accumulates under the ``"jobs"`` phase.

    Raises:
        ExperimentJobError: a job raised.  Jobs not yet started are
            dropped; with a pool, the up to ``workers - 1`` jobs already
            running finish first.
    """
    if workers is None:
        workers = default_workers()
    store = resolve_cache(cache)
    slot_of: dict[ExperimentJob, int] = {}
    slots = [slot_of.setdefault(job, len(slot_of)) for job in jobs]
    distinct = list(slot_of)
    total = len(distinct)
    results: dict[int, RunResult] = {}
    keys: dict[int, str] = {}
    done = 0

    if store is not None:
        for index, job in enumerate(distinct):
            keys[index] = job_key(job)
            hit = store.get(keys[index])
            if hit is not None:
                results[index] = hit
                done += 1
                if progress is not None:
                    progress(done, total, True)

    pending = [index for index in range(total) if index not in results]

    def record(index: int, result: RunResult, wall_ns: int) -> None:
        nonlocal done
        results[index] = result
        if perf is not None:
            perf.add("jobs", wall_ns)
        if store is not None:
            store.put(keys[index], result)
        done += 1
        if progress is not None:
            progress(done, total, False)

    if workers <= 1 or len(pending) <= 1:
        for index in pending:
            record(index, *_execute_job(distinct[index]))
    else:
        # At most `workers` jobs are in the pool at a time, so a failure
        # leaves nothing queued behind it: shutdown drops the rest and
        # waits only for the jobs the other workers are already running.
        pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
        running: dict[Future, int] = {}
        waiting = iter(pending)

        def submit(index: int) -> None:
            running[pool.submit(_execute_job, distinct[index])] = index

        try:
            for index in islice(waiting, workers):
                submit(index)
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = running.pop(future)
                    outcome = future.result()
                    following = next(waiting, None)
                    if following is not None:
                        submit(following)
                    record(index, *outcome)
        finally:
            pool.shutdown(cancel_futures=True)
    return [results[slot] for slot in slots]
