"""Parameter sweeps: cache size, gateway count, topology scale.

These implement the x-axes of the paper's figures.  Results are
normalized against the NoCache baseline run with identical trace and
topology, exactly as the paper normalizes Figures 5/6/9/10.

A sweep never simulates anything itself.  It describes every run it
needs — the NoCache reference(s) and each grid point — as an
:class:`~repro.experiments.parallel.ExperimentJob`, hands them to
:func:`~repro.experiments.parallel.parallel_run_experiments` as one
flat list (references first) and normalizes once the results are back
(:func:`run_sweep_jobs`).  So every sweep honours ``workers=``,
``cache=`` and ``progress=`` for *all* of its simulations, and a run
that several rows need (NoCache at every cache size, or as both
reference and scheme) is listed per row but simulated once, its rows
sharing the one ``RunResult``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.experiments.parallel import ExperimentJob, parallel_run_experiments
from repro.experiments.runner import RunResult
from repro.metrics.reporting import improvement
from repro.net.topology import FatTreeSpec
from repro.transport.flow import FlowSpec

#: Schemes without in-switch caches: the cache budget cannot reach
#: them, so a cache-size sweep runs each at ratio 0 for every size.
RATIO_INDEPENDENT = ("NoCache", "Direct", "OnDemand")


@dataclass
class SweepRow:
    """One (scheme, x-value) point of a figure."""

    scheme: str
    x_value: float
    hit_rate: float
    fct_improvement: float
    first_packet_improvement: float
    result: RunResult

    def as_row(self) -> list:
        return [self.scheme, self.x_value, self.hit_rate,
                self.fct_improvement, self.first_packet_improvement]


def run_sweep_jobs(
    references: Sequence[ExperimentJob],
    points: Sequence[tuple[float, ExperimentJob, int]],
    workers: int | None = None,
    cache="auto",
    progress=None,
    perf=None,
) -> list[SweepRow]:
    """Simulate a sweep's jobs as one flat list, then normalize.

    Args:
        references: the NoCache job(s) rows are normalized against.
        points: one ``(x_value, job, index into references)`` per row,
            in row order.
        workers, cache, progress, perf: as for
            :func:`~repro.experiments.parallel.parallel_run_experiments`;
            ``progress`` totals count distinct simulations, references
            included.
    """
    results = parallel_run_experiments(
        [*references, *(job for _, job, _ in points)],
        workers=workers, cache=cache, progress=progress, perf=perf)
    grid = results[len(references):]
    return [_normalized_row(result, results[reference], x_value)
            for (x_value, _, reference), result in zip(points, grid)]


def ratio_jobs(base: ExperimentJob, scheme_kwargs: dict[str, dict],
               ) -> Callable[[str, float], ExperimentJob]:
    """``job(scheme, ratio)``: ``base`` run by ``scheme`` at one point
    of a cache-size sweep, with ``scheme_kwargs[scheme]``.

    :data:`RATIO_INDEPENDENT` schemes behave the same at every cache
    budget, so each runs at ratio 0 whatever the point's ratio.
    """
    return lambda scheme, ratio: replace(
        base, scheme_name=scheme,
        cache_ratio=0.0 if scheme in RATIO_INDEPENDENT else ratio,
        scheme_kwargs=scheme_kwargs.get(scheme) or {})


def sweep_ratios(job: Callable[[str, float], ExperimentJob],
                 ratios: Sequence[float], schemes: Sequence[str],
                 **options) -> list[SweepRow]:
    """Every ``job(scheme, ratio)``, normalized against NoCache's;
    ``options`` as for :func:`run_sweep_jobs`."""
    points = [(ratio, job(scheme, ratio), 0)
              for ratio in ratios for scheme in schemes]
    return run_sweep_jobs([job("NoCache", 0.0)], points, **options)


def cache_size_sweep(
    spec: FatTreeSpec,
    flows: Sequence[FlowSpec],
    num_vms: int,
    ratios: Sequence[float],
    schemes: Sequence[str],
    seed: int = 0,
    trace_name: str = "",
    trace_spec=None,
    workers: int | None = None,
    cache="auto",
    progress=None,
    perf=None,
) -> list[SweepRow]:
    """The Figure 5/6 sweep of ``flows``: schemes x aggregate cache sizes.

    The NoCache reference normalizes every point.  It and the other
    :data:`RATIO_INDEPENDENT` schemes are one simulation each, whose
    row is replicated.

    Args:
        trace_spec: optional :class:`~repro.traces.spec.TraceSpec`
            describing the same workload as ``flows``; when given,
            jobs carry the lightweight spec and workers regenerate the
            flows locally instead of unpickling them.
        workers: process count for the simulations (``None`` defers to
            the ``REPRO_PARALLEL`` fallback).
        cache: run-cache handle (``"auto"``/``None``/RunCache); a warm
            cache turns the whole sweep into disk reads.
        progress: ``progress(done, total, cached)`` per simulation.
        perf: optional :class:`~repro.perf.PhaseTimer` accumulating
            per-job wall-clock under the ``"jobs"`` phase.
    """
    base = ExperimentJob(
        spec=spec, scheme_name="NoCache", num_vms=num_vms, seed=seed,
        trace_name=trace_name, trace=trace_spec,
        flows=None if trace_spec is not None else tuple(flows))
    return sweep_ratios(ratio_jobs(base, {}), ratios, schemes,
                        workers=workers, cache=cache, progress=progress,
                        perf=perf)


def gateway_count_sweep(
    base_spec: FatTreeSpec,
    trace_factory,
    num_vms: int,
    gateways_per_pod_values: Sequence[int],
    schemes: Sequence[str],
    cache_ratio: float,
    seed: int = 0,
    trace_name: str = "",
    horizon_ns: int | None = None,
    cache="auto",
    workers: int | None = None,
    progress=None,
) -> list[SweepRow]:
    """The Figure 9 sweep: vary deployed gateways, fixed cache budget.

    ``trace_factory(spec)`` regenerates the flow list per topology (the
    flows themselves do not depend on gateway count, but regenerating
    keeps the interface uniform with the topology sweep).

    All rows are normalized against NoCache at the *first* (largest)
    gateway deployment, so the degradation of gateway-bound schemes as
    the fleet shrinks is visible — the comparison Figure 9 makes.
    """
    references: list[ExperimentJob] = []
    points: list[tuple[float, ExperimentJob, int]] = []
    for per_pod in gateways_per_pod_values:
        spec = replace(base_spec, gateways_per_pod=per_pod)
        jobs = _scheme_jobs(spec, trace_factory(spec), num_vms, schemes,
                            cache_ratio, seed, trace_name, horizon_ns)
        if not references:
            references.append(jobs["NoCache"])
        points.extend((float(spec.num_gateways), jobs[scheme], 0)
                      for scheme in schemes)
    return run_sweep_jobs(references, points, workers=workers, cache=cache,
                          progress=progress)


def topology_scale_sweep(
    pods_values: Sequence[int],
    total_servers: int,
    racks_per_pod: int,
    trace_factory,
    num_vms: int,
    schemes: Sequence[str],
    cache_ratio: float,
    seed: int = 0,
    trace_name: str = "",
    horizon_ns: int | None = None,
    cache="auto",
    workers: int | None = None,
    progress=None,
) -> list[SweepRow]:
    """The Figure 10 sweep: scale pods while keeping servers constant.

    Each pod count is normalized against NoCache on the same fabric.
    """
    references: list[ExperimentJob] = []
    points: list[tuple[float, ExperimentJob, int]] = []
    for pods in pods_values:
        servers_per_rack = total_servers // (pods * racks_per_pod)
        if servers_per_rack < 1:
            raise ValueError(
                f"{pods} pods x {racks_per_pod} racks exceeds {total_servers} "
                "servers")
        gateway_pods = tuple(range(0, pods, 2)) if pods > 1 else (0,)
        spec = FatTreeSpec(
            pods=pods,
            racks_per_pod=racks_per_pod,
            servers_per_rack=servers_per_rack,
            gateway_pods=gateway_pods,
            gateways_per_pod=max(1, 40 // max(1, len(gateway_pods))),
        )
        jobs = _scheme_jobs(spec, trace_factory(spec), num_vms, schemes,
                            cache_ratio, seed, trace_name, horizon_ns)
        points.extend((float(pods), jobs[scheme], len(references))
                      for scheme in schemes)
        references.append(jobs["NoCache"])
    return run_sweep_jobs(references, points, workers=workers, cache=cache,
                          progress=progress)


def _scheme_jobs(spec: FatTreeSpec, flows: Sequence[FlowSpec], num_vms: int,
                 schemes: Sequence[str], cache_ratio: float, seed: int,
                 trace_name: str, horizon_ns: int | None,
                 ) -> dict[str, ExperimentJob]:
    """One fabric's jobs by scheme: NoCache (budget 0) and ``schemes``."""
    flow_tuple = tuple(flows)
    return {
        scheme: ExperimentJob(
            spec=spec, scheme_name=scheme, flows=flow_tuple, num_vms=num_vms,
            cache_ratio=0.0 if scheme == "NoCache" else cache_ratio,
            seed=seed, horizon_ns=horizon_ns, trace_name=trace_name)
        for scheme in ("NoCache", *schemes)
    }


def _normalized_row(result: RunResult, baseline: RunResult,
                    x_value: float) -> SweepRow:
    return SweepRow(
        scheme=result.scheme,
        x_value=x_value,
        hit_rate=result.hit_rate,
        fct_improvement=improvement(result.avg_fct_ns, baseline.avg_fct_ns),
        first_packet_improvement=improvement(result.avg_first_packet_ns,
                                             baseline.avg_first_packet_ns),
        result=result,
    )
