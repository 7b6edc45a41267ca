"""Parameter sweeps: cache size, gateway count, topology scale.

These implement the x-axes of the paper's figures, normalized against
NoCache on the same trace and topology, as the paper normalizes Figures
5/6/9/10.  A sweep is two pure steps around one pool call: its jobs,
``{(scheme label, x value): ExperimentJob}`` with the NoCache reference
of each x under ``(REFERENCE, x)`` (:func:`ratio_sweep`,
:func:`gateway_sweep`, :func:`topology_sweep`), and :func:`sweep_rows`
of the same dict of results.  The pool
(:func:`~repro.experiments.parallel.parallel_run_experiments`)
simulates a run listed for several rows once, and those rows share the
one ``RunResult``.
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
#: them, so a sweep runs each at ratio 0 for every size.
RATIO_INDEPENDENT = ("NoCache", "Direct", "OnDemand")

#: The scheme label of the runs a sweep normalizes against.
REFERENCE = "reference"

SweepJobs = dict[tuple[str, float], ExperimentJob]


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


def ratio_jobs(base: ExperimentJob) -> Callable[[str, float], ExperimentJob]:
    """``job(scheme, ratio)``: ``base`` run by ``scheme`` at one cache
    size.

    :data:`RATIO_INDEPENDENT` schemes behave the same at every cache
    budget, so each runs at ratio 0 whatever the point's ratio.
    """
    return lambda scheme, ratio: replace(
        base, scheme_name=scheme,
        cache_ratio=0.0 if scheme in RATIO_INDEPENDENT else ratio)


def ratio_sweep(job: Callable[[str, float], ExperimentJob],
                ratios: Sequence[float], schemes: Sequence[str],
                ) -> SweepJobs:
    """The Figure 5/6 grid: every ``job(scheme, ratio)``, normalized
    against ``job("NoCache", 0.0)``."""
    jobs: SweepJobs = {}
    for ratio in ratios:
        jobs[REFERENCE, ratio] = job("NoCache", 0.0)
        jobs.update(((scheme, ratio), job(scheme, ratio))
                    for scheme in schemes)
    return jobs


def _fabric_sweep(base: ExperimentJob, fabrics: dict[float, FatTreeSpec],
                  schemes: Sequence[str], cache_ratio: float,
                  first_reference: bool) -> SweepJobs:
    """``base`` on each fabric by each scheme at ``cache_ratio``; each
    fabric normalized against NoCache on itself, or on the first."""
    jobs: SweepJobs = {}
    reference = None
    for x_value, spec in fabrics.items():
        job = ratio_jobs(replace(base, spec=spec))
        if reference is None or not first_reference:
            reference = job("NoCache", 0.0)
        jobs[REFERENCE, x_value] = reference
        jobs.update(((scheme, x_value), job(scheme, cache_ratio))
                    for scheme in schemes)
    return jobs


def gateway_sweep(base: ExperimentJob, gateways_per_pod: Sequence[int],
                  schemes: Sequence[str], cache_ratio: float) -> SweepJobs:
    """The Figure 9 grid: ``base``'s fabric with each count of gateways
    per pod, x = the fleet size.

    All rows are normalized against NoCache at the *first* (largest)
    gateway deployment, so the degradation of gateway-bound schemes as
    the fleet shrinks is visible — the comparison Figure 9 makes.
    """
    fleets = (replace(base.spec, gateways_per_pod=count)
              for count in gateways_per_pod)
    return _fabric_sweep(base, {float(f.num_gateways): f for f in fleets},
                         schemes, cache_ratio, first_reference=True)


def topology_sweep(base: ExperimentJob, pods_values: Sequence[int],
                   total_servers: int, racks_per_pod: int,
                   schemes: Sequence[str], cache_ratio: float) -> SweepJobs:
    """The Figure 10 grid: ``total_servers`` spread over each pod count,
    x = the pods, each normalized against NoCache on the same fabric."""
    fabrics = {}
    for pods in pods_values:
        servers_per_rack = total_servers // (pods * racks_per_pod)
        if servers_per_rack < 1:
            raise ValueError(
                f"{pods} pods x {racks_per_pod} racks exceeds {total_servers} "
                "servers")
        gateway_pods = tuple(range(0, pods, 2)) if pods > 1 else (0,)
        fabrics[float(pods)] = FatTreeSpec(
            pods=pods,
            racks_per_pod=racks_per_pod,
            servers_per_rack=servers_per_rack,
            gateway_pods=gateway_pods,
            gateways_per_pod=max(1, 40 // max(1, len(gateway_pods))),
        )
    return _fabric_sweep(base, fabrics, schemes, cache_ratio,
                         first_reference=False)


def sweep_rows(results: dict[tuple[str, float], RunResult]
               ) -> list[SweepRow]:
    """The rows of a sweep's results, in job order: each point
    normalized against its x value's reference.  A row whose label is
    not its run's scheme (a Controller period) carries the label."""
    rows = []
    for (scheme, x_value), result in results.items():
        if scheme == REFERENCE:
            continue
        baseline = results[REFERENCE, x_value]
        if result.scheme != scheme:
            result = replace(result, scheme=scheme)
        rows.append(SweepRow(
            scheme=scheme,
            x_value=x_value,
            hit_rate=result.hit_rate,
            fct_improvement=improvement(result.avg_fct_ns,
                                        baseline.avg_fct_ns),
            first_packet_improvement=improvement(
                result.avg_first_packet_ns, baseline.avg_first_packet_ns),
            result=result,
        ))
    return rows


def cache_size_sweep(
    spec: FatTreeSpec,
    flows: Sequence[FlowSpec],
    num_vms: int,
    ratios: Sequence[float],
    schemes: Sequence[str],
    seed: int = 0,
    trace_name: str = "",
    workers: int | None = None,
    cache="auto",
    progress=None,
    perf=None,
) -> list[SweepRow]:
    """The Figure 5/6 sweep of ``flows``: :func:`ratio_sweep` of
    ``schemes`` x aggregate cache sizes, simulated and normalized.

    ``workers``, ``cache``, ``progress`` and ``perf`` are those of
    :func:`~repro.experiments.parallel.parallel_run_experiments`.
    """
    base = ExperimentJob(spec=spec, scheme_name="NoCache", flows=flows,
                         num_vms=num_vms, seed=seed, trace_name=trace_name)
    jobs = ratio_sweep(ratio_jobs(base), ratios, schemes)
    return sweep_rows(dict(zip(jobs, parallel_run_experiments(
        list(jobs.values()), workers, cache=cache, progress=progress,
        perf=perf))))
