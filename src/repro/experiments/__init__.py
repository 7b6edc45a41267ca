"""Experiment harness: runners, sweeps, the figures' scales and traces.

The registry of committed tables — one ``jobs`` + ``collect`` +
``table`` per file under ``benchmarks/results/`` — is
:mod:`repro.experiments.artifacts`; import it by name (this package
does not, so simulating through the runner never pays for it).
"""

from repro.experiments.faults import (
    CHAOS_SCHEMES,
    ChaosParams,
    ChaosRow,
    chaos_jobs,
    chaos_schedule,
    chaos_spec,
)
from repro.experiments.figures import (
    FigureScale,
    build_trace,
    trace_spec_for,
    ft8_spec,
    ft16_spec,
)
from repro.experiments.migration import MIGRATION_VARIANTS, migration_jobs
from repro.experiments.parallel import (
    ExperimentJob,
    default_workers,
    parallel_run_experiments,
)
from repro.experiments.runcache import (
    RunCache,
    default_cache,
    job_key,
    run_key,
)
from repro.experiments.runner import (
    SCHEME_FACTORIES,
    DetailedRunResult,
    RunResult,
    build_network,
    make_scheme,
    run_experiment,
    run_flows,
)
from repro.experiments.sweeps import (
    SweepRow,
    cache_size_sweep,
)

__all__ = [
    "RunResult",
    "DetailedRunResult",
    "SweepRow",
    "SCHEME_FACTORIES",
    "make_scheme",
    "build_network",
    "run_flows",
    "run_experiment",
    "ExperimentJob",
    "parallel_run_experiments",
    "default_workers",
    "RunCache",
    "default_cache",
    "run_key",
    "job_key",
    "cache_size_sweep",
    "FigureScale",
    "ft8_spec",
    "ft16_spec",
    "build_trace",
    "trace_spec_for",
    "MIGRATION_VARIANTS",
    "migration_jobs",
    "ChaosParams",
    "ChaosRow",
    "CHAOS_SCHEMES",
    "chaos_spec",
    "chaos_schedule",
    "chaos_jobs",
]
