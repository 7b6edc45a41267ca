"""Command-line interface: run experiments and reproduce paper artifacts.

Examples::

    python -m repro list
    python -m repro run --trace hadoop --scheme SwitchV2P --cache-ratio 4
    python -m repro reproduce fig5a --ratios 0.5 4 32
    python -m repro migrate --senders 16 --packets 500
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro.experiments.artifacts import (
    ARTIFACTS,
    artifact_names,
    reproduce,
    resolve,
)
from repro.experiments.figures import FigureScale, build_trace, fabric_for
from repro.experiments.runner import SCHEME_FACTORIES, run_experiment
from repro.metrics.reporting import failure_breakdown_rows, render_table

TRACES = ("hadoop", "websearch", "alibaba", "microbursts", "video")

#: Flag -> config field tables, one per config; see :func:`_overrides`.
_SCALE_FLAGS = {"vms": "num_vms", "flows": "hadoop_flows",
                "ratios": ("ratios", tuple), "seed": "seed"}
_WORKLOAD_FLAGS = {"flows": "num_flows", "vms": "num_vms",
                   "cache_ratio": "cache_ratio"}
_SEEDED_WORKLOAD_FLAGS = {**_WORKLOAD_FLAGS, "seed": "seed"}


def _overrides(args: argparse.Namespace, table: dict) -> dict:
    """Config-field overrides for the flags the user actually gave.

    ``table`` maps a flag's ``args`` attribute to the field it sets, or
    to ``(field, convert)`` where the value needs converting.
    Given means ``is not None``, not truthiness: ``--flows 0`` and
    ``--vms 0`` are legitimate degenerate inputs that must reach the
    config, not fall back to its defaults.
    """
    overrides = {}
    for flag, field in table.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if isinstance(field, tuple):
            field, convert = field
            value = convert(value)
        overrides[field] = value
    return overrides


def _scale_from_args(args: argparse.Namespace) -> FigureScale:
    return FigureScale(**_overrides(args, _SCALE_FLAGS))


def _progress(label: str):
    """A terminal progress callback, or None off-tty.

    Redraws one status line from ``(done, total, detail)`` ticks.  A
    sweep's ``detail`` is whether the point came from the run cache —
    hits are counted, so a warm re-run visibly reports "all cached";
    the fault harnesses' is the label of the run that just finished.
    """
    stream = sys.stderr
    if not stream.isatty():
        return None
    cached_count = [0]

    def callback(done: int, total: int, detail) -> None:
        if isinstance(detail, bool):
            cached_count[0] += detail
            detail = f"{cached_count[0]} cached"
        stream.write(f"\r  {label}: {done}/{total} ({detail})   ")
        stream.flush()
        if done == total:
            stream.write("\n")

    return callback


def cmd_list(args: argparse.Namespace) -> int:
    print("schemes:   " + ", ".join(sorted(SCHEME_FACTORIES)))
    print("traces:    " + ", ".join(TRACES))
    print("artifacts: " + ", ".join(
        f"{a.name} ({a.short})" if a.short else a.name
        for a in ARTIFACTS.values()))
    return 0


def _us(value_ns: float) -> str:
    """Nanoseconds → microseconds cell; ``n/a`` when no flow completed."""
    return f"{value_ns / 1000:.1f}" if math.isfinite(value_ns) else "n/a"


def cmd_run(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    flows, num_vms = build_trace(args.trace, scale)
    result = run_experiment(fabric_for(args.trace), args.scheme, flows,
                            num_vms, args.cache_ratio, scale.seed,
                            trace_name=args.trace, fidelity=args.fidelity)
    rows = [
        ["scheme", result.scheme],
        ["trace", result.trace],
        ["fidelity", result.fidelity],
        ["cache ratio", result.cache_ratio],
        ["flows completed", f"{result.completion_rate:.1%}"],
        ["hit rate", f"{result.hit_rate:.3f}"],
        ["avg FCT [us]", _us(result.avg_fct_ns)],
        ["avg first-packet [us]", _us(result.avg_first_packet_ns)],
        ["avg stretch", f"{result.avg_stretch:.2f}"],
        ["gateway packets", result.gateway_arrivals],
        ["drops", result.drops],
    ]
    if result.fidelity == "hybrid":
        rows.append(["fluid packets",
                     f"{result.fluid_packets} "
                     f"({result.fluid_adoptions} adoptions, "
                     f"{result.fluid_escalations} escalations)"])
    rows.extend(failure_breakdown_rows(result.failed_flows,
                                       result.failure_reasons))
    print(render_table(["metric", "value"], rows))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    texts = reproduce(resolve(args.artifact), _scale_from_args(args),
                      args.workers, _progress(args.artifact))
    print("\n\n".join(texts.values()))
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    from repro.experiments.migration import run_migration_table
    from repro.traces.incast import IncastTraceParams
    params = IncastTraceParams(num_senders=args.senders,
                               packets_per_sender=args.packets)
    print(ARTIFACTS["table4_migration"].render(run_migration_table(params)))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """The chaos experiment: gateway-rack + spine outages vs baselines."""
    from repro.experiments.faults import (
        CHAOS_SCHEMES,
        ChaosParams,
        run_chaos_experiment,
    )
    params = ChaosParams(**_overrides(args, _SEEDED_WORKLOAD_FLAGS))
    schemes = tuple(args.schemes) if args.schemes else CHAOS_SCHEMES
    rows = run_chaos_experiment(params, schemes, progress=_progress("chaos"))
    print(ARTIFACTS["faults_resilience"].render(rows))
    return 0


def cmd_gray(args: argparse.Namespace) -> int:
    """Graceful degradation: hardened vs unhardened under gray faults."""
    from repro.experiments.faults import ChaosParams
    from repro.experiments.graydegrade import run_gray_experiment
    params = ChaosParams(**_overrides(args, _SEEDED_WORKLOAD_FLAGS))
    rows = run_gray_experiment(params, progress=_progress("chaos"))
    print(ARTIFACTS["gray_degradation"].render(rows))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos fuzzing: random fault schedules vs. the invariant oracles."""
    from dataclasses import replace

    from repro.experiments.chaosfuzz import (
        BUGS,
        CHAOS_FUZZ_SCHEMES,
        ChaosFuzzParams,
        gray_chaos_params,
        replay_reproducer,
        run_chaos_fuzz,
    )
    if args.replay is not None:
        outcome = replay_reproducer(args.replay)
        if outcome.violations:
            print(f"replay re-tripped {len(outcome.violations)} violation(s) "
                  f"on {outcome.scheme} ({outcome.num_events} events):")
            for violation in outcome.violations:
                print(f"  {violation}")
            return 1
        print(f"replay of {args.replay} ran clean on {outcome.scheme} — the "
              "recorded defect no longer reproduces")
        return 0
    if args.bug is not None and args.bug not in BUGS:
        print(f"unknown bug {args.bug!r}; known: {', '.join(sorted(BUGS))}",
              file=sys.stderr)
        return 2
    params = replace(
        gray_chaos_params() if args.gray else ChaosFuzzParams(),
        **_overrides(args, {**_WORKLOAD_FLAGS, "fidelity": "fidelity"}))
    schemes = tuple(args.schemes) if args.schemes else CHAOS_FUZZ_SCHEMES
    result = run_chaos_fuzz(args.trials, args.seed, schemes, params,
                            bug=args.bug, artifact_dir=args.artifact_dir,
                            shrink=not args.no_shrink,
                            progress=_progress("chaos"))
    trials_run = len({outcome.trial for outcome in result.outcomes})
    if result.clean:
        print(f"chaos: {trials_run} trial(s) x {len(schemes)} scheme(s) "
              f"(seed {args.seed}) — all oracles clean")
        return 0
    failure = result.failures[0]
    print(f"chaos: oracle violation in trial {failure.trial} on "
          f"{failure.scheme} (seed {args.seed}, {failure.num_events} "
          "events):")
    for violation in failure.violations:
        print(f"  {violation}")
    if result.shrunk_events is not None:
        print(f"shrunk the schedule to {result.shrunk_events} event(s)")
    if result.reproducer_path is not None:
        print(f"reproducer written to {result.reproducer_path}")
        print(f"replay with: python -m repro chaos --replay "
              f"{result.reproducer_path}")
    return 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one experiment: collector passes and memory per phase."""
    from repro.perf import profile_experiment
    scale = _scale_from_args(args)
    flows, num_vms = build_trace(args.trace, scale)
    profile = profile_experiment(
        fabric_for(args.trace), args.scheme, flows, num_vms, args.cache_ratio,
        scale.seed, trace_name=args.trace, with_memory=args.memory,
        fidelity=args.fidelity)
    print(profile.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Assemble all persisted benchmark tables into one report."""
    from pathlib import Path
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"no results at {results_dir}; run "
              "'pytest benchmarks/ --benchmark-only' first", file=sys.stderr)
        return 1
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"no result tables in {results_dir}", file=sys.stderr)
        return 1
    for path in files:
        print(f"==== {path.stem} " + "=" * max(1, 60 - len(path.stem)))
        print(path.read_text().rstrip())
        print()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism/invariant lint (see docs/linting.md)."""
    from repro.analysis.cli import run
    return run(args)


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the content-addressed run cache."""
    from repro.experiments.runcache import (
        RunCache,
        default_cache_dir,
        runcache_enabled,
    )
    store = RunCache(default_cache_dir())
    if args.cache_command == "info":
        entries = store.entries()
        print(render_table(["property", "value"], [
            ["location", str(store.root)],
            ["enabled", "yes" if runcache_enabled() else
             "no (REPRO_RUNCACHE=0)"],
            ["entries", len(entries)],
            ["size [KiB]", f"{store.size_bytes() / 1024:.1f}"],
        ]))
    elif args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached run(s) from {store.root}")
    return 0


def cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.traces.io import save_flows
    scale = _scale_from_args(args)
    flows, num_vms = build_trace(args.name, scale)
    count = save_flows(args.output, flows)
    print(f"wrote {count} flows over {num_vms} VMs to {args.output}")
    return 0


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.traces.io import load_flows, trace_stats
    stats = trace_stats(load_flows(args.path))
    print(render_table(["statistic", "value"],
                       [[key, value] for key, value in stats.items()]))
    return 0


#: The flags several subcommands take, declared once; a subcommand
#: overrides what differs (its default, its help) in :func:`_flags`.
_SHARED_FLAGS = {
    "--vms": dict(type=int, default=None),
    "--flows": dict(type=int, default=None),
    "--seed": dict(type=int, default=None),
    "--cache-ratio": dict(type=float, default=None),
    "--fidelity": dict(choices=("packet", "hybrid"), default=None),
    "--scheme": dict(choices=sorted(SCHEME_FACTORIES), default=None),
    "--schemes": dict(nargs="+", choices=sorted(SCHEME_FACTORIES),
                      default=None),
}


def _flags(parser: argparse.ArgumentParser, *names: str, **overrides) -> None:
    """Add shared flags to ``parser``; ``overrides`` apply to each."""
    for name in names:
        parser.add_argument(name, **{**_SHARED_FLAGS[name], **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SwitchV2P reproduction: simulate and reproduce the "
                    "paper's experiments")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for parallelizable commands "
                             "(passed through explicitly; 0 = sequential, "
                             "default: the REPRO_PARALLEL variable)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list schemes, traces, artifacts") \
        .set_defaults(func=cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("--trace", choices=TRACES, default="hadoop")
    _flags(run_parser, "--scheme", default="SwitchV2P")
    _flags(run_parser, "--cache-ratio", default=4.0,
           help="aggregate cache size relative to the VIP address space")
    _flags(run_parser, "--vms", "--flows", "--seed")
    _flags(run_parser, "--fidelity", default="packet",
           help="simulation fidelity: per-packet (exact) or "
                "hybrid fluid fast path (see docs/simulator.md)")
    run_parser.set_defaults(func=cmd_run)

    repro_parser = subparsers.add_parser(
        "reproduce", help="regenerate one of the paper's tables/figures")
    repro_parser.add_argument("artifact", choices=artifact_names(),
                              metavar="artifact",
                              help="a file stem under benchmarks/results/ or "
                                   "a short name; see 'repro list'")
    _flags(repro_parser, "--vms", "--flows")
    repro_parser.add_argument("--ratios", type=float, nargs="+", default=None)
    _flags(repro_parser, "--seed")
    repro_parser.set_defaults(func=cmd_reproduce)

    migrate_parser = subparsers.add_parser(
        "migrate", help="the VM-migration experiment (Table 4)")
    migrate_parser.add_argument("--senders", type=int, default=16)
    migrate_parser.add_argument("--packets", type=int, default=500)
    migrate_parser.set_defaults(func=cmd_migrate)

    faults_parser = subparsers.add_parser(
        "faults",
        help="chaos experiment: schemes under an identical fault schedule",
        description="Run every scheme twice — undisturbed and under the "
                    "same timed fault schedule (a gateway-rack power loss "
                    "with hypervisor failover, then a spine fail+recover) — "
                    "and report availability, FCT degradation, windowed "
                    "hit-rate phases and time-to-recover.")
    _flags(faults_parser, "--schemes",
           help="schemes to compare (default: SwitchV2P GwCache OnDemand)")
    _flags(faults_parser, "--vms", "--flows", "--cache-ratio", "--seed")
    faults_parser.set_defaults(func=cmd_faults)

    gray_parser = subparsers.add_parser(
        "gray",
        help="graceful degradation: self-healing plane vs gray failures",
        description="Run SwitchV2P through one gray episode — a gateway "
                    "brownout overlapping a degraded cable, plus cache "
                    "bit flips that nothing in the schedule repairs — "
                    "with the self-healing plane (gray EWMA detector, "
                    "anti-entropy audit, negative caching) on and off, "
                    "and report in-window and post-window degradation.")
    _flags(gray_parser, "--vms", "--flows", "--cache-ratio", "--seed")
    gray_parser.set_defaults(func=cmd_gray)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="chaos fuzzing: random fault schedules vs. invariant oracles",
        description="Sample random fault schedules from the topology and "
                    "run them against each scheme with runtime invariant "
                    "oracles attached (no misdelivery, no forwarding "
                    "loops, packet conservation, cache coherence, "
                    "liveness).  A failing schedule is delta-debugged to "
                    "a minimal reproducer artifact; --replay re-runs one. "
                    "Deterministic per --seed.  Exits 1 on any violation.")
    chaos_parser.add_argument("--trials", type=int, default=10,
                              help="fuzzed schedules per scheme (default 10)")
    _flags(chaos_parser, "--seed", default=1,
           help="root seed; same seed => same schedules and verdicts "
                "(default 1)")
    _flags(chaos_parser, "--schemes",
           help="schemes to fuzz (default: SwitchV2P GwCache)")
    _flags(chaos_parser, "--vms", "--flows", "--cache-ratio")
    _flags(chaos_parser, "--fidelity",
           help="simulation fidelity for the fuzz trials")
    chaos_parser.add_argument("--gray", action="store_true",
                              help="fuzz with the gray-failure kinds enabled "
                                   "(degrade/flap/slow/brownout/bitflip) plus "
                                   "the anti-entropy audit and the "
                                   "bounded-staleness oracle")
    chaos_parser.add_argument("--bug", default=None, metavar="NAME",
                              help="inject a deliberate bug (harness "
                                   "self-test): skip-cache-flush, "
                                   "misdelivery-loop, oracle-canary, "
                                   "disabled-audit (pair with --gray)")
    chaos_parser.add_argument("--artifact-dir", default="chaos-artifacts",
                              metavar="DIR",
                              help="where failing trials write reproducer "
                                   "artifacts (default: chaos-artifacts/)")
    chaos_parser.add_argument("--no-shrink", action="store_true",
                              help="skip delta-debugging the failing "
                                   "schedule")
    chaos_parser.add_argument("--replay", default=None, metavar="ARTIFACT",
                              help="re-run a saved reproducer artifact "
                                   "instead of fuzzing")
    chaos_parser.set_defaults(func=cmd_chaos)

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile one experiment (collector passes and memory per "
             "phase, escalations by reason)")
    profile_parser.add_argument("trace", choices=TRACES)
    _flags(profile_parser, "--scheme", default="SwitchV2P")
    _flags(profile_parser, "--cache-ratio", default=4.0)
    _flags(profile_parser, "--vms", "--flows", "--seed")
    _flags(profile_parser, "--fidelity", default="packet",
           help="simulation fidelity; hybrid reports the "
                "escalation counts by reason")
    profile_parser.add_argument("--memory", action="store_true",
                                help="snapshot tracemalloc + peak RSS per "
                                     "phase (build / warmup / steady); "
                                     "slows the run")
    profile_parser.set_defaults(func=cmd_profile)

    lint_parser = subparsers.add_parser(
        "lint",
        help="static determinism & simulator-invariant checks",
        description="Run the repro.analysis lint engine: AST-based rules "
                    "that keep the simulator deterministic (no wall-clock "
                    "reads, no global RNG, memo-table and escalation "
                    "invariants).  Exits non-zero when any "
                    "unsuppressed finding remains; see docs/linting.md.")
    from repro.analysis.cli import add_arguments as _add_lint_arguments
    _add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=cmd_lint)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or clear the content-addressed run cache",
        description="The run cache memoizes completed experiment runs "
                    "on disk (see docs/simulator.md); re-running an "
                    "unchanged figure sweep is then pure cache hits. "
                    "Disable with REPRO_RUNCACHE=0, relocate with "
                    "REPRO_RUNCACHE_DIR.")
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    cache_sub.add_parser("info", help="show location, entry count, size") \
        .set_defaults(func=cmd_cache)
    cache_sub.add_parser("clear", help="delete every cached run") \
        .set_defaults(func=cmd_cache)

    report_parser = subparsers.add_parser(
        "report", help="print every persisted benchmark table")
    report_parser.add_argument("--results-dir", default="benchmarks/results")
    report_parser.set_defaults(func=cmd_report)

    trace_parser = subparsers.add_parser(
        "trace", help="generate or inspect workload trace files")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    gen = trace_sub.add_parser("generate", help="write a trace to a file")
    gen.add_argument("name", choices=TRACES)
    gen.add_argument("output", help="output path (JSON lines)")
    _flags(gen, "--vms", "--flows", "--seed")
    gen.set_defaults(func=cmd_trace_generate)
    inspect = trace_sub.add_parser("inspect", help="summarize a trace file")
    inspect.add_argument("path")
    inspect.set_defaults(func=cmd_trace_inspect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --workers is threaded explicitly into each command (never via the
    # environment, which would leak into the calling process and any
    # embedding application); REPRO_PARALLEL remains a fallback read by
    # repro.experiments.parallel.default_workers when --workers is absent.
    if args.workers is not None:
        args.workers = max(0, args.workers)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
