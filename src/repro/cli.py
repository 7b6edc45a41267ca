"""Command-line interface: run experiments and reproduce paper artifacts.

Examples::

    python -m repro list
    python -m repro run --trace hadoop --scheme SwitchV2P --cache-ratio 4
    python -m repro reproduce fig5a --ratios 0.5 4 32
    python -m repro reproduce table4_migration --num-senders 64

Every flag that sizes a run is generated from the frozen config it sets
(:func:`_sizing_flags`): field ``num_vms`` is ``--num-vms``, and a flag
naming no field of the config a command builds is an error, never a
no-op (:func:`_sized`).
"""

from __future__ import annotations

import argparse
import math
import sys
import tracemalloc
import typing
from collections.abc import Sequence
from dataclasses import fields, is_dataclass, replace
from typing import Any

from repro.experiments.artifacts import (
    ARTIFACTS,
    artifact_names,
    reproduce,
    resolve,
)
from repro.experiments.chaosfuzz import (
    BUGS,
    CHAOS_FUZZ_SCHEMES,
    ChaosFuzzParams,
    gray_chaos_params,
    run_chaos_fuzz,
)
from repro.experiments.figures import FigureScale, build_trace, figure5_jobs
from repro.experiments.runcache import job_key
from repro.experiments.runner import SCHEME_FACTORIES
from repro.metrics.reporting import failure_breakdown_rows, render_table
from repro.perf import PhaseMemoryTimer, PhaseTimer
from repro.sim.engine import msec

TRACES = ("hadoop", "websearch", "alibaba", "microbursts", "video")

#: The :class:`FigureScale` fields a trace is generated from; ``run``
#: also reads the two that size its transport and Bluebird's channel.
TRACE_FIELDS = ("num_vms", "hadoop_flows", "websearch_flows",
                "microburst_bursts", "video_streams", "alibaba_rpcs",
                "alibaba_services", "alibaba_containers", "seed")
RUN_FIELDS = (*TRACE_FIELDS, "heavy_mss_bytes", "bluebird_punt_ratio")

#: The values a name-valued option accepts, generated flag or not.
_CHOICES = {"fidelity": ("packet", "hybrid"),
            "schemes": tuple(sorted(SCHEME_FACTORIES))}


def _sizing_flags(parser: argparse.ArgumentParser, configs: Sequence[Any],
                  reads: Sequence[str] | None = None) -> None:
    """Add ``--<field-name>`` per scalar or tuple field of ``configs``
    — of ``reads`` only, for a command that reads only those.

    A scalar takes one value and ``tuple[X, ...]`` one or more; a nested
    config is not sized from the command line.  Any other annotation is
    a TypeError naming the field when the parser is built, so ``--help``
    fails, not a run.  Every flag defaults to None, "keep the config's
    default", and its help lists those defaults; :func:`_sized` applies
    the given ones.
    """
    flags: dict[str, tuple[dict, list[str]]] = {}
    for config in configs:
        owner = type(config).__name__
        hints = typing.get_type_hints(type(config))
        for field in fields(config):
            hint = hints[field.name]
            if reads is not None and field.name not in reads \
                    or is_dataclass(hint):
                continue
            kind = {"type": hint}
            if typing.get_origin(hint) is tuple \
                    and typing.get_args(hint)[1:] == (Ellipsis,):
                kind = {"type": typing.get_args(hint)[0], "nargs": "+"}
            if kind["type"] not in (int, float, str):
                raise TypeError(f"{owner}.{field.name}: no command-line flag "
                                f"for a {hint} field")
            flags.setdefault(field.name, (kind, []))[1].append(
                f"{owner} {getattr(config, field.name)}")
    group = parser.add_argument_group(
        "sizing", "fields of " + ", ".join(type(c).__name__ for c in configs)
        + "; a field left out keeps its default")
    for name, (kind, defaults) in flags.items():
        choices = _CHOICES.get(name)
        group.add_argument(
            f"--{name.replace('_', '-')}", dest=name, choices=choices,
            metavar=name.upper(),
            help=(f"one of {', '.join(choices)}; " if choices else "")
            + "default: " + ", ".join(defaults), **kind)
    parser.set_defaults(sizing=tuple(flags), parser=parser)


def _sized(args: argparse.Namespace, config: Any, owner: str) -> Any:
    """``config`` with the sizing flags the user gave applied.

    A flag for a field ``config`` does not have exits 2 naming both:
    ``reproduce`` takes the flags of every artifact's config, and only
    the artifact's own may reach a run.  So does a value the config
    rejects (a ``ValueError`` from its constructor).
    """
    given = {name: getattr(args, name) for name in args.sizing
             if getattr(args, name) is not None}
    known = [field.name for field in fields(config)] if config else []
    sized_by = type(config).__name__ if config else "none"
    for name in given:
        flag = f"--{name.replace('_', '-')}"
        if name not in known:
            args.parser.error(
                f"{flag} names no field of the config {owner} is sized "
                f"by ({sized_by})")
    if not given:
        return config
    try:
        return replace(config, **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in given.items()})
    except ValueError as error:
        args.parser.error(f"{owner}: {error}")


def _progress(label: str):
    """A terminal progress callback, or None off-tty.

    Redraws one status line from ``(done, total, detail)`` ticks.  A
    sweep's ``detail`` is whether the point came from the run cache —
    hits are counted, so a warm re-run visibly reports "all cached";
    a chaos trial's is the label of the trial that just finished.
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
    """One point of the trace's Figure 5 sweep, timed phase by phase."""
    scale = _sized(args, FigureScale(), "run")
    job = figure5_jobs(args.trace, scale, args.fidelity)(args.scheme,
                                                         args.cache_ratio)
    timer = PhaseTimer()
    options: dict[str, Any] = {}
    if args.memory:
        # Traced, uncached, and the event loop split at the end of the
        # cold-start window (last flow start + 10 ms) so build, warmup
        # and steady-state memory show up apart.  The flows are made
        # before tracing starts, so no phase is charged for them.
        # Tracing slows the run: its timings do not compare with
        # untraced ones.
        timer = PhaseMemoryTimer()
        job = replace(job, flows=job.resolve_flows(), trace=None)
        last_start = max((flow.start_ns for flow in job.flows), default=0)
        options = {"cache": None, "warmup_split_ns": last_start + msec(10)}
        tracemalloc.start()
    try:
        result = job.run(perf=timer, **options)
    finally:
        if args.memory:
            tracemalloc.stop()
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
        ["packets sent", result.packets_sent],
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
    for name, ns in sorted(timer.phases_ns.items()):
        print(f"phase {name:<10} {ns / 1e6:12.2f} ms"
              f"  full gc {timer.full_collections.get(name, 0)}")
    for name, entry in sorted(getattr(timer, "memory_by_phase", {}).items()):
        print(f"mem   {name:<10} rss-peak {entry['rss_peak_kb'] / 1024:8.1f}"
              f" MB  py-heap peak {entry['py_peak_kb'] / 1024:8.1f} MB"
              f" (end {entry['py_end_kb'] / 1024:.1f} MB)")
    for reason, count in sorted(result.fluid_escalations_by_reason.items()):
        print(f"escalation {reason:<22} {count:8d}")
    return 0


def _reject_unread(args: argparse.Namespace, entries, config: Any) -> None:
    """Exit 2 for a sizing flag set off its default that leaves every
    run key of ``entries``' jobs unchanged: no run reads it.  A field
    whose default the runs cannot be built with is read by them."""
    def keys(config: Any) -> list[str]:
        return [job_key(job) for entry in entries
                for job in entry.jobs(config).values()]

    default, sized = entries[0].config, keys(config)
    for name in args.sizing:
        if getattr(args, name) is None \
                or getattr(config, name) == getattr(default, name):
            continue
        try:
            unread = keys(replace(
                config, **{name: getattr(default, name)})) == sized
        except ValueError:
            unread = False
        if unread:
            args.parser.error(
                f"--{name.replace('_', '-')}: no run of {args.artifact} "
                f"reads {type(config).__name__}.{name}")


def cmd_reproduce(args: argparse.Namespace) -> int:
    entries = resolve(args.artifact)
    config = _sized(args, entries[0].config, args.artifact)
    _reject_unread(args, entries, config)
    texts = reproduce(entries, config, workers=args.workers,
                      progress=_progress(args.artifact))
    print("\n\n".join(texts.values()))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos fuzzing: random fault schedules vs. the invariant oracles."""
    params = _sized(args, gray_chaos_params() if args.gray
                    else ChaosFuzzParams(), "chaos")
    result = run_chaos_fuzz(args.trials, args.seed, tuple(args.schemes),
                            params, bug=args.bug,
                            shrink=not args.no_shrink,
                            progress=_progress("chaos"))
    trials_run = len({outcome.trial for outcome in result.outcomes})
    if result.clean:
        print(f"chaos: {trials_run} trial(s) x {len(args.schemes)} scheme(s) "
              f"(seed {args.seed}) — all oracles clean")
        return 0
    failure = result.failures[0]
    print(f"chaos: oracle violation in trial {failure.trial} on "
          f"{failure.scheme} (seed {args.seed}, {failure.num_events} "
          "events):")
    for violation in failure.violations:
        print(f"  {violation}")
    if result.shrunk is None:
        print(f"re-running this command reproduces trial {failure.trial}")
        return 1
    print(f"shrunk the schedule to {len(result.shrunk)} event(s):")
    for event in result.shrunk:
        knobs = "".join(f" {name}={getattr(event, name)}" for name in
                        ("loss_rate", "extra_ns", "period_ns", "count", "bit")
                        if getattr(event, name))
        print(f"  {event.at_ns} ns {event.kind.value} {event.target}{knobs}")
    print(f"re-running this command reproduces trial {failure.trial} and "
          f"shrinks to the same {len(result.shrunk)} event(s)")
    return 1


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
    scale = _sized(args, FigureScale(), "trace generate")
    flows, num_vms = build_trace(args.name, scale)
    count = save_flows(args.output, flows)
    print(f"wrote {count} flows over {num_vms} VMs to {args.output}")
    return 0


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.traces.io import load_flows, trace_stats
    try:
        flows = load_flows(args.path)
    except (OSError, ValueError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    stats = trace_stats(flows)
    print(render_table(["statistic", "value"],
                       [[key, value] for key, value in stats.items()]))
    return 0


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

    run_parser = subparsers.add_parser(
        "run", help="run one point of a Figure 5 sweep, timed per phase",
        description="Run one scheme on one trace at one cache size — the "
                    "run the trace's Figure 5 (Figure 6 for alibaba) sweep "
                    "makes for that point — and print its metrics, then the "
                    "wall clock and full collector passes per phase and, "
                    "for hybrid runs, the fluid escalations by reason.")
    run_parser.add_argument("--trace", choices=TRACES, default="hadoop")
    run_parser.add_argument("--scheme", choices=sorted(SCHEME_FACTORIES),
                            default="SwitchV2P")
    run_parser.add_argument("--cache-ratio", type=float, default=4.0,
                            help="aggregate cache size relative to the VIP "
                                 "address space")
    run_parser.add_argument("--fidelity", choices=_CHOICES["fidelity"],
                            default="packet",
                            help="simulation fidelity: per-packet (exact) or "
                                 "hybrid fluid fast path (see "
                                 "docs/simulator.md)")
    run_parser.add_argument("--memory", action="store_true",
                            help="snapshot tracemalloc + peak RSS per phase "
                                 "(build / warmup / steady); slows the run "
                                 "and bypasses the run cache")
    _sizing_flags(run_parser, [FigureScale()], RUN_FIELDS)
    run_parser.set_defaults(func=cmd_run)

    repro_parser = subparsers.add_parser(
        "reproduce", help="regenerate one of the paper's tables/figures",
        description="Regenerate a committed table.  A sizing flag must "
                    "name a field of the config its artifact is sized by: "
                    + "; ".join(
                        f"{entry.name} by {type(entry.config).__name__}"
                        if entry.config else f"{entry.name} by nothing"
                        for entry in ARTIFACTS.values()
                        if not isinstance(entry.config, FigureScale))
                    + "; the rest by FigureScale.")
    repro_parser.add_argument("artifact", choices=artifact_names(),
                              metavar="artifact",
                              help="a file stem under benchmarks/results/ or "
                                   "a short name; see 'repro list'")
    _sizing_flags(repro_parser, list({
        type(entry.config): entry.config
        for entry in ARTIFACTS.values() if entry.config}.values()))
    repro_parser.set_defaults(func=cmd_reproduce)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="chaos fuzzing: random fault schedules vs. invariant oracles",
        description="Sample random fault schedules from the topology and "
                    "run them against each scheme with runtime invariant "
                    "oracles attached (no misdelivery, no forwarding "
                    "loops, packet conservation, cache coherence, "
                    "liveness).  A failing schedule is delta-debugged to "
                    "a minimal event list, which is printed.  "
                    "Deterministic per --seed, so re-running the command "
                    "reproduces a failure.  Exits 1 on any violation.")
    chaos_parser.add_argument("--trials", type=int, default=10,
                              help="fuzzed schedules per scheme (default 10)")
    chaos_parser.add_argument("--seed", type=int, default=1,
                              help="root seed; same seed => same schedules "
                                   "and verdicts (default 1)")
    chaos_parser.add_argument("--schemes", nargs="+",
                              choices=_CHOICES["schemes"],
                              default=CHAOS_FUZZ_SCHEMES,
                              help="schemes to fuzz (default: SwitchV2P "
                                   "GwCache)")
    chaos_parser.add_argument("--gray", action="store_true",
                              help="fuzz with the gray-failure kinds enabled "
                                   "(degrade/flap/slow/brownout/bitflip) plus "
                                   "the anti-entropy audit and the "
                                   "bounded-staleness oracle")
    chaos_parser.add_argument("--bug", choices=sorted(BUGS),
                              help="inject a deliberate bug (harness "
                                   "self-test; pair disabled-audit with "
                                   "--gray)")
    chaos_parser.add_argument("--no-shrink", action="store_true",
                              help="skip delta-debugging the failing "
                                   "schedule")
    _sizing_flags(chaos_parser, [ChaosFuzzParams()])
    chaos_parser.set_defaults(func=cmd_chaos)

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

    trace_parser = subparsers.add_parser(
        "trace", help="generate or inspect workload trace files")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    gen = trace_sub.add_parser("generate", help="write a trace to a file")
    gen.add_argument("name", choices=TRACES)
    gen.add_argument("output", help="output path (JSON lines)")
    _sizing_flags(gen, [FigureScale()], TRACE_FIELDS)
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
    if args.workers is not None and args.workers < 0:
        parser.error(f"--workers {args.workers}: a worker count is >= 0")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
