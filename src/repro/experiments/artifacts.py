"""The artifact registry: every committed table, declared once.

:data:`ARTIFACTS` has one entry per file under ``benchmarks/results/``,
keyed by the file's stem: the frozen ``config`` it is sized by (a
:class:`FigureScale`, the fault experiments' :class:`ChaosParams`, the
migration incast's :class:`IncastTraceParams`, or ``None`` for a table
nothing sizes), its ``jobs(config) -> {label: ExperimentJob}`` (none
for Table 6, which simulates nothing), a pure ``collect({label:
DetailedRunResult})`` that makes what its table and its benchmark's
shape checks read (a sweep's rows, the fault experiments' degradation
rows), and a pure ``table(result)`` that lays out ``(title, headers,
rows)`` — the committed bytes.  A job is plain data, fault runs
included: its faults are events, its probe a sampling period, and the
worker returns what the tables read.
:func:`simulate` hands the jobs of every entry it is given to one
:func:`~repro.experiments.parallel.parallel_run_experiments` call, which
simulates each distinct run once however many entries list it (Table
5's points are Figure 5 points).  ``python -m repro reproduce``, every
``benchmarks/test_*.py`` and ``benchmarks/regen_check.py`` print
through it; nothing else renders a paper table.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from typing import Any

from repro.core import SwitchV2PConfig
from repro.core.allocation import NAMED_POLICIES
from repro.experiments.faults import ChaosParams, chaos_jobs, chaos_rows
from repro.experiments.figures import FigureScale, build_trace, figure5_jobs
from repro.experiments.graydegrade import gray_jobs, gray_rows
from repro.experiments.migration import migration_jobs
from repro.experiments.parallel import (
    ExperimentJob,
    parallel_run_experiments,
)
from repro.experiments.runner import DetailedRunResult, RunResult
from repro.experiments.sweeps import (
    REFERENCE,
    gateway_sweep,
    ratio_sweep,
    sweep_rows,
    topology_sweep,
)
from repro.hw import TABLE6_ENTRIES_PER_SWITCH, estimate_utilization
from repro.metrics.collector import layer_shares
from repro.metrics.reporting import heatmap_rows, render_table
from repro.net.node import Layer
from repro.sim.engine import msec, usec
from repro.traces.incast import IncastTraceParams

Table = tuple[str, list[str], list[list]]
Jobs = dict[Any, ExperimentJob]

#: What most entries are sized by: the figures' bench scale.
_BENCH_SCALE = FigureScale()


@dataclass(frozen=True)
class Artifact:
    """One committed table: what it simulates and how to lay it out."""

    name: str
    table: Callable[[Any], Table]
    #: ``jobs(config) -> {label: job}``: the runs the table reads ...
    jobs: Callable[[Any], Jobs]
    #: ... and the pure step from ``{label: result}`` to ``table``'s input.
    collect: Callable[[dict], Any] = dict
    #: What the entry is sized by, at the committed table's sizes.
    config: Any = _BENCH_SCALE
    #: The name ``reproduce`` knew this artifact by before the registry.
    short: str = ""

    def render(self, result: Any) -> str:
        title, headers, rows = self.table(result)
        return render_table(headers, rows, title=title)

    def sized(self, *configs: Any) -> Any:
        """The config this entry runs at: the one of ``configs`` of this
        entry's config type, else the entry's own."""
        return next((config for config in configs
                     if type(config) is type(self.config)), self.config)


ARTIFACTS: dict[str, Artifact] = {}


def artifact(name: str, jobs: Callable[[Any], Jobs],
             collect: Callable[[dict], Any] = dict, **fields: Any):
    """Register the decorated ``table(result)`` as artifact ``name``;
    ``fields`` are the other :class:`Artifact` fields."""
    def register(table: Callable[[Any], Table]):
        ARTIFACTS[name] = Artifact(name, table, jobs, collect, **fields)
        return table
    return register


def _hadoop(scale: FigureScale) -> ExperimentJob:
    """NoCache on the scale's Hadoop trace and FT8, for variants of it."""
    return figure5_jobs("hadoop", scale)("NoCache", 0.0)


def _variants(scale: FigureScale,
              variants: Iterable[tuple[Any, str, float, dict]]) -> Jobs:
    """``{label: job}`` of ``(label, scheme, cache ratio, scheme
    kwargs)`` Hadoop variants (the kwargs — allocation policies,
    configs, way counts — are frozen dataclasses and ints, which run
    keys encode and pickle)."""
    base = _hadoop(scale)
    return {label: replace(base, scheme_name=scheme, cache_ratio=ratio,
                           scheme_kwargs=kwargs)
            for label, scheme, ratio, kwargs in variants}


# ----------------------------------------------------------------------
# sweeps: figures 5, 6, 9, 10 and the appendix
# ----------------------------------------------------------------------
SWEEP_HEADERS = ["scheme", "cache(x addr space)", "hit rate",
                 "FCT impr.", "first-pkt impr.", "drops"]


def sweep_rows_table(rows) -> list[list]:
    """Standard formatting for cache-size sweep rows."""
    return [[row.scheme, row.x_value, f"{row.hit_rate:.3f}",
             f"{row.fct_improvement:.2f}",
             f"{row.first_packet_improvement:.2f}", row.result.drops]
            for row in rows]


def _sweep_table(title: str) -> Callable[[Any], Table]:
    return lambda rows: (title, SWEEP_HEADERS, sweep_rows_table(rows))


FIG5_SCHEMES = ("SwitchV2P", "GwCache", "LocalLearning", "OnDemand",
                "Bluebird", "Direct")
#: Figure 5d leaves out the schemes a zero-reuse UDP trace cannot tell
#: apart and keeps the NoCache row the gateway-load claim is read from.
VIDEO_SCHEMES = ("SwitchV2P", "GwCache", "LocalLearning", "NoCache")


def _figure5(trace: str, schemes: tuple[str, ...] = FIG5_SCHEMES,
             ) -> Callable[[FigureScale], Jobs]:
    return lambda scale: ratio_sweep(figure5_jobs(trace, scale),
                                     scale.ratios, schemes)


artifact("fig5a_hadoop", _figure5("hadoop"), sweep_rows, short="fig5a")(
    _sweep_table("Figure 5a — Hadoop (FT8)"))
artifact("fig5b_microbursts", _figure5("microbursts"), sweep_rows,
         short="fig5b")(_sweep_table("Figure 5b — Microbursts (FT8)"))
artifact("fig5c_websearch", _figure5("websearch"), sweep_rows,
         short="fig5c")(_sweep_table("Figure 5c — WebSearch (FT8)"))
artifact("fig5d_video", _figure5("video", VIDEO_SCHEMES), sweep_rows,
         short="fig5d")(_sweep_table("Figure 5d — 8K Video (FT8)"))
artifact("fig6_alibaba", _figure5("alibaba"), sweep_rows, short="fig6")(
    _sweep_table("Figure 6 — Alibaba RPC (FT16)"))


#: Appendix A.2's rows: label -> (scheme, scheme kwargs), the
#: Controller once per re-solving period.
APPENDIX_VARIANTS = {
    "SwitchV2P": ("SwitchV2P", {}),
    **{f"Controller@{period_us}us": ("Controller",
                                     {"period_ns": period_us * 1000})
       for period_us in (150, 300)},
}


def _appendix_jobs(scale: FigureScale) -> Jobs:
    """Controller-vs-SwitchV2P on WebSearch across cache sizes."""
    job = figure5_jobs("websearch", scale)
    jobs = {}
    for ratio in scale.ratios:
        jobs[REFERENCE, ratio] = job("NoCache", 0.0)
        for label, (scheme, kwargs) in APPENDIX_VARIANTS.items():
            jobs[label, ratio] = replace(job(scheme, ratio),
                                         scheme_kwargs=kwargs)
    return jobs


artifact("appendix_controller", _appendix_jobs, sweep_rows, short="appendix")(
    _sweep_table("Appendix A.2 — Controller vs SwitchV2P (WebSearch)"))


# Figures 9 and 10 run Hadoop at 8x the address space (the paper's 50%
# per-switch share, scaled); Figure 10 spreads 128 servers over 1 to 32
# pods of 4 racks.
@artifact("fig9_gateways", lambda scale: gateway_sweep(
    _hadoop(scale), (10, 5, 2, 1),
    ("SwitchV2P", "GwCache", "LocalLearning", "NoCache"), 8.0),
    sweep_rows, short="fig9")
def _fig9_table(rows) -> Table:
    return ("Figure 9 — shrinking the gateway fleet (Hadoop)",
            ["#gateways", "scheme", "hit rate", "FCT impr.",
             "first-pkt impr.", "drops"],
            [[int(r.x_value), r.scheme, f"{r.hit_rate:.3f}",
              f"{r.fct_improvement:.2f}",
              f"{r.first_packet_improvement:.2f}", r.result.drops]
             for r in rows])


@artifact("fig10_topology", lambda scale: topology_sweep(
    _hadoop(scale), (1, 2, 4, 8, 16, 32), total_servers=128, racks_per_pod=4,
    schemes=("SwitchV2P", "GwCache", "LocalLearning"), cache_ratio=8.0),
    sweep_rows, short="fig10")
def _fig10_table(rows) -> Table:
    return ("Figure 10 — topology scaling (Hadoop)",
            ["#pods", "scheme", "hit rate", "FCT impr.", "first-pkt impr."],
            [[int(r.x_value), r.scheme, f"{r.hit_rate:.3f}",
              f"{r.fct_improvement:.2f}",
              f"{r.first_packet_improvement:.2f}"] for r in rows])


# ----------------------------------------------------------------------
# figures 7 and 8: one job list, three files
# ----------------------------------------------------------------------
FIG7_SCHEMES = ("NoCache", "LocalLearning", "GwCache", "SwitchV2P", "Direct")
#: The gateway pod Figure 8 looks inside (the paper's pod 8).
FIG8_POD = 7


def _fig7_jobs(scale: FigureScale) -> Jobs:
    return _variants(scale, [(scheme, scheme, 0.5, {})
                             for scheme in FIG7_SCHEMES])


@artifact("fig7_pod_bytes", _fig7_jobs, short="fig7")
def _fig7_table(results: dict[str, DetailedRunResult]) -> Table:
    pods = len(next(iter(results.values())).pod_bytes)
    return ("Figure 7 — bytes processed per pod (Hadoop, cache=50%); "
            "gateways in pods 1,3,6,8",
            ["scheme"] + [f"pod{p + 1}" for p in range(pods)]
            + ["total MB", "stretch"],
            [[scheme] + [b // 1_000_000 for b in result.pod_bytes]
             + [result.total_switch_bytes // 1_000_000,
                f"{result.avg_stretch:.1f}"]
             for scheme, result in results.items()])


@artifact("fig7_heatmap", _fig7_jobs, short="fig7")
def _fig7_heatmap_table(results: dict[str, DetailedRunResult]) -> Table:
    pods = len(next(iter(results.values())).pod_bytes)
    headers, rows = heatmap_rows(
        list(results), [f"p{p + 1}" for p in range(pods)],
        [result.pod_bytes for result in results.values()])
    return "Figure 7 heatmap (darker = more bytes)", headers, rows


@artifact("fig8_switch_bytes", _fig7_jobs)
def _fig8_table(results: dict[str, DetailedRunResult]) -> Table:
    by_scheme = {scheme: result.pod_switch_bytes[FIG8_POD]
                 for scheme, result in results.items()}
    labels = list(next(iter(by_scheme.values())))
    return ("Figure 8 — bytes (MB) per switch in gateway pod 8 "
            "(Hadoop, cache=50%)",
            ["scheme"] + labels,
            [[scheme] + [by_switch[label] // 1_000_000 for label in labels]
             for scheme, by_switch in by_scheme.items()])


# ----------------------------------------------------------------------
# tables 4, 5, 6
# ----------------------------------------------------------------------
#: Table 4 runs at bench scale: 16 senders stay below NIC saturation.
#: The paper's incast is ``python -m repro reproduce table4_migration
#: --num-senders 64 --packets-per-sender 1000``.
@artifact("table4_migration", migration_jobs,
          config=IncastTraceParams(num_senders=16, packets_per_sender=500))
def _table4_table(results: dict[str, DetailedRunResult]) -> Table:
    base = results["NoCache"]
    return ("Table 4 — VM migration (normalized by NoCache)",
            ["variant", "gateway pkts", "avg pkt latency",
             "last misdelivered [us]", "misdelivered", "invalidations"],
            [[label,
              f"{gateway_packet_fraction(r):.1%}",
              f"{r.avg_packet_latency_ns / base.avg_packet_latency_ns:.2f}x",
              f"{(r.last_misdelivered_ns or 0) / 1000:.0f}",
              f"{r.misdeliveries / max(1, base.misdeliveries):.1f}x",
              r.invalidation_packets] for label, r in results.items()])


def gateway_packet_fraction(result: RunResult) -> float:
    """The share of sent packets a gateway translated (Table 4)."""
    if not result.packets_sent:
        return 0.0
    return result.gateway_arrivals / result.packets_sent


TABLE5_TRACES = ("hadoop", "websearch", "alibaba", "microbursts", "video")


def _table5_jobs(scale: FigureScale) -> Jobs:
    """SwitchV2P at cache=4x on each trace: one Figure 5 point each."""
    return {trace: figure5_jobs(trace, scale)("SwitchV2P", 4.0)
            for trace in TABLE5_TRACES}


@artifact("table5_hit_distribution", _table5_jobs, short="table5")
def _table5_table(results: dict[str, DetailedRunResult]) -> Table:
    layers = (Layer.CORE, Layer.SPINE, Layer.TOR)
    rows = []
    for trace, result in results.items():
        cells = [trace]
        for hits in result.layer_hits:  # all packets, then first packets
            shares = layer_shares(hits)
            cells += [f"{shares[layer]:.1%}" for layer in layers]
        rows.append(cells)
    return ("Table 5 — SwitchV2P cache-hit distribution by layer",
            ["trace", "core", "spine", "tor",
             "core(1st)", "spine(1st)", "tor(1st)"], rows)


#: What the paper's Table 6 reports, per resource, in percent.
PAPER_TABLE6 = {
    "Match Crossbar": 7.2,
    "Meter ALU": 17.5,
    "Gateway": 25.0,
    "SRAM": 3.9,
    "TCAM": 1.7,
    "VLIW Instruction": 10.0,
    "Hash Bits": 4.7,
}


@artifact("table6_resources", lambda _: {},
          lambda _: estimate_utilization(TABLE6_ENTRIES_PER_SWITCH),
          short="table6", config=None)
def _table6_table(estimate: dict[str, float]) -> Table:
    return ("Table 6 — per-stage resource utilization (cache=50%)",
            ["resource", "paper", "model @50%"],
            [[name, f"{paper:.1f}%", f"{estimate[name]:.1f}%"]
             for name, paper in PAPER_TABLE6.items()])


# ----------------------------------------------------------------------
# beyond the paper's tables: ablations, convergence, reordering, seeds
# ----------------------------------------------------------------------
@artifact("ablation_allocation", lambda scale: _variants(scale, [
    ("NoCache", "NoCache", 0.0, {}),
    *((name, "SwitchV2P", 2.0, {"allocation": policy})
      for name, policy in NAMED_POLICIES.items())]))
def _ablation_allocation_table(results: dict[str, RunResult]) -> Table:
    baseline = results["NoCache"]
    return ("Ablation — memory allocation policies (Hadoop, cache=2x)",
            ["policy", "hit rate", "FCT impr.", "first-pkt impr.", "stretch"],
            [[name, f"{r.hit_rate:.3f}",
              f"{baseline.avg_fct_ns / r.avg_fct_ns:.2f}",
              f"{baseline.avg_first_packet_ns / r.avg_first_packet_ns:.2f}",
              f"{r.avg_stretch:.2f}"] for name, r in results.items()
             if name != "NoCache"])


WAYS = (1, 2, 4)


@artifact("ablation_cache_geometry", lambda scale: _variants(scale, [
    (ways, "SwitchV2P", 2.0, {"cache_ways": ways}) for ways in WAYS]))
def _ablation_geometry_table(results: dict[int, RunResult]) -> Table:
    return ("Ablation — cache geometry (Hadoop, cache=2x)",
            ["geometry", "hit rate", "avg FCT [us]", "stretch"],
            [[f"{ways}-way", f"{r.hit_rate:.3f}",
              f"{r.avg_fct_ns / 1000:.1f}", f"{r.avg_stretch:.2f}"]
             for ways, r in results.items()])


DHT_SCHEMES = ("SwitchV2P", "DhtStore", "NoCache", "Direct")


@artifact("ablation_dht", lambda scale: _variants(scale, [
    (scheme, scheme, 16.0, {}) for scheme in DHT_SCHEMES]))
def _ablation_dht_table(results: dict[str, RunResult]) -> Table:
    base = results["NoCache"]
    return ("Ablation — in-switch DHT vs caching (Hadoop, cache=16x)",
            ["scheme", "hit rate", "FCT impr.", "stretch", "gateway pkts"],
            [[name, f"{r.hit_rate:.3f}",
              f"{base.avg_fct_ns / r.avg_fct_ns:.2f}",
              f"{r.avg_stretch:.2f}", r.gateway_arrivals]
             for name, r in results.items()])


#: Each special function of §3 switched off in isolation.
ABLATIONS = (
    ("full protocol", SwitchV2PConfig()),
    ("no learning packets", SwitchV2PConfig(enable_learning_packets=False)),
    ("no spillover", SwitchV2PConfig(enable_spillover=False)),
    ("no promotion", SwitchV2PConfig(enable_promotion=False)),
    ("role-unaware (greedy)", SwitchV2PConfig(role_aware=False)),
)


@artifact("ablation_features", lambda scale: _variants(scale, [
    (label, "SwitchV2P", 2.0, {"config": config})
    for label, config in ABLATIONS]))
def _ablation_features_table(results: dict[str, RunResult]) -> Table:
    return ("Ablation — SwitchV2P features (Hadoop, cache=2x)",
            ["variant", "hit rate", "avg FCT [us]", "first-pkt [us]",
             "stretch"],
            [[label, f"{r.hit_rate:.3f}", f"{r.avg_fct_ns / 1000:.1f}",
              f"{r.avg_first_packet_ns / 1000:.1f}", f"{r.avg_stretch:.2f}"]
             for label, r in results.items()])


CONVERGENCE_SCHEMES = ("SwitchV2P", "LocalLearning")


def _convergence_jobs(scale: FigureScale) -> Jobs:
    """``{(scheme, last window's end): job}``: the Hadoop run at
    cache=8x, sampled in tenths of its arrival span and run 50 ms past
    its last arrival.  Only the windows covering the arrivals are read;
    the long drain tail has too few packets to be meaningful."""
    flows, _ = build_trace("hadoop", scale)
    duration = max(flow.start_ns for flow in flows)
    window = max(usec(10), duration // 10)
    job = figure5_jobs("hadoop", scale)
    return {(name, duration + window): replace(
        job(name, 8.0), horizon_ns=duration + msec(50),
        sample_period_ns=window) for name in CONVERGENCE_SCHEMES}


def _convergence_curves(results: dict) -> dict[str, list[float]]:
    """Windowed in-network hit rate per scheme, up to its last window."""
    return {name: [value for time_ns, value in result.hit_rate_windows
                   if time_ns <= last]
            for (name, last), result in results.items()}


@artifact("convergence", _convergence_jobs, _convergence_curves)
def _convergence_table(curves: dict[str, list[float]]) -> Table:
    windows = min(10, max(len(values) for values in curves.values()))
    return ("Windowed in-network hit rate over time (Hadoop, cache=8x)",
            ["scheme"] + [f"w{i}" for i in range(windows)],
            [[name] + [f"{v:.2f}" for v in values[:10]]
             for name, values in curves.items()])


@artifact("reordering", lambda scale: _variants(scale, [
    (ratio, "SwitchV2P", ratio, {}) for ratio in scale.ratios]))
def _reordering_table(results: dict[float, RunResult]) -> Table:
    return ("Packet reordering under SwitchV2P (Hadoop)",
            ["cache(x addr space)", "reorder events", "per packet", "drops"],
            [[ratio, r.reorder_events,
              f"{r.reorder_events / max(1, r.packets_sent):.2%}", r.drops]
             for ratio, r in results.items()])


SEEDS = (1, 2, 3)
SEED_SCHEMES = ("SwitchV2P", "LocalLearning", "OnDemand", "Direct")


def _seed_jobs(scale: FigureScale) -> Jobs:
    """A compact Figure 5a at cache=8x per seed, as a sweep whose x
    value is the seed."""
    jobs = {}
    for seed in SEEDS:
        job = figure5_jobs("hadoop", FigureScale(
            num_vms=scale.num_vms // 2, hadoop_flows=scale.hadoop_flows // 2,
            seed=seed))
        jobs[REFERENCE, seed] = job("NoCache", 0.0)
        jobs.update(((scheme, seed), job(scheme, 8.0))
                    for scheme in SEED_SCHEMES)
    return jobs


@artifact("robustness_seeds", _seed_jobs, sweep_rows)
def _robustness_seeds_table(rows) -> Table:
    return ("Seed robustness (Hadoop, cache=8x)",
            ["seed", "scheme", "hit rate", "FCT impr."],
            [[row.x_value, row.scheme, f"{row.hit_rate:.3f}",
              f"{row.fct_improvement:.2f}"] for row in rows])


# ----------------------------------------------------------------------
# fault experiments
# ----------------------------------------------------------------------
@artifact("faults_resilience", chaos_jobs, chaos_rows, config=ChaosParams())
def _faults_table(rows) -> Table:
    table = []
    for row in rows:
        recover = row.faulted.time_to_recover_ns
        table.append([
            row.scheme,
            f"{row.baseline.availability:.3f}",
            f"{row.faulted.availability:.3f}",
            f"{row.availability_drop:.3f}",
            f"{row.baseline_fct_ns / 1000:.1f}",
            f"{row.faulted_fct_ns / 1000:.1f}",
            f"{row.fct_degradation:.2f}x",
            f"{row.gateway_window_added_ns / 1000:.1f}",
            f"{row.faulted.before.mean_hit_rate:.3f}",
            f"{row.faulted.during.mean_hit_rate:.3f}",
            f"{row.faulted.after.mean_hit_rate:.3f}",
            f"{recover / 1000:.0f}" if recover is not None else "never",
            row.faulted.gateway_crash_drops
            + row.faulted.gateway_unavailable_drops,
            row.faulted.failed_flows,
        ])
    return ("Chaos — gateway-rack + spine outages "
            "(identical fault schedule per scheme)",
            ["scheme", "avail base", "avail faulted", "avail drop",
             "fct base [us]", "fct faulted [us]", "fct degr",
             "gw-window added [us]", "hit before", "hit during", "hit after",
             "recover [us]", "gw drops", "failed flows"],
            table)


@artifact("gray_degradation", gray_jobs, gray_rows, config=ChaosParams())
def _gray_table(rows) -> Table:
    return ("Graceful degradation — gateway brownout + degraded cable + "
            "cache bit flips (identical gray schedule per variant)",
            ["variant", "avail gray", "fct base [us]", "fct gray [us]",
             "fct degr", "in-window fct [us]", "post-window fct [us]",
             "post-window degr", "hit before", "hit during", "hit after",
             "brownout drops", "failed flows", "gray detects", "reinstates",
             "audit repairs", "flipped lines"],
            [[row.variant,
              f"{row.faulted.availability:.3f}",
              f"{row.baseline_fct_ns / 1000:.1f}",
              f"{row.faulted_fct_ns / 1000:.1f}",
              f"{row.fct_degradation:.2f}x",
              f"{row.faulted_window_fct_ns / 1000:.1f}",
              f"{row.faulted_after_fct_ns / 1000:.1f}",
              f"{row.after_fct_degradation:.2f}x",
              f"{row.faulted.before.mean_hit_rate:.3f}",
              f"{row.faulted.during.mean_hit_rate:.3f}",
              f"{row.faulted.after.mean_hit_rate:.3f}",
              row.faulted.gateway_brownout_drops,
              row.faulted.failed_flows,
              row.faulted.gray_detections,
              row.faulted.gray_reinstatements,
              row.faulted.audit_repairs,
              row.faulted.corrupted_lines] for row in rows])


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------
def resolve(name: str) -> list[Artifact]:
    """The entries a ``reproduce`` name stands for: a file stem names
    its one entry, a pre-registry short name every entry that carries
    it (``fig7`` is both Figure 7 files)."""
    if name in ARTIFACTS:
        return [ARTIFACTS[name]]
    matches = [a for a in ARTIFACTS.values() if a.short == name]
    if not matches:
        raise KeyError(f"unknown artifact {name!r}")
    return matches


def artifact_names() -> list[str]:
    """Every name :func:`resolve` accepts: stems, then short names."""
    shorts = dict.fromkeys(a.short for a in ARTIFACTS.values() if a.short)
    return [*ARTIFACTS, *shorts]


def simulate(artifacts: Iterable[Artifact], *configs: Any,
             workers: int | None = None, progress=None) -> dict[str, Any]:
    """``{file stem: what its table reads}`` for ``artifacts``.

    Each entry runs at the one of ``configs`` of its config type, else
    at its own (:meth:`Artifact.sized`).  The jobs of every entry are
    one :func:`parallel_run_experiments` call, so a run that several
    entries list is simulated once; ``workers`` and ``progress`` are
    that call's.
    """
    listed = [(entry, entry.jobs(entry.sized(*configs)))
              for entry in artifacts]
    results = iter(parallel_run_experiments(
        [job for _, jobs in listed for job in jobs.values()],
        workers, progress=progress))
    return {entry.name: entry.collect({label: next(results)
                                       for label in jobs})
            for entry, jobs in listed}


def reproduce(artifacts: Iterable[Artifact], *configs: Any,
              workers: int | None = None, progress=None) -> dict[str, str]:
    """Simulate and render ``artifacts``: ``{file stem: table text}``;
    arguments as for :func:`simulate`."""
    artifacts = list(artifacts)
    simulated = simulate(artifacts, *configs, workers=workers,
                         progress=progress)
    return {entry.name: entry.render(simulated[entry.name])
            for entry in artifacts}
