"""The artifact registry: every committed table, declared once.

:data:`ARTIFACTS` has one entry per file under ``benchmarks/results/``,
keyed by the file's stem: the frozen ``config`` it is sized by (a
:class:`FigureScale`, the fault experiments' :class:`ChaosParams`, the
migration incast's :class:`IncastTraceParams`, or ``None`` for a table
nothing sizes), a ``run(config, workers, progress)`` that simulates,
and a pure ``table(result)`` that lays out what ``run`` returned as
``(title, headers, rows)`` — the committed bytes.
``python -m repro reproduce``, every ``benchmarks/test_*.py`` and
``benchmarks/regen_check.py`` print through these entries; nothing else
renders a paper table.  Entries that share a ``run`` (Figure 7's two
files and Figure 8) are simulated once by :func:`reproduce`.
``workers`` and ``progress`` reach every simulation that is a pool job
— the sweeps, Figures 7/8, Table 5 and the Hadoop variant tables
(:func:`_hadoop_runs`); the runs that are not (:func:`_serial`) ignore
them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.core import SwitchV2PConfig
from repro.core.allocation import NAMED_POLICIES
from repro.experiments.faults import ChaosParams, run_chaos_experiment
from repro.experiments.figures import (
    FigureScale,
    appendix_controller,
    build_trace,
    figure5,
    figure5_jobs,
    figure6,
    figure9,
    figure10,
    ft8_spec,
    trace_spec_for,
)
from repro.experiments.graydegrade import run_gray_experiment
from repro.experiments.migration import run_migration_table
from repro.experiments.parallel import (
    ExperimentJob,
    parallel_run_experiments,
)
from repro.experiments.runner import (
    DetailedRunResult,
    RunResult,
    build_network,
    make_scheme,
)
from repro.hw import TABLE6_ENTRIES_PER_SWITCH, estimate_utilization
from repro.metrics.collector import layer_shares
from repro.metrics.reporting import heatmap_rows, render_table
from repro.metrics.timeline import track_hit_rate
from repro.net.node import Layer
from repro.sim.engine import msec, usec
from repro.traces.incast import IncastTraceParams
from repro.transport.player import TrafficPlayer

Table = tuple[str, list[str], list[list]]


@dataclass(frozen=True)
class Artifact:
    """One committed table: how to run it and how to lay it out."""

    name: str
    run: Callable[..., Any]
    table: Callable[[Any], Table]
    #: What ``run`` is sized by, at the committed table's sizes.
    config: Any
    #: The name ``reproduce`` knew this artifact by before the registry.
    short: str = ""
    #: Fields of ``config`` whose default ``run`` insists on, so that
    #: ``reproduce`` takes no flag for them (the gray experiment's schemes).
    fixed: tuple[str, ...] = ()

    def render(self, result: Any) -> str:
        title, headers, rows = self.table(result)
        return render_table(headers, rows, title=title)

    def sized(self, config: Any) -> Any:
        """The config this entry runs at: ``config`` when it is of this
        entry's config type, else the entry's own."""
        return config if type(config) is type(self.config) else self.config


ARTIFACTS: dict[str, Artifact] = {}


#: What most entries are sized by: the figures' bench scale.
_BENCH_SCALE = FigureScale()


def artifact(name: str, run: Callable[..., Any], short: str = "",
             config: Any = _BENCH_SCALE, fixed: tuple[str, ...] = ()):
    """Register the decorated ``table(result)`` as artifact ``name``."""
    def register(table: Callable[[Any], Table]):
        ARTIFACTS[name] = Artifact(name, run, table, config, short, fixed)
        return table
    return register


def _serial(run: Callable[[Any], Any]) -> Callable[..., Any]:
    """Adapt a run that makes no pool jobs — the convergence timeline
    samples a run while it plays, Table 4 migrates VMs in it, Table 6
    simulates nothing — to the registry signature."""
    return lambda config, workers=None, progress=None: run(config)


def _sweep(figure: Callable[..., Any], **fixed: Any) -> Callable[..., Any]:
    return lambda scale, workers=None, progress=None: figure(
        scale=scale, workers=workers, progress=progress, **fixed)


#: ``(label, scheme, cache ratio, scheme kwargs)``
Variant = tuple[Any, str, float, dict | None]


def _hadoop_runs(variants: Callable[[FigureScale], Iterable[Variant]],
                 ) -> Callable[..., dict[Any, DetailedRunResult]]:
    """A registry ``run`` returning ``{label: result}`` for the scale's
    variants, all on its Hadoop trace and FT8, one pool job each (the
    scheme kwargs — allocation policies, configs, way counts — are
    frozen dataclasses and ints, which run keys encode and pickle)."""
    def run(scale: FigureScale, workers=None, progress=None):
        trace = trace_spec_for("hadoop", scale)
        jobs = {label: ExperimentJob(
                    spec=ft8_spec(), scheme_name=scheme,
                    num_vms=trace.num_vms, cache_ratio=ratio, seed=scale.seed,
                    trace_name="hadoop", trace=trace,
                    scheme_kwargs=kwargs or {})
                for label, scheme, ratio, kwargs in variants(scale)}
        return dict(zip(jobs, parallel_run_experiments(
            list(jobs.values()), workers, progress=progress)))
    return run


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


#: Figure 5d leaves out the schemes a zero-reuse UDP trace cannot tell
#: apart and keeps the NoCache row the gateway-load claim is read from.
VIDEO_SCHEMES = ("SwitchV2P", "GwCache", "LocalLearning", "NoCache")

artifact("fig5a_hadoop", _sweep(figure5, trace="hadoop"), "fig5a")(
    _sweep_table("Figure 5a — Hadoop (FT8)"))
artifact("fig5b_microbursts", _sweep(figure5, trace="microbursts"), "fig5b")(
    _sweep_table("Figure 5b — Microbursts (FT8)"))
artifact("fig5c_websearch", _sweep(figure5, trace="websearch"), "fig5c")(
    _sweep_table("Figure 5c — WebSearch (FT8)"))
artifact("fig5d_video", _sweep(figure5, trace="video", schemes=VIDEO_SCHEMES),
         "fig5d")(_sweep_table("Figure 5d — 8K Video (FT8)"))
artifact("fig6_alibaba", _sweep(figure6), "fig6")(
    _sweep_table("Figure 6 — Alibaba RPC (FT16)"))
artifact("appendix_controller", _sweep(appendix_controller), "appendix")(
    _sweep_table("Appendix A.2 — Controller vs SwitchV2P (WebSearch)"))


@artifact("fig9_gateways", _sweep(figure9), "fig9")
def _fig9_table(rows) -> Table:
    return ("Figure 9 — shrinking the gateway fleet (Hadoop)",
            ["#gateways", "scheme", "hit rate", "FCT impr.",
             "first-pkt impr.", "drops"],
            [[int(r.x_value), r.scheme, f"{r.hit_rate:.3f}",
              f"{r.fct_improvement:.2f}",
              f"{r.first_packet_improvement:.2f}", r.result.drops]
             for r in rows])


@artifact("fig10_topology", _sweep(figure10), "fig10")
def _fig10_table(rows) -> Table:
    return ("Figure 10 — topology scaling (Hadoop)",
            ["#pods", "scheme", "hit rate", "FCT impr.", "first-pkt impr."],
            [[int(r.x_value), r.scheme, f"{r.hit_rate:.3f}",
              f"{r.fct_improvement:.2f}",
              f"{r.first_packet_improvement:.2f}"] for r in rows])


# ----------------------------------------------------------------------
# figures 7 and 8: one run, three files
# ----------------------------------------------------------------------
FIG7_SCHEMES = ("NoCache", "LocalLearning", "GwCache", "SwitchV2P", "Direct")
#: The gateway pod Figure 8 looks inside (the paper's pod 8).
FIG8_POD = 7

_run_fig7 = _hadoop_runs(lambda scale: [
    (scheme, scheme, 0.5, None) for scheme in FIG7_SCHEMES])


@artifact("fig7_pod_bytes", _run_fig7, "fig7")
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


@artifact("fig7_heatmap", _run_fig7, "fig7")
def _fig7_heatmap_table(results: dict[str, DetailedRunResult]) -> Table:
    pods = len(next(iter(results.values())).pod_bytes)
    headers, rows = heatmap_rows(
        list(results), [f"p{p + 1}" for p in range(pods)],
        [result.pod_bytes for result in results.values()])
    return "Figure 7 heatmap (darker = more bytes)", headers, rows


@artifact("fig8_switch_bytes", _run_fig7)
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
@artifact("table4_migration", _serial(run_migration_table),
          config=IncastTraceParams(num_senders=16, packets_per_sender=500))
def _table4_table(rows) -> Table:
    base = rows[0]
    return ("Table 4 — VM migration (normalized by NoCache)",
            ["variant", "gateway pkts", "avg pkt latency",
             "last misdelivered [us]", "misdelivered", "invalidations"],
            [[row.label,
              f"{row.gateway_packet_fraction:.1%}",
              f"{row.avg_packet_latency_ns / base.avg_packet_latency_ns:.2f}x",
              f"{(row.last_misdelivered_arrival_ns or 0) / 1000:.0f}",
              f"{row.misdelivered_packets / max(1, base.misdelivered_packets):.1f}x",
              row.invalidation_packets] for row in rows])


TABLE5_TRACES = ("hadoop", "websearch", "alibaba", "microbursts", "video")


def _run_table5(scale: FigureScale, workers=None, progress=None,
                ) -> dict[str, DetailedRunResult]:
    """SwitchV2P at cache=4x on each trace: one Figure 5 point each."""
    jobs = [figure5_jobs(trace, scale)("SwitchV2P", 4.0)
            for trace in TABLE5_TRACES]
    return dict(zip(TABLE5_TRACES, parallel_run_experiments(
        jobs, workers, progress=progress)))


@artifact("table5_hit_distribution", _run_table5, "table5")
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


@artifact("table6_resources", _serial(
    lambda config: estimate_utilization(TABLE6_ENTRIES_PER_SWITCH)), "table6",
    config=None)
def _table6_table(estimate: dict[str, float]) -> Table:
    return ("Table 6 — per-stage resource utilization (cache=50%)",
            ["resource", "paper", "model @50%"],
            [[name, f"{paper:.1f}%", f"{estimate[name]:.1f}%"]
             for name, paper in PAPER_TABLE6.items()])


# ----------------------------------------------------------------------
# beyond the paper's tables: ablations, convergence, reordering, seeds
# ----------------------------------------------------------------------
_allocation_runs = _hadoop_runs(lambda scale: [
    ("NoCache", "NoCache", 0.0, None),
    *((name, "SwitchV2P", 2.0, {"allocation": policy})
      for name, policy in NAMED_POLICIES.items())])


def _run_ablation_allocation(scale: FigureScale, workers=None, progress=None):
    """-> (NoCache baseline, {policy name: result}) at cache=2x."""
    results = _allocation_runs(scale, workers, progress)
    return results.pop("NoCache"), results


@artifact("ablation_allocation", _run_ablation_allocation)
def _ablation_allocation_table(result) -> Table:
    baseline, results = result
    return ("Ablation — memory allocation policies (Hadoop, cache=2x)",
            ["policy", "hit rate", "FCT impr.", "first-pkt impr.", "stretch"],
            [[name, f"{r.hit_rate:.3f}",
              f"{baseline.avg_fct_ns / r.avg_fct_ns:.2f}",
              f"{baseline.avg_first_packet_ns / r.avg_first_packet_ns:.2f}",
              f"{r.avg_stretch:.2f}"] for name, r in results.items()])


WAYS = (1, 2, 4)


@artifact("ablation_cache_geometry", _hadoop_runs(lambda scale: [
    (ways, "SwitchV2P", 2.0, {"cache_ways": ways}) for ways in WAYS]))
def _ablation_geometry_table(results: dict[int, RunResult]) -> Table:
    return ("Ablation — cache geometry (Hadoop, cache=2x)",
            ["geometry", "hit rate", "avg FCT [us]", "stretch"],
            [[f"{ways}-way", f"{r.hit_rate:.3f}",
              f"{r.avg_fct_ns / 1000:.1f}", f"{r.avg_stretch:.2f}"]
             for ways, r in results.items()])


DHT_SCHEMES = ("SwitchV2P", "DhtStore", "NoCache", "Direct")


@artifact("ablation_dht", _hadoop_runs(lambda scale: [
    (scheme, scheme, 16.0, None) for scheme in DHT_SCHEMES]))
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


@artifact("ablation_features", _hadoop_runs(lambda scale: [
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


def _run_convergence(scale: FigureScale) -> dict[str, list[float]]:
    """Windowed in-network hit rate per scheme (Hadoop, cache=8x)."""
    flows, num_vms = build_trace("hadoop", scale)
    duration = max(flow.start_ns for flow in flows)
    window = max(usec(10), duration // 10)
    curves = {}
    for name in CONVERGENCE_SCHEMES:
        network = build_network(ft8_spec(), make_scheme(name, num_vms, 8.0),
                                num_vms, scale.seed)
        timeline = track_hit_rate(network, window)
        TrafficPlayer(network).add_flows(flows)
        network.run(until=duration + msec(50))
        # Keep only the windows covering the active traffic period; the
        # long drain tail has too few packets to be meaningful.
        curves[name] = [sample.value for sample in timeline.samples
                        if sample.time_ns <= duration + window]
    return curves


@artifact("convergence", _serial(_run_convergence))
def _convergence_table(curves: dict[str, list[float]]) -> Table:
    windows = min(10, max(len(values) for values in curves.values()))
    return ("Windowed in-network hit rate over time (Hadoop, cache=8x)",
            ["scheme"] + [f"w{i}" for i in range(windows)],
            [[name] + [f"{v:.2f}" for v in values[:10]]
             for name, values in curves.items()])


@artifact("reordering", _hadoop_runs(lambda scale: [
    (ratio, "SwitchV2P", ratio, None) for ratio in scale.ratios]))
def _reordering_table(results: dict[float, RunResult]) -> Table:
    return ("Packet reordering under SwitchV2P (Hadoop)",
            ["cache(x addr space)", "reorder events", "per packet", "drops"],
            [[ratio, r.reorder_events,
              f"{r.reorder_events / max(1, r.packets_sent):.2%}", r.drops]
             for ratio, r in results.items()])


SEEDS = (1, 2, 3)
SEED_SCHEMES = ("SwitchV2P", "LocalLearning", "OnDemand", "Direct")


def _run_robustness_seeds(scale: FigureScale, workers=None, progress=None):
    """-> {seed: {scheme: SweepRow}}: a compact Figure 5a per seed."""
    rows_by_seed = {}
    for seed in SEEDS:
        rows = figure5("hadoop",
                       FigureScale(num_vms=scale.num_vms // 2,
                                   hadoop_flows=scale.hadoop_flows // 2,
                                   ratios=(8.0,), seed=seed),
                       schemes=SEED_SCHEMES, workers=workers,
                       progress=progress)
        rows_by_seed[seed] = {row.scheme: row for row in rows}
    return rows_by_seed


@artifact("robustness_seeds", _run_robustness_seeds)
def _robustness_seeds_table(rows_by_seed) -> Table:
    return ("Seed robustness (Hadoop, cache=8x)",
            ["seed", "scheme", "hit rate", "FCT impr."],
            [[seed, scheme, f"{row.hit_rate:.3f}",
              f"{row.fct_improvement:.2f}"]
             for seed, by_scheme in rows_by_seed.items()
             for scheme, row in by_scheme.items()])


# ----------------------------------------------------------------------
# fault experiments
# ----------------------------------------------------------------------
@artifact("faults_resilience",
          lambda params, workers=None, progress=None: run_chaos_experiment(
              params, progress=progress), config=ChaosParams())
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


@artifact("gray_degradation",
          lambda params, workers=None, progress=None: run_gray_experiment(
              params, progress=progress), config=ChaosParams(),
          fixed=("schemes",))
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
              row.gray_detections,
              row.gray_reinstatements,
              row.audit_repairs,
              row.corrupted_lines] for row in rows])


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


def reproduce(artifacts: Iterable[Artifact], config: Any,
              workers: int | None = None, progress=None) -> dict[str, str]:
    """Run and render ``artifacts``: ``{file stem: table text}``.

    ``config`` sizes the entries sized by its type; the rest run at
    their own (:meth:`Artifact.sized`).  Entries that share a ``run``
    are simulated once.
    """
    results: dict[Callable, Any] = {}
    texts = {}
    for entry in artifacts:
        if entry.run not in results:
            results[entry.run] = entry.run(entry.sized(config), workers,
                                           progress)
        texts[entry.name] = entry.render(results[entry.run])
    return texts
