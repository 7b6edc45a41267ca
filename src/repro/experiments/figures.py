"""Per-figure/table experiment entry points (paper §5).

Each function regenerates one artifact of the paper's evaluation at a
configurable scale.  Bench-scale defaults keep pure-Python runtimes in
seconds; paper-scale parameters are documented in EXPERIMENTS.md.  The
functions return structured rows; the benchmarks render and print them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.experiments.parallel import ExperimentJob
from repro.experiments.sweeps import (
    SweepRow,
    gateway_count_sweep,
    ratio_jobs,
    run_sweep_jobs,
    sweep_ratios,
    topology_scale_sweep,
)
from repro.net.topology import FatTreeSpec
from repro.traces.spec import TraceSpec
from repro.transport.reliable import TransportConfig


@dataclass(frozen=True)
class FigureScale:
    """Knobs shrinking the paper's experiments to benchmark scale.

    Paper-scale values: ``num_vms=10240``, ``hadoop_flows=99297``,
    cache ratios from 0.01 to 1500, and the FT8-10K / FT16-400K
    topologies of Table 3.  Bench defaults preserve the paper's
    destination-reuse structure (~10 flows per VM for Hadoop, <1 for
    WebSearch) at ~1/30 the flow count, and the cache ratios are chosen
    so the smallest grants SwitchV2P ~1 entry per switch, like the
    paper's 1% point.
    """

    num_vms: int = 640
    hadoop_flows: int = 6000
    websearch_flows: int = 150
    microburst_bursts: int = 350
    video_streams: int = 32
    alibaba_rpcs: int = 3000
    alibaba_services: int = 80
    alibaba_containers: int = 8
    ratios: tuple[float, ...] = (0.125, 0.5, 2.0, 8.0, 32.0)
    seed: int = 1
    #: Jumbo-frame MSS for byte-heavy traces keeps event counts sane.
    heavy_mss_bytes: int = 9000
    #: Bluebird's data-to-control channel is sized relative to offered
    #: load (the paper's 20 Gbps against ~120 Gbps per ToR, a 1:6
    #: ratio); scaled benches keep the ratio so the punt path saturates
    #: as it does at paper scale.
    bluebird_punt_ratio: float = 1 / 6


FIG5_SCHEMES = ("SwitchV2P", "GwCache", "LocalLearning", "OnDemand",
                "Bluebird", "Direct")


def ft8_spec() -> FatTreeSpec:
    """The FT8-10K fabric of Table 3 (gateways in pods 1,3,6,8)."""
    return FatTreeSpec()


def ft16_spec() -> FatTreeSpec:
    """A bench-scale stand-in for FT16-400K: more pods, more gateways."""
    return FatTreeSpec(
        pods=16,
        racks_per_pod=4,
        servers_per_rack=4,
        spines_per_pod=4,
        num_cores=16,
        gateway_pods=tuple(range(0, 16, 2)),
        gateways_per_pod=4,
    )


def fabric_for(trace: str) -> FatTreeSpec:
    """The fabric a trace runs on: FT16 for Alibaba, FT8 for the rest."""
    return ft16_spec() if trace == "alibaba" else ft8_spec()


def trace_spec_for(name: str, scale: FigureScale) -> TraceSpec:
    """The :class:`TraceSpec` describing a named trace at this scale.

    The spec regenerates exactly the flows :func:`build_trace` returns
    (same named RNG stream per :mod:`repro.sim.randomness`), which is
    what lets parallel sweep jobs carry the spec instead of the flows.
    """
    if name == "hadoop":
        return TraceSpec.create("hadoop", scale.seed,
                                num_vms=scale.num_vms,
                                num_flows=scale.hadoop_flows)
    if name == "websearch":
        return TraceSpec.create("websearch", scale.seed,
                                num_vms=scale.num_vms,
                                num_flows=scale.websearch_flows)
    if name == "microbursts":
        return TraceSpec.create("microbursts", scale.seed,
                                num_vms=scale.num_vms,
                                num_bursts=scale.microburst_bursts)
    if name == "video":
        # Longer streams give the 0.5% learning-packet mechanism time
        # to converge, as in the paper's (much longer) video trace.
        return TraceSpec.create("video", scale.seed,
                                num_vms=scale.num_vms,
                                num_streams=scale.video_streams,
                                duration_ns=20_000_000)
    if name == "alibaba":
        return TraceSpec.create(
            "alibaba", scale.seed,
            num_services=scale.alibaba_services,
            containers_per_service=scale.alibaba_containers,
            num_rpcs=scale.alibaba_rpcs)
    raise ValueError(f"unknown trace {name!r}")


def build_trace(name: str, scale: FigureScale) -> tuple[list, int]:
    """Generate a named trace; returns (flows, num_vms)."""
    spec = trace_spec_for(name, scale)
    return spec.materialize(), spec.num_vms


def bluebird_kwargs(flows, spec: FatTreeSpec, scale: FigureScale) -> dict:
    """Scale Bluebird's punt channel to the trace's offered load.

    At paper scale the 20 Gbps channel faces ~120 Gbps of cold-cache
    traffic per ToR; scaled traces offer far less, so the channel is
    resized to keep the same saturation ratio (see FigureScale).
    """
    total_bytes = sum(flow.size_bytes for flow in flows)
    duration_ns = max((flow.start_ns for flow in flows), default=1) + 1
    num_tors = spec.pods * spec.racks_per_pod
    offered_per_tor_bps = total_bytes * 8e9 / duration_ns / num_tors
    punt = max(20e6, offered_per_tor_bps * scale.bluebird_punt_ratio)
    # The punt buffer absorbs the initial windows of the flows that are
    # concurrently cold; scale it with concurrency like the bandwidth
    # (paper scale: 1 MiB against ~100K flows).
    buffer_bytes = max(16_384, int(1_048_576 * len(flows) / 99_297))
    return {"punt_bps": punt, "punt_buffer_bytes": buffer_bytes}


def _transport_for(trace: str, scale: FigureScale) -> TransportConfig | None:
    if trace in ("websearch", "video"):
        return TransportConfig(mss_bytes=scale.heavy_mss_bytes)
    return None


# ----------------------------------------------------------------------
# Figures 5a-5d and 6: cache-size sweeps per trace
# ----------------------------------------------------------------------
def figure5_jobs(trace: str, scale: FigureScale, fidelity: str = "packet",
                 ) -> Callable[[str, float], ExperimentJob]:
    """``job(scheme, ratio)``: the run behind one point of Figure 5 (6
    for Alibaba) at this scale — and all that ``repro run`` runs.

    Byte-heavy traces get the jumbo-MSS transport and Bluebird its punt
    channel sized to the trace's offered load.
    """
    tspec = trace_spec_for(trace, scale)
    spec = fabric_for(trace)
    return ratio_jobs(
        ExperimentJob(spec=spec, scheme_name="NoCache", trace=tspec,
                      num_vms=tspec.num_vms, seed=scale.seed,
                      transport=_transport_for(trace, scale),
                      trace_name=trace, fidelity=fidelity),
        {"Bluebird": bluebird_kwargs(tspec.materialize(), spec, scale)})


def figure5(trace: str, scale: FigureScale | None = None,
            schemes: tuple[str, ...] = FIG5_SCHEMES,
            workers: int | None = None, cache="auto",
            progress=None) -> list[SweepRow]:
    """Hit rate / FCT / first-packet improvement vs cache size."""
    scale = scale or FigureScale()
    return sweep_ratios(figure5_jobs(trace, scale), scale.ratios, schemes,
                        workers=workers, cache=cache, progress=progress)


def figure6(scale: FigureScale | None = None,
            schemes: tuple[str, ...] = FIG5_SCHEMES,
            workers: int | None = None, cache="auto",
            progress=None) -> list[SweepRow]:
    """The Alibaba sweep on the larger FT16-style topology."""
    return figure5("alibaba", scale, schemes, workers, cache, progress)


# ----------------------------------------------------------------------
# Figure 9: gateway-count sweep (Hadoop, 50% cache)
# ----------------------------------------------------------------------
def figure9(scale: FigureScale | None = None, cache_ratio: float = 8.0,
            gateways_per_pod: tuple[int, ...] = (10, 5, 2, 1),
            schemes: tuple[str, ...] = ("SwitchV2P", "GwCache",
                                        "LocalLearning", "NoCache"),
            workers: int | None = None, cache="auto",
            progress=None) -> list[SweepRow]:
    """FCT / first-packet latency as gateways shrink 40 -> 4."""
    scale = scale or FigureScale()

    def trace_factory(spec: FatTreeSpec):
        flows, _ = build_trace("hadoop", scale)
        return flows

    return gateway_count_sweep(
        ft8_spec(), trace_factory, scale.num_vms, gateways_per_pod, schemes,
        cache_ratio, seed=scale.seed, trace_name="hadoop",
        workers=workers, cache=cache, progress=progress)


# ----------------------------------------------------------------------
# Figure 10: topology scaling (Hadoop, 50% cache)
# ----------------------------------------------------------------------
def figure10(scale: FigureScale | None = None, cache_ratio: float = 8.0,
             pods_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
             schemes: tuple[str, ...] = ("SwitchV2P", "GwCache",
                                         "LocalLearning"),
             workers: int | None = None, cache="auto",
             progress=None) -> list[SweepRow]:
    """FCT improvement across pod counts at constant server count."""
    scale = scale or FigureScale()

    def trace_factory(spec: FatTreeSpec):
        flows, _ = build_trace("hadoop", scale)
        return flows

    return topology_scale_sweep(
        pods_values, total_servers=128, racks_per_pod=4,
        trace_factory=trace_factory, num_vms=scale.num_vms, schemes=schemes,
        cache_ratio=cache_ratio, seed=scale.seed, trace_name="hadoop",
        workers=workers, cache=cache, progress=progress)


# ----------------------------------------------------------------------
# Appendix A.2: the Controller baseline on WebSearch
# ----------------------------------------------------------------------
def appendix_controller(scale: FigureScale | None = None,
                        periods_us: tuple[int, ...] = (150, 300),
                        workers: int | None = None, cache="auto",
                        progress=None) -> list[SweepRow]:
    """Controller-vs-SwitchV2P on WebSearch across cache sizes."""
    scale = scale or FigureScale()
    job = figure5_jobs("websearch", scale)

    #: Row label -> (scheme, scheme kwargs): Controller once per period.
    variants: dict[str, tuple[str, dict]] = {"SwitchV2P": ("SwitchV2P", {})}
    for period_us in periods_us:
        variants[f"Controller@{period_us}us"] = (
            "Controller", {"period_ns": period_us * 1000})

    points = [(ratio, replace(job(scheme, ratio), scheme_kwargs=kwargs), 0)
              for ratio in scale.ratios
              for scheme, kwargs in variants.values()]
    rows = run_sweep_jobs([job("NoCache", 0.0)], points, workers=workers,
                          cache=cache, progress=progress)
    labels = list(variants) * len(scale.ratios)
    return [replace(row, scheme=label,
                    result=replace(row.result, scheme=label))
            for row, label in zip(rows, labels)]
