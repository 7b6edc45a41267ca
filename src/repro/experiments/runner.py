"""Experiment runner: scheme x trace x topology -> metrics.

This is the harness every benchmark and example builds on.  It owns the
paper's conventions: the cache budget is expressed relative to the VIP
address space (§5 "In-switch memory size"), the scheme factory creates
any scheme by name with that budget, and a run drives a flow list to
completion (bounded by a horizon so pathological configurations —
e.g. Bluebird dropping everything — still terminate).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.baselines import (
    Bluebird,
    Controller,
    DhtStore,
    Direct,
    GwCache,
    LocalLearning,
    NoCache,
    OnDemand,
)
from repro.cache.sizing import aggregate_slots
from repro.experiments.runcache import resolve_cache, run_key
from repro.core import UNIFORM, SwitchV2P, SwitchV2PConfig
from repro.metrics.collector import Collector
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig
from repro.vnet.network import NetworkConfig, VirtualNetwork

#: Factories: scheme name -> callable(total_cache_slots, **kwargs).
#: NoCache/Direct/OnDemand ignore the budget (they have no in-switch
#: caches) but accept it so the sweep code can treat schemes uniformly.
SCHEME_FACTORIES: dict[str, Callable] = {
    "NoCache": lambda slots, **kw: NoCache(),
    "Direct": lambda slots, **kw: Direct(),
    "OnDemand": lambda slots, **kw: OnDemand(**kw),
    "GwCache": lambda slots, **kw: GwCache(slots),
    "LocalLearning": lambda slots, **kw: LocalLearning(slots),
    "Bluebird": lambda slots, **kw: Bluebird(slots, **kw),
    "Controller": lambda slots, **kw: Controller(slots, **kw),
    "DhtStore": lambda slots, **kw: DhtStore(),
    "SwitchV2P": lambda slots, **kw: _make_switchv2p(slots, **kw),
}


def _make_switchv2p(slots: int, config: SwitchV2PConfig | None = None,
                    allocation=UNIFORM, cache_ways: int = 1,
                    **config_kwargs) -> SwitchV2P:
    """Build SwitchV2P from either a config object or loose kwargs."""
    if config is None:
        config = SwitchV2PConfig(**config_kwargs)
    elif config_kwargs:
        raise ValueError("pass either config= or loose config kwargs, not both")
    return SwitchV2P(slots, config, allocation, cache_ways)


def make_scheme(name: str, address_space: int, cache_ratio: float, **kwargs):
    """Instantiate a scheme by name with the paper's budget convention."""
    try:
        factory = SCHEME_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEME_FACTORIES))
        raise ValueError(f"unknown scheme {name!r}; known: {known}") from None
    return factory(aggregate_slots(address_space, cache_ratio), **kwargs)


class _NullTimer:
    """Zero-overhead stand-in when no PhaseTimer is supplied."""

    __slots__ = ()
    _ctx = nullcontext()

    def phase(self, name):
        return self._ctx


_NULL_TIMER = _NullTimer()


@dataclass
class RunResult:
    """Summary of one simulation run."""

    scheme: str
    trace: str
    cache_ratio: float
    hit_rate: float
    avg_fct_ns: float
    p50_fct_ns: float
    p99_fct_ns: float
    avg_first_packet_ns: float
    avg_packet_latency_ns: float
    avg_stretch: float
    gateway_arrivals: int
    packets_sent: int
    completion_rate: float
    misdeliveries: int
    drops: int
    learning_packets: int
    invalidation_packets: int
    reorder_events: int
    total_switch_bytes: int
    pod_bytes: list[int] = field(default_factory=list)
    #: Per-flow availability: how many flows the transport gave up on,
    #: and why (``failure_reason`` -> count).
    failed_flows: int = 0
    failure_reasons: dict[str, int] = field(default_factory=dict)
    #: Simulation fidelity the run used and, for hybrid runs, the fluid
    #: scheduler's bookkeeping (all zero in pure-packet mode).
    fidelity: str = "packet"
    fluid_adoptions: int = 0
    fluid_escalations: int = 0
    fluid_rounds: int = 0
    fluid_packets: int = 0
    fluid_escalations_by_reason: dict[str, int] = field(default_factory=dict)
    collector: Collector | None = None
    network: VirtualNetwork | None = None


def build_network(spec: FatTreeSpec, scheme, num_vms: int, seed: int = 0,
                  gateway_processing_ns: int | None = None,
                  fidelity: str = "packet") -> VirtualNetwork:
    """Create a network with ``num_vms`` VMs placed round-robin."""
    kwargs = {}
    if gateway_processing_ns is not None:
        kwargs["gateway_processing_ns"] = gateway_processing_ns
    config = NetworkConfig(spec=spec, seed=seed, fidelity=fidelity, **kwargs)
    network = VirtualNetwork(config, scheme)
    network.place_vms(num_vms)
    return network


def run_flows(network: VirtualNetwork, flows: Sequence[FlowSpec],
              transport: TransportConfig | None = None,
              horizon_ns: int | None = None,
              keep_network: bool = False,
              trace_name: str = "",
              cache_ratio: float = 0.0,
              perf=None,
              warmup_split_ns: int | None = None) -> RunResult:
    """Play ``flows`` on ``network`` and summarize the metrics.

    Args:
        horizon_ns: hard stop (simulated time); defaults to the last
            flow start plus 200 ms, plenty for every workload here
            while bounding retransmission storms of broken configs.
        keep_network: retain the network/collector on the result for
            detailed analysis (pod byte heatmaps etc.).
        perf: optional :class:`repro.perf.PhaseTimer`; when given, the
            setup and event-loop phases are timed (wall clock only —
            the simulation itself is unaffected).
        warmup_split_ns: when given (memory profiling), run the event
            loop in two timed phases — ``run-warmup`` up to this
            simulated time and ``run-steady`` for the remainder —
            instead of one ``run`` phase.  Running the engine in two
            chunks is event-for-event identical to one call, so the
            simulation result is unchanged.
    """
    if perf is None:
        perf = _NULL_TIMER
    with perf.phase("setup"):
        player = TrafficPlayer(network, transport)
        player.add_flows(flows)
        if horizon_ns is None:
            last_start = max((flow.start_ns for flow in flows), default=0)
            horizon_ns = last_start + msec(200)
    if warmup_split_ns is not None and warmup_split_ns < horizon_ns:
        with perf.phase("run-warmup"):
            network.run(until=warmup_split_ns)
        with perf.phase("run-steady"):
            network.run(until=horizon_ns)
    else:
        with perf.phase("run"):
            network.run(until=horizon_ns)
    fluid = network.fluid
    if fluid is not None and fluid.perf.ns and perf is not _NULL_TIMER:
        # Fold the scheduler's busy clock into the caller's timer; the
        # "run" phase above already includes this time, so profile
        # readers see "fluid" as the in-run share, not extra.
        perf.add("fluid", fluid.perf.ns)
    collector = network.collector
    failed = collector.failed_flows()
    failure_reasons: dict[str, int] = {}
    for record in failed:
        reason = record.failure_reason or "unspecified"
        failure_reasons[reason] = failure_reasons.get(reason, 0) + 1
    return RunResult(
        scheme=getattr(network.scheme, "name", type(network.scheme).__name__),
        trace=trace_name,
        cache_ratio=cache_ratio,
        hit_rate=collector.hit_rate,
        avg_fct_ns=collector.average_fct_ns(),
        p50_fct_ns=collector.percentile_fct_ns(50),
        p99_fct_ns=collector.percentile_fct_ns(99),
        avg_first_packet_ns=collector.average_first_packet_latency_ns(),
        avg_packet_latency_ns=collector.average_packet_latency_ns(),
        avg_stretch=collector.average_stretch(),
        gateway_arrivals=collector.gateway_arrivals,
        packets_sent=collector.packets_sent,
        completion_rate=collector.completion_rate,
        misdeliveries=collector.misdeliveries,
        drops=collector.drops,
        learning_packets=collector.learning_packets,
        invalidation_packets=collector.invalidation_packets,
        reorder_events=collector.reorder_events,
        total_switch_bytes=network.total_switch_bytes(),
        pod_bytes=network.pod_bytes(),
        failed_flows=len(failed),
        failure_reasons=failure_reasons,
        fidelity=network.config.fidelity,
        fluid_adoptions=fluid.adoptions if fluid is not None else 0,
        fluid_escalations=fluid.escalations if fluid is not None else 0,
        fluid_rounds=fluid.rounds if fluid is not None else 0,
        fluid_packets=fluid.fluid_packets if fluid is not None else 0,
        fluid_escalations_by_reason=(
            dict(sorted(fluid.escalations_by_reason.items()))
            if fluid is not None else {}),
        collector=collector if keep_network else None,
        network=network if keep_network else None,
    )


def run_experiment(spec: FatTreeSpec, scheme_name: str, flows: Sequence[FlowSpec],
                   num_vms: int, cache_ratio: float, seed: int = 0,
                   transport: TransportConfig | None = None,
                   horizon_ns: int | None = None,
                   keep_network: bool = False,
                   trace_name: str = "",
                   scheme_kwargs: dict | None = None,
                   perf=None,
                   cache="auto",
                   fidelity: str = "packet",
                   warmup_split_ns: int | None = None) -> RunResult:
    """One-call experiment: build scheme + network, play flows, summarize.

    Results are memoized in the content-addressed run cache
    (:mod:`repro.experiments.runcache`): with ``cache="auto"`` (the
    default) an unchanged run is served from disk without simulating.
    Pass ``cache=None`` to force execution, or a
    :class:`~repro.experiments.runcache.RunCache` for an explicit
    store.  Runs that retain live objects (``keep_network=True``) are
    never cached.
    """
    if perf is None:
        perf = _NULL_TIMER
    store = None if keep_network else resolve_cache(cache)
    key = None
    if store is not None:
        with perf.phase("cache"):
            key = run_key(spec, scheme_name, num_vms, cache_ratio, seed,
                          transport=transport, horizon_ns=horizon_ns,
                          trace_name=trace_name, scheme_kwargs=scheme_kwargs,
                          flows=flows, fidelity=fidelity)
            hit = store.get(key)
        if hit is not None:
            return hit
    with perf.phase("build"):
        scheme = make_scheme(scheme_name, num_vms, cache_ratio,
                             **(scheme_kwargs or {}))
        network = build_network(spec, scheme, num_vms, seed,
                                fidelity=fidelity)
    result = run_flows(network, flows, transport, horizon_ns, keep_network,
                       trace_name, cache_ratio, perf=perf,
                       warmup_split_ns=warmup_split_ns)
    if store is not None:
        store.put(key, result)
    return result
