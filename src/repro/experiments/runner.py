"""Experiment runner: scheme x trace x topology -> metrics.

This is the harness every benchmark and example builds on.  It owns the
paper's conventions: the cache budget is expressed relative to the VIP
address space (§5 "In-switch memory size"), the scheme factory creates
any scheme by name with that budget, and a run drives a flow list to
completion (bounded by a horizon so pathological configurations —
e.g. Bluebird dropping everything — still terminate).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields

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
from repro.core import SwitchV2P
from repro.experiments.scenario import (
    ScenarioKnobs,
    build_scenario,
    window_fct_ns,
)
from repro.faults.oracles import OracleSuite
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.metrics.resilience import ResilienceProbe, ResilienceSummary
from repro.net.node import Layer
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig
from repro.vnet.network import NetworkConfig, VirtualNetwork

#: Factories: scheme name -> callable(total_cache_slots, **kwargs), the
#: kwargs those of the scheme's constructor, and only those: a knob the
#: scheme does not take is a ``TypeError``, not silently dropped.
#: NoCache/Direct/OnDemand/DhtStore ignore the budget (they have no
#: in-switch caches) but accept it so the sweep code can treat schemes
#: uniformly.
SCHEME_FACTORIES: dict[str, Callable] = {
    "NoCache": lambda slots, **kw: NoCache(**kw),
    "Direct": lambda slots, **kw: Direct(**kw),
    "OnDemand": lambda slots, **kw: OnDemand(**kw),
    "GwCache": GwCache,
    "LocalLearning": LocalLearning,
    "Bluebird": Bluebird,
    "Controller": Controller,
    "DhtStore": lambda slots, **kw: DhtStore(**kw),
    "SwitchV2P": SwitchV2P,
}


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


@dataclass
class DetailedRunResult(RunResult):
    """A run's summary plus where its work happened, as plain data.

    Every run returns one.  The two breakdowns are kept out of
    :class:`RunResult` because ``bench`` fingerprints exactly its fields
    against the pinned ``bench/expected.json``.
    """

    #: ``[all hits, first-packet hits]``, each a count per
    #: :class:`~repro.net.node.Layer`, indexed by its value (Table 5).
    layer_hits: list[list[int]] = field(default_factory=list)
    #: Per pod, bytes per switch label, spines then ToRs (Figure 8);
    #: ``pod_bytes`` is their per-pod sums.
    pod_switch_bytes: list[dict[str, int]] = field(default_factory=list)
    #: Arrival time of the last misdelivered packet (Table 4), if any.
    last_misdelivered_ns: int | None = None
    #: A probed run's (``sample_period_ns > 0``) resilience numbers, its
    #: faults split into before / during / after, and its windowed
    #: in-network hit rate as ``[time_ns, value]`` per closed window.
    resilience: ResilienceSummary | None = None
    hit_rate_windows: list[list] = field(default_factory=list)
    #: Mean FCT of the flows starting in each of the run's FCT windows.
    window_fct_ns: list[float] = field(default_factory=list)


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
              trace_name: str = "",
              cache_ratio: float = 0.0,
              perf=None,
              warmup_split_ns: int | None = None) -> DetailedRunResult:
    """Play ``flows`` on ``network`` and summarize the metrics.

    Args:
        horizon_ns: hard stop (simulated time); defaults to the last
            flow start plus 200 ms, plenty for every workload here
            while bounding retransmission storms of broken configs.
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
    # Each switch read once: a read sums its ingress links.
    pod_switch_bytes = network.pod_switch_bytes()
    pod_bytes = [sum(pod.values()) for pod in pod_switch_bytes]
    return DetailedRunResult(
        scheme=network.scheme.name,
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
        total_switch_bytes=sum(pod_bytes) + sum(
            core.stats.bytes for core in network.fabric.cores),
        pod_bytes=pod_bytes,
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
        layer_hits=[[hits[layer] for layer in Layer]
                    for hits in (collector.hits_by_layer,
                                 collector.first_packet_hits_by_layer)],
        pod_switch_bytes=pod_switch_bytes,
        last_misdelivered_ns=collector.last_misdelivered_arrival_ns,
    )


@dataclass(frozen=True)
class ExperimentJob:
    """One simulated run, as picklable plain data: the workload is
    ``flows``, the materialized flow list.  Its one canonical form is
    its run key (:func:`~repro.experiments.runcache.job_key`), a digest
    of these fields.
    """

    spec: FatTreeSpec
    scheme_name: str
    flows: tuple[FlowSpec, ...]
    num_vms: int = 0
    cache_ratio: float = 0.0
    seed: int = 0
    transport: TransportConfig | None = None
    horizon_ns: int | None = None
    trace_name: str = ""
    scheme_kwargs: dict = field(default_factory=dict)
    #: Simulation fidelity ("packet" or "hybrid"); part of the run-cache
    #: key — hybrid and packet runs of the same point must not collide.
    fidelity: str = "packet"
    #: Fault events, applied as one :class:`~repro.faults.FaultSchedule`
    #: (a migration is a ``VM_MIGRATE`` event).
    faults: tuple[FaultEvent, ...] = ()
    #: When positive, a :class:`~repro.metrics.resilience.ResilienceProbe`
    #: samples the run in windows this long.
    sample_period_ns: int = 0
    #: ``(lo, hi)`` flow start-time windows whose mean FCT the result
    #: carries, in order.
    fct_windows: tuple[tuple[int, int], ...] = ()
    #: Build through ``build_scenario`` with these knobs armed, not
    #: through ``build_network``.
    scenario: ScenarioKnobs | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.flows, tuple):
            object.__setattr__(self, "flows", tuple(self.flows))
        if self.num_vms <= 0:
            raise ValueError("ExperimentJob.num_vms must be positive")

    def run(self, perf=None, warmup_split_ns: int | None = None,
            oracles: Sequence[Callable[[VirtualNetwork, OracleSuite], None]]
            | None = None):
        """Simulate this job, never reading or writing the run cache.

        The steps run in one order, which breaks engine ties: build
        (through ``build_scenario`` when ``scenario`` is set), attach a
        probe; given ``oracles`` (empty arms the suite alone), attach an
        :class:`OracleSuite`, its staleness check armed from ``scenario``,
        and call each of ``oracles`` with the network and the suite;
        apply ``faults`` as one schedule, then :func:`run_flows`.  Given
        ``oracles``, the suite watches the schedule and finishes at the
        horizon, and the run returns ``(result, violations)``.
        """
        if perf is None:
            perf = _NULL_TIMER
        with perf.phase("build"):
            scheme = make_scheme(self.scheme_name, self.num_vms,
                                 self.cache_ratio, **self.scheme_kwargs)
            if self.scenario is None:
                network = build_network(self.spec, scheme, self.num_vms,
                                        self.seed, fidelity=self.fidelity)
            else:
                network = build_scenario(
                    scheme, self.num_vms, spec=self.spec,
                    **asdict(self.scenario), seed=self.seed,
                    fidelity=self.fidelity)
            probe = (ResilienceProbe(network, self.sample_period_ns)
                     if self.sample_period_ns > 0 else None)
            suite = None
            if oracles is not None:
                # After placement: the suite snapshots what is published
                # so far and subscribes to every later update.
                suite = OracleSuite(network)
                knobs = self.scenario or ScenarioKnobs()
                if knobs.staleness_bound_ns > 0:
                    suite.configure_staleness(
                        knobs.staleness_bound_ns,
                        audit_period_ns=knobs.anti_entropy_period_ns,
                        check_interval_ns=max(usec(100),
                                              knobs.staleness_bound_ns // 4))
                for inject in oracles:
                    inject(network, suite)
            schedule = None
            if self.faults:
                schedule = FaultSchedule()
                schedule.events.extend(self.faults)
                schedule.apply(network)
                if suite is not None:
                    suite.watch_schedule(schedule)
        result = run_flows(network, self.flows, self.transport,
                           self.horizon_ns, self.trace_name, self.cache_ratio,
                           perf=perf, warmup_split_ns=warmup_split_ns)
        if probe is not None:
            result.resilience = probe.summarize(schedule)
            result.hit_rate_windows = [[sample.time_ns, sample.value]
                                       for sample in probe.hit_rate.samples]
        result.window_fct_ns = [window_fct_ns(network.collector, lo, hi)
                                for lo, hi in self.fct_windows]
        if suite is None:
            return result
        suite.finish(network.engine.now)
        return result, suite.violations

    def describe(self) -> str:
        """What a failure report calls this job: scheme, cache ratio,
        trace and seed, then every other field off its default but the
        fabric and the workload, the faults by count and kind."""
        text = (f"{self.scheme_name} (cache ratio {self.cache_ratio:g}, "
                f"trace {self.trace_name or 'unnamed'}, seed {self.seed}")
        for knob in fields(self):
            value = getattr(self, knob.name)
            if knob.name in _DESCRIBED or value == (
                    knob.default if knob.default_factory is MISSING
                    else knob.default_factory()):
                continue
            if knob.name == "faults":
                kinds = Counter(event.kind.value for event in value)
                value = "[" + ", ".join(f"{count} {kind}" for kind, count
                                        in kinds.items()) + "]"
            text += f", {knob.name} {value}"
        return text + ")"


#: What :meth:`ExperimentJob.describe` names first, or not at all: the
#: fabric (``spec``, ``num_vms``, ``transport``) does not tell one job of a
#: table from another.
_DESCRIBED = ("scheme_name", "cache_ratio", "seed", "trace_name", "flows",
              "spec", "num_vms", "transport")
