"""The always-on service driver: churn + maintenance + streaming SLOs.

Every other experiment in this repo is a short seeded episode; the
service driver runs the same simulated datacenter as *infrastructure*:
tenants arrive as a Poisson process, live for an exponential lifetime
and depart (their VMs retired, their VIPs never reused), VMs migrate in
the background, and the fabric rotates through planned maintenance
windows (:mod:`repro.service.maintenance`) — all while a
:class:`~repro.metrics.streaming.WindowedCollector` emits per-window
SLO metrics in O(window) memory and an always-on
:class:`~repro.faults.oracles.OracleSuite` checks the protocol
invariants continuously.

An invariant violation fails fast: the engine stops mid-run and a JSON
reproducer artifact is written in the same spirit as the chaos fuzzer's
(``python -m repro serve --replay`` re-runs it exactly — the whole run
derives from the :class:`~repro.service.config.ServiceConfig`, so the
config *is* the reproducer).

Everything random draws from the network's named
:class:`~repro.sim.randomness.RandomStreams`; a config replays
bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.runner import make_scheme
from repro.experiments.scenario import build_scenario
from repro.faults.oracles import OracleSuite, OracleViolation
from repro.faults.schedule import FaultSchedule
from repro.metrics.streaming import WindowedCollector, WindowStats
from repro.service.config import ServiceConfig
from repro.service.maintenance import (
    MaintenanceEvent,
    build_maintenance,
    measure_recovery,
)
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig
from repro.vnet.network import VirtualNetwork

_ARTIFACT_FORMAT = "repro-serve-reproducer"
_ARTIFACT_VERSION = 1

#: Drain extensions granted before declaring the run undrainable; each
#: extension is one full give-up ladder, so a healthy run never needs
#: more than the first.
_MAX_DRAIN_ROUNDS = 6


class _Tenant:
    """One tenant's lifecycle state (driver-internal)."""

    __slots__ = ("tid", "vips", "records", "arrived_ns", "departed_ns",
                 "departing", "retired")

    def __init__(self, tid: int, vips: list[int], arrived_ns: int) -> None:
        self.tid = tid
        self.vips = vips
        #: Records of still-settling flows; drained entries are dropped
        #: at each window close so the list stays O(in-flight).
        self.records = []
        self.arrived_ns = arrived_ns
        self.departed_ns = None
        self.departing = False
        self.retired = False


@dataclass
class ServiceResult:
    """Everything one service run produced."""

    config: ServiceConfig
    windows: list[WindowStats]
    maintenance: list
    violations: tuple[OracleViolation, ...]
    horizon_ns: int
    tenants_admitted: int
    tenants_departed: int
    tenants_retired: int
    migrations: int
    flows_started: int
    flows_completed: int
    flows_failed: int
    failure_reasons: dict[str, int] = field(default_factory=dict)
    fct_p50_ns: float = float("inf")
    fct_p99_ns: float = float("inf")
    peak_retained_records: int = 0
    gateway_failovers: int = 0
    gateway_reinstatements: int = 0
    audit_sweeps: int = 0
    audit_repairs: int = 0
    reproducer_path: str | None = None

    @property
    def clean(self) -> bool:
        return not self.violations


class ServiceDriver:
    """Runs one :class:`ServiceConfig` to completion (or first violation).

    Args:
        config: the run description.
        artifact_dir: where to write the reproducer artifact on an
            invariant violation (no artifact is written when None).
        on_window: optional callback receiving each closed
            :class:`WindowStats` (the CLI's live timeline hook).
    """

    def __init__(self, config: ServiceConfig, artifact_dir=None,
                 on_window=None) -> None:
        self.config = config
        self.artifact_dir = artifact_dir
        self._user_on_window = on_window
        self.network: VirtualNetwork | None = None
        self.collector: WindowedCollector | None = None
        self.player: TrafficPlayer | None = None
        self.suite: OracleSuite | None = None
        self.schedule: FaultSchedule | None = None
        self.maintenance: list[MaintenanceEvent] = []
        self._tenants: list[_Tenant] = []
        self._tenant_hosts = []
        self._next_vip = 0
        self._next_tenant_id = 0
        self._violation: OracleViolation | None = None
        self._reproducer_path: str | None = None
        self.tenants_admitted = 0
        self.tenants_departed = 0
        self.tenants_retired = 0
        self.migrations = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        self.collector = WindowedCollector(
            window_ns=config.window_ns,
            relative_accuracy=config.relative_accuracy,
            on_window=self._on_window)
        # Fail fast from the first violation.  The detector is left to
        # the maintenance schedule's apply(), which starts it with the
        # probe/reinstatement tuning handed to the NetworkConfig here.
        scenario = build_scenario(
            make_scheme(config.scheme, config.address_space,
                        config.cache_ratio),
            collector=self.collector,
            oracles={"hop_bound": config.hop_bound,
                     "on_violation": self._on_violation},
            anti_entropy_period_ns=config.anti_entropy_period_ns,
            staleness_bound_ns=config.staleness_bound_ns,
            staleness_check_ns=min(config.window_ns,
                                   max(config.staleness_bound_ns // 4, 1)),
            seed=config.seed, fidelity=config.fidelity,
            gateway_probe_interval_ns=config.probe_interval_ns,
            gateway_reinstate_timeout_ns=config.reinstate_timeout_ns)
        self.network = scenario.network
        self.suite = scenario.suite
        self._tenant_hosts = scenario.tenant_hosts
        self.collector.attach(self.network)
        self._tenant_rng = self.network.streams.stream("service-tenants")
        self._flow_rng = self.network.streams.stream("service-flows")
        self._migrate_rng = self.network.streams.stream("service-migrate")
        for _ in range(config.initial_tenants):
            self._admit_tenant()
        self.schedule, self.maintenance = build_maintenance(
            self.network.config.spec, config)
        scenario.apply(self.schedule)
        self.player = TrafficPlayer(self.network, TransportConfig(
            max_retransmits=config.max_retransmits,
            max_rto_ns=config.max_rto_ns))
        engine = self.network.engine
        engine.schedule_after(self._exp(self._tenant_rng,
                                        config.tenant_arrival_period_ns),
                              self._arrival_tick)
        engine.schedule_after(self._exp(self._migrate_rng,
                                        config.migration_period_ns),
                              self._migrate_tick)

    @staticmethod
    def _exp(rng, period_ns: int) -> int:
        """An exponential inter-arrival delay (>= 1 ns)."""
        return max(1, int(rng.exponential(period_ns)))

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def _serving(self) -> list[_Tenant]:
        return [t for t in self._tenants if not t.departing and not t.retired]

    def _admit_tenant(self) -> None:
        config = self.config
        rng = self._tenant_rng
        engine = self.network.engine
        vips = []
        for _ in range(int(rng.integers(config.min_vms_per_tenant,
                                        config.max_vms_per_tenant + 1))):
            host = self._tenant_hosts[int(rng.integers(
                0, len(self._tenant_hosts)))]
            self.network.place_vm(self._next_vip, host)
            vips.append(self._next_vip)
            self._next_vip += 1
        tenant = _Tenant(self._next_tenant_id, vips, engine.now)
        self._next_tenant_id += 1
        self._tenants.append(tenant)
        self.tenants_admitted += 1
        engine.schedule_after(self._exp(self._flow_rng, config.flow_period_ns),
                              self._flow_tick, tenant)
        engine.schedule_after(self._exp(rng, config.tenant_lifetime_ns),
                              self._depart_tenant, tenant)

    def _depart_tenant(self, tenant: _Tenant) -> None:
        if tenant.departing or tenant.retired:
            return
        engine = self.network.engine
        if len(self._serving()) <= 1 and engine.now < self.config.duration_ns:
            # Never empty the service mid-run; try again one lifetime on.
            engine.schedule_after(
                self._exp(self._tenant_rng, self.config.tenant_lifetime_ns),
                self._depart_tenant, tenant)
            return
        tenant.departing = True
        tenant.departed_ns = engine.now
        self.tenants_departed += 1

    def _retire_departed(self) -> None:
        """Retire departing tenants whose flows have fully drained."""
        for tenant in self._tenants:
            if not tenant.departing or tenant.retired:
                continue
            tenant.records = [r for r in tenant.records
                              if not self.player.flow_is_quiescent(r)]
            if tenant.records:
                continue
            for vip in tenant.vips:
                self.player.release_vip(vip)
                self.network.retire_vm(vip)
            tenant.retired = True
            self.tenants_retired += 1
        self._tenants = [t for t in self._tenants if not t.retired]

    def _arrival_tick(self) -> None:
        engine = self.network.engine
        if engine.now >= self.config.duration_ns:
            return
        if len(self._serving()) < self.config.max_tenants:
            self._admit_tenant()
        engine.schedule_after(
            self._exp(self._tenant_rng, self.config.tenant_arrival_period_ns),
            self._arrival_tick)

    # ------------------------------------------------------------------
    # workload + churn processes
    # ------------------------------------------------------------------
    def _flow_tick(self, tenant: _Tenant) -> None:
        if tenant.departing or tenant.retired:
            return
        engine = self.network.engine
        if engine.now >= self.config.duration_ns:
            return
        config = self.config
        rng = self._flow_rng
        vips = tenant.vips
        src = int(rng.integers(0, len(vips)))
        dst = int(rng.integers(0, len(vips) - 1))
        if dst >= src:
            dst += 1
        record = self.player.add_flows([FlowSpec(
            src_vip=vips[src], dst_vip=vips[dst],
            size_bytes=int(rng.integers(config.min_flow_bytes,
                                        config.max_flow_bytes + 1)),
            start_ns=engine.now)])[0]
        tenant.records.append(record)
        engine.schedule_after(self._exp(rng, config.flow_period_ns),
                              self._flow_tick, tenant)

    def _migrate_tick(self) -> None:
        engine = self.network.engine
        if engine.now >= self.config.duration_ns:
            return
        rng = self._migrate_rng
        serving = self._serving()
        if serving:
            tenant = serving[int(rng.integers(0, len(serving)))]
            vip = tenant.vips[int(rng.integers(0, len(tenant.vips)))]
            host = self._tenant_hosts[int(rng.integers(
                0, len(self._tenant_hosts)))]
            if self.network.database.get(vip) is not None:
                self.network.migrate(vip, host)
                self.migrations += 1
        engine.schedule_after(
            self._exp(rng, self.config.migration_period_ns),
            self._migrate_tick)

    # ------------------------------------------------------------------
    # always-on monitoring hooks
    # ------------------------------------------------------------------
    def _on_window(self, stats: WindowStats) -> None:
        # The collector already retired its terminal records; drop the
        # matching transport state and settle tenant departures, then
        # run the mid-run-safe oracles so a violation surfaces within
        # one window of its cause.
        self.player.prune_terminal()
        self._retire_departed()
        self.suite.periodic_check()
        if self._user_on_window is not None:
            self._user_on_window(stats)

    def _on_violation(self, violation: OracleViolation) -> None:
        if self._violation is not None:
            return
        self._violation = violation
        if self.artifact_dir is not None:
            self._reproducer_path = str(write_reproducer(
                Path(self.artifact_dir)
                / f"serve-repro-{self.config.scheme}-{violation.oracle}.json",
                self.config, violation, self.schedule))
        self.network.engine.stop()

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> ServiceResult:
        self._build()
        engine = self.network.engine
        engine.run(until=self.config.duration_ns)
        horizon = engine.now
        if self._violation is None:
            horizon = self._drain()
        self.collector.detach()
        self.collector.flush()
        self.network.finalize()
        if self._violation is None:
            # Fail-fast runs skip the horizon oracles: the engine was
            # stopped mid-flight, so liveness/conservation would report
            # the interruption itself rather than a protocol bug.
            self.suite.finish(horizon)
        return self._result(horizon)

    def _drain(self) -> int:
        """Let in-flight flows reach terminal states after arrivals stop."""
        engine = self.network.engine
        horizon = self.config.duration_ns
        grace = self.config.drain_grace_ns()
        for _ in range(_MAX_DRAIN_ROUNDS):
            if self._violation is not None or self._quiescent():
                break
            horizon += grace
            engine.run(until=horizon)
        return horizon

    def _quiescent(self) -> bool:
        if self.collector.unterminated_flows():
            return False
        return all(self.player.flow_is_quiescent(record)
                   for record in self.player.flows)

    def _result(self, horizon_ns: int) -> ServiceResult:
        collector = self.collector
        live_completed = sum(1 for r in collector.flows.values() if r.completed)
        live_failed = sum(1 for r in collector.flows.values() if r.failed)
        reasons = dict(collector.failure_reason_totals)
        detector = self.network.failure_detector
        return ServiceResult(
            config=self.config,
            windows=list(collector.windows),
            maintenance=measure_recovery(collector.windows, self.maintenance),
            violations=tuple(self.suite.violations),
            horizon_ns=horizon_ns,
            tenants_admitted=self.tenants_admitted,
            tenants_departed=self.tenants_departed,
            tenants_retired=self.tenants_retired,
            migrations=self.migrations,
            flows_started=collector.flows_started_total,
            flows_completed=collector.completed_total + live_completed,
            flows_failed=collector.failed_total + live_failed,
            failure_reasons=reasons,
            fct_p50_ns=collector.fct_sketch.quantile(0.50),
            fct_p99_ns=collector.fct_sketch.quantile(0.99),
            peak_retained_records=collector.peak_retained_records,
            gateway_failovers=self.network.gateway_failovers,
            gateway_reinstatements=(detector.reinstatements
                                    if detector is not None else 0),
            audit_sweeps=(self.network.anti_entropy.sweeps
                          if self.network.anti_entropy is not None else 0),
            audit_repairs=(self.network.anti_entropy.repairs
                           if self.network.anti_entropy is not None else 0),
            reproducer_path=self._reproducer_path,
        )


def run_service(config: ServiceConfig | None = None, artifact_dir=None,
                on_window=None) -> ServiceResult:
    """One-call service run (see :class:`ServiceDriver`)."""
    if config is None:
        config = ServiceConfig()
    return ServiceDriver(config, artifact_dir, on_window).run()


# ----------------------------------------------------------------------
# reproducer artifacts (chaos replay format, service flavour)
# ----------------------------------------------------------------------
def write_reproducer(path, config: ServiceConfig, violation: OracleViolation,
                     schedule: FaultSchedule | None) -> Path:
    """Write the artifact ``python -m repro serve --replay`` reads.

    The config alone replays the run (everything derives from it); the
    maintenance schedule is embedded in the chaos serialization format
    so the artifact is hand-inspectable and schema-checked on load.
    """
    path = Path(path)
    payload = {
        "format": _ARTIFACT_FORMAT,
        "version": _ARTIFACT_VERSION,
        "oracle": violation.oracle,
        "detail": violation.detail,
        "time_ns": violation.time_ns,
        "config": config.to_dict(),
        "schedule": schedule.to_dict() if schedule is not None else None,
        "command": f"python -m repro serve --replay {path}",
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def replay_reproducer(path) -> ServiceResult:
    """Re-run a saved service reproducer exactly as recorded."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != _ARTIFACT_FORMAT:
        raise ValueError(f"{path} is not a service reproducer artifact")
    if data.get("version") != _ARTIFACT_VERSION:
        raise ValueError(f"{path} has artifact version {data.get('version')}, "
                         f"this build reads version {_ARTIFACT_VERSION}")
    if data.get("schedule") is not None:
        # Loud schema validation of the embedded schedule; the replay
        # itself regenerates it deterministically from the config.
        FaultSchedule.from_dict(data["schedule"])
    config = ServiceConfig.from_dict(data["config"])
    return run_service(config)
