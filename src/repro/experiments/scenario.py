"""The one fault scenario behind the fault tables and the chaos fuzzer.

The chaos and gray experiments' pool jobs (:mod:`~repro.experiments.faults`,
:mod:`~repro.experiments.graydegrade`, run by
:func:`~repro.experiments.runner.run_experiment` when a job carries
:class:`ScenarioKnobs`) and the chaos fuzzer
(:mod:`~repro.experiments.chaosfuzz`) share one stage: the two-gateway
fabric of :func:`chaos_spec`, tenants outside the gateway racks, and a
subset of {resilience probe, oracle suite, detector tuning, anti-entropy
audit, staleness oracle} armed before the fault schedule.
:func:`build_scenario` sets it in one fixed order — arming order breaks
engine ties, so it is part of each harness's determinism contract — and
the two scripted experiments share their row arithmetic
(:class:`DegradationRow`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.faults.oracles import OracleSuite
from repro.faults.schedule import FaultSchedule
from repro.metrics.resilience import ResilienceProbe, ResilienceSummary
from repro.net.addresses import pip_pod, pip_rack
from repro.net.topology import FatTreeSpec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig
from repro.vnet.network import NetworkConfig, VirtualNetwork


def chaos_spec() -> FatTreeSpec:
    """A small 4-pod fabric with one gateway in each of two pods.

    Two gateways make gateway failover meaningful (one crash halves
    the fleet instead of erasing it), and the 2x2x2 pods keep a full
    three-scheme, two-run-each comparison inside a few seconds.
    """
    return FatTreeSpec(pods=4, racks_per_pod=2, servers_per_rack=2,
                       spines_per_pod=2, num_cores=2,
                       gateway_pods=(0, 3), gateways_per_pod=1)


def random_pair_flows(rng: np.random.Generator, num_flows: int, num_vms: int,
                      min_bytes: int, max_bytes: int,
                      arrival_span_ns: int) -> list[FlowSpec]:
    """Short flows between random distinct VM pairs, arrivals over the span.

    ``rng`` is derived by the caller under its own stream label, so each
    harness's draw stays independent of other users of its root seed.
    """
    flows = []
    for _ in range(num_flows):
        src = int(rng.integers(0, num_vms))
        dst = int(rng.integers(0, num_vms - 1))
        if dst >= src:
            dst += 1
        flows.append(FlowSpec(
            src_vip=src,
            dst_vip=dst,
            size_bytes=int(rng.integers(min_bytes, max_bytes + 1)),
            start_ns=int(rng.integers(0, arrival_span_ns)),
        ))
    return flows


@dataclass
class Scenario:
    """A built fault scenario: the network and whatever was armed on it."""

    network: VirtualNetwork
    probe: ResilienceProbe | None = None
    suite: OracleSuite | None = None

    def apply(self, schedule: FaultSchedule) -> None:
        """Bind the fault schedule (and the suite's per-event sweeps)."""
        schedule.apply(self.network)
        if self.suite is not None:
            self.suite.watch_schedule(schedule)

    def play(self, flows: Iterable[FlowSpec], horizon_ns: int,
             transport: TransportConfig | None = None) -> None:
        """Inject ``flows`` and run the network to the horizon."""
        TrafficPlayer(self.network, transport).add_flows(flows)
        self.network.run(until=horizon_ns)


@dataclass(frozen=True)
class ScenarioKnobs:
    """What a pool job arms through :func:`build_scenario`, beyond the
    stage itself: detector tuning, the anti-entropy audit and the
    staleness it promises.  The defaults arm none of them."""

    failover: dict[str, Any] | None = None
    anti_entropy_period_ns: int = 0
    staleness_bound_ns: int = 0


def build_scenario(scheme: Any, num_vms: int, *,
                   spec: FatTreeSpec | None = None,
                   sample_period_ns: int = 0,
                   oracles: dict[str, Any] | None = None,
                   failover: dict[str, Any] | None = None,
                   anti_entropy_period_ns: int = 0,
                   staleness_bound_ns: int = 0,
                   staleness_check_ns: int = 0,
                   **config: Any) -> Scenario:
    """Build the ``spec`` network (default :func:`chaos_spec`) and arm
    what the harness asks for.

    Tenants stay out of the gateway racks (as the paper's dedicated
    gateway ToRs do): a gateway-rack outage then severs only the
    translation path, so measured degradation is the scheme's, not
    collateral endpoint loss shared equally by all of them.

    Args:
        num_vms: VIPs ``0..num_vms-1`` go round-robin over the tenant
            hosts.
        sample_period_ns: when positive, attach a ``ResilienceProbe``.
        oracles: ``OracleSuite`` keyword arguments; given, attach one.
        failover: detector tuning; given, start the detector now.
            Otherwise ``FaultSchedule.apply`` starts it, with the
            detector's defaults, for schedules with gateway events.
        anti_entropy_period_ns: when positive, start the audit
            (promising ``staleness_bound_ns``).
        staleness_bound_ns, staleness_check_ns: when the bound is
            positive and a suite is attached, arm its staleness oracle.
        config: other ``NetworkConfig`` fields (``seed``).
    """
    if spec is None:
        spec = chaos_spec()
    network = VirtualNetwork(NetworkConfig(spec=spec, **config), scheme)
    gateway_racks = {(pod, spec.gateway_rack) for pod in spec.gateway_pods}
    tenant_pips = [pip for pip in spec.server_pips()
                   if (pip_pod(pip), pip_rack(pip)) not in gateway_racks]
    for vip in range(num_vms):
        network.database.set(vip, tenant_pips[vip % len(tenant_pips)])
    scenario = Scenario(network)
    if sample_period_ns > 0:
        scenario.probe = ResilienceProbe(network, sample_period_ns)
    if oracles is not None:
        # After placement: the suite snapshots what is published so far
        # and subscribes to every later update.
        scenario.suite = OracleSuite(network, **oracles)
    if failover is not None:
        network.enable_gateway_failover(**failover)
    if anti_entropy_period_ns > 0:
        network.enable_anti_entropy(anti_entropy_period_ns,
                                    staleness_bound_ns=staleness_bound_ns)
    if staleness_bound_ns > 0 and scenario.suite is not None:
        scenario.suite.configure_staleness(
            staleness_bound_ns, audit_period_ns=anti_entropy_period_ns,
            check_interval_ns=staleness_check_ns)
    return scenario


# ----------------------------------------------------------------------
# baseline vs. faulted: the row arithmetic of the scripted experiments
# ----------------------------------------------------------------------
def ratio(value: float, baseline: float) -> float:
    """``value / baseline``; NaN when the baseline is empty or zero."""
    if baseline <= 0 or baseline != baseline:
        return float("nan")
    return value / baseline


def window_fct_ns(collector: Any, start_lo_ns: int, start_hi_ns: int) -> float:
    """Mean FCT of completed flows whose start falls in the window."""
    fcts = [flow.fct_ns for flow in collector.flows.values()
            if flow.fct_ns is not None
            and start_lo_ns <= flow.start_ns < start_hi_ns]
    if not fcts:
        return float("nan")
    return sum(fcts) / len(fcts)


@dataclass(frozen=True)
class DegradationRow:
    """One variant's fault-free run set against its faulted run."""

    baseline: ResilienceSummary
    faulted: ResilienceSummary
    baseline_fct_ns: float
    faulted_fct_ns: float
    #: Average FCT of flows *starting during the fault window* — the
    #: blast radius of the episode, isolated from what follows it.
    baseline_window_fct_ns: float
    faulted_window_fct_ns: float

    @classmethod
    def between(cls, baseline: Any, faulted: Any, **fields: Any):
        """The row of two probed runs' results; the fault window is
        each run's first FCT window.  ``fields`` are the subclass's."""
        for prefix, result in (("baseline", baseline), ("faulted", faulted)):
            fields[prefix] = result.resilience
            fields[f"{prefix}_fct_ns"] = result.avg_fct_ns
            fields[f"{prefix}_window_fct_ns"] = result.window_fct_ns[0]
        return cls(**fields)

    @property
    def availability_drop(self) -> float:
        """Absolute availability lost to the faults (lower is better)."""
        return max(0.0, self.baseline.availability - self.faulted.availability)

    @property
    def fct_degradation(self) -> float:
        """Faulted / baseline average FCT (lower is better, 1.0 = none)."""
        return ratio(self.faulted_fct_ns, self.baseline_fct_ns)
