"""The chaos (fault-injection) experiment: resilience under failures.

The paper's robustness claim is architectural: because SwitchV2P
resolves mappings *in the network*, on the packets' existing paths, a
gateway outage that is catastrophic for gateway-centric designs barely
touches traffic that is already served from switch caches.  This
experiment makes that claim measurable.  Every scheme runs the same
workload twice — once undisturbed, once under an identical
:class:`~repro.faults.FaultSchedule` (a gateway crash with hypervisor
failover, then a spine fail + recover) — and reports the *degradation*:
faulted vs. baseline availability and FCT, the windowed hit-rate dip,
and the time for the hit rate to recover after repair.

Each run is one pool job (:func:`chaos_jobs`); :func:`chaos_rows` sets
each scheme's two results side by side.  Run via ``python -m repro
reproduce faults_resilience``; ``benchmarks/test_tables.py`` also holds
the spine's cold restart in the windowed hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.experiments.parallel import ExperimentJob
from repro.experiments.scenario import (
    DegradationRow,
    ScenarioKnobs,
    chaos_spec,
    random_pair_flows,
)
from repro.faults import FaultSchedule
from repro.sim.engine import msec, usec
from repro.sim.randomness import derive_seed
from repro.transport.flow import FlowSpec

#: Schemes compared, in report order.  SwitchV2P against the strongest
#: gateway-centric baseline (GwCache) and the host-centric one
#: (OnDemand), per the paper's resilience discussion.
CHAOS_SCHEMES: tuple[str, ...] = ("SwitchV2P", "GwCache", "OnDemand")

#: The workload: a few hundred short TCP flows arriving over 10 ms,
#: sampled in 250 us windows.  Shared with the gray experiment.
MIN_FLOW_BYTES = 1_500
MAX_FLOW_BYTES = 12_000
ARRIVAL_SPAN_NS = msec(10)
SAMPLE_PERIOD_NS = usec(250)

#: The fault script's clock: one gateway-rack outage while the flows
#: are in full swing, then a spine fail + recover after the rack is
#: back, so the two disruptions are separable in the windowed
#: timelines.  The failure detector runs on its defaults (200 us
#: probes, three misses): real detectors take several probe periods to
#: declare a gateway dead, and during that ~0.6 ms packets hashed to
#: the crashed gateway black-hole unless the transport (RTO) or an
#: in-network cache hit saves the flow — the window where schemes
#: differ.
GATEWAY_CRASH_NS = msec(2)
GATEWAY_RESTART_NS = msec(5)
SPINE_FAIL_NS = msec(6.5)
SPINE_RECOVER_NS = msec(8)


@dataclass(frozen=True)
class ChaosParams:
    """What callers scale the chaos and gray experiments by.

    Defaults are sized to run in seconds on the 4-pod, two-gateway
    :func:`~repro.experiments.scenario.chaos_spec` fabric; the workload
    shape and each experiment's fault clock are module constants.
    ``schemes`` are the chaos experiment's; the gray experiment runs
    SwitchV2P only and reads none.
    """

    num_vms: int = 64
    num_flows: int = 600
    cache_ratio: float = 16.0
    horizon_ns: int = msec(16)
    seed: int = 0
    schemes: tuple[str, ...] = CHAOS_SCHEMES


def chaos_schedule() -> FaultSchedule:
    """The shared fault script: a gateway-rack outage, then a spine outage.

    The first fault is a rack power loss in gateway pod 0: the gateway
    *and* the ToR above it go down together, then both come back.
    Until the hypervisor-side detector (enabled by ``apply``) fails the
    gateway out of the pool, packets hashed to it black-hole unless an
    in-network cache resolves them first — the window where the
    schemes' architectures diverge (Sailfish-style gateway-ToR caches
    die *with* the rack; fabric-wide caches do not).  After the rack is
    back, spine (1, 0) — a non-gateway pod, so its cache serves tenant
    traffic — fails and recovers, demonstrating cold-restart cache
    flush and down-path rerouting.
    """
    spec = chaos_spec()
    gateway_outage_ns = GATEWAY_RESTART_NS - GATEWAY_CRASH_NS
    schedule = FaultSchedule()
    schedule.gateway_outage(0, GATEWAY_CRASH_NS, gateway_outage_ns)
    schedule.switch_outage("tor", (spec.gateway_pods[0], spec.gateway_rack),
                           GATEWAY_CRASH_NS, gateway_outage_ns)
    schedule.switch_outage("spine", (1, 0), SPINE_FAIL_NS,
                           SPINE_RECOVER_NS - SPINE_FAIL_NS)
    return schedule


def chaos_flows(params: ChaosParams) -> list[FlowSpec]:
    """Short TCP flows between random VM pairs, arrivals over the span."""
    # The raw experiment seed is never used directly: deriving a named
    # stream keeps this draw independent of any other consumer of the
    # same root seed (D102 provenance discipline).
    rng = np.random.default_rng(derive_seed(params.seed, "chaos-flows"))
    return random_pair_flows(rng, params.num_flows, params.num_vms,
                             MIN_FLOW_BYTES, MAX_FLOW_BYTES, ARRIVAL_SPAN_NS)


def chaos_job(params: ChaosParams, scheme_name: str,
              *fct_windows: tuple[int, int]) -> ExperimentJob:
    """One fault-free, probed run of ``scheme_name`` on the
    :func:`chaos_spec` stage, its mean FCT read over the flows starting
    in each of ``fct_windows``; the gray experiment's runs are variants
    of it."""
    return ExperimentJob(
        spec=chaos_spec(), scheme_name=scheme_name,
        flows=tuple(chaos_flows(params)), num_vms=params.num_vms,
        cache_ratio=params.cache_ratio, seed=params.seed,
        horizon_ns=params.horizon_ns, sample_period_ns=SAMPLE_PERIOD_NS,
        fct_windows=fct_windows, scenario=ScenarioKnobs())


def chaos_jobs(params: ChaosParams) -> dict[tuple[str, str], ExperimentJob]:
    """``{(scheme, "baseline" | "faulted"): job}``: every scheme of
    ``params`` without and with the shared fault schedule."""
    faults = tuple(chaos_schedule().events)
    jobs = {}
    for name in params.schemes:
        job = chaos_job(params, name, (GATEWAY_CRASH_NS, GATEWAY_RESTART_NS))
        jobs[name, "baseline"] = job
        jobs[name, "faulted"] = replace(job, faults=faults)
    return jobs


@dataclass(frozen=True)
class ChaosRow(DegradationRow):
    """Baseline-vs-faulted comparison for one scheme.

    The window is the gateway outage: the per-scheme blast radius of
    the gateway failure, isolated from the later spine outage.
    """

    scheme: str

    @property
    def gateway_window_added_ns(self) -> float:
        """Average FCT *added* by the gateway outage (faulted - baseline).

        The absolute harm per affected flow — the headline resilience
        comparison, since the ratio form rewards a scheme for having a
        slow baseline.
        """
        return self.faulted_window_fct_ns - self.baseline_window_fct_ns


def chaos_rows(results: dict) -> list[ChaosRow]:
    """One row per scheme of :func:`chaos_jobs`' results, in order."""
    schemes = dict.fromkeys(name for name, _ in results)
    return [ChaosRow.between(results[name, "baseline"],
                             results[name, "faulted"], scheme=name)
            for name in schemes]
