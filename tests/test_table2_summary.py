"""The paper's Table 2 ("Summary of experimental results") as tests.

Each row of Table 2 is one qualitative claim; this module re-derives
each at small scale with the same machinery the benchmarks use.  The
benchmarks assert the same properties at larger scale — this is the
fast, always-on version.
"""

import pytest

from repro.core import SwitchV2PConfig
from repro.experiments import (
    migration_jobs,
    parallel_run_experiments,
    run_experiment,
)
from repro.net.topology import FatTreeSpec
from repro.sim.randomness import RandomStreams
from repro.traces.hadoop import HadoopTraceParams, generate
from repro.traces.incast import IncastTraceParams

SPEC = FatTreeSpec(pods=4, racks_per_pod=2, servers_per_rack=2,
                   spines_per_pod=2, num_cores=4, gateway_pods=(1, 3),
                   gateways_per_pod=2)
NUM_VMS = 64
CACHE_RATIO = 8.0


def trace():
    params = HadoopTraceParams(num_vms=NUM_VMS, num_flows=700,
                               num_servers=SPEC.num_servers)
    return generate(params, RandomStreams(9).stream("table2"))


@pytest.fixture(scope="module")
def runs():
    flows = trace()
    out = {}
    for scheme in ("NoCache", "SwitchV2P", "OnDemand"):
        out[scheme] = run_experiment(SPEC, scheme, flows, NUM_VMS,
                                     CACHE_RATIO, seed=9,
                                     trace_name="hadoop")
    # A small-cache SwitchV2P point (1 entry/switch-ish).
    out["SwitchV2P-small"] = run_experiment(
        SPEC, "SwitchV2P", flows, NUM_VMS, 0.5, seed=9, trace_name="hadoop")
    # The role-unaware ablation (Table 2's topology-aware caching row).
    out["SwitchV2P-greedy"] = run_experiment(
        SPEC, "SwitchV2P", flows, NUM_VMS, CACHE_RATIO, seed=9,
        trace_name="hadoop",
        scheme_kwargs={"config": SwitchV2PConfig(role_aware=False)})
    return out


def test_row_application_performance(runs):
    """SwitchV2P reduces FCT and first-packet latency, even when the
    cache is small."""
    nocache, v2p = runs["NoCache"], runs["SwitchV2P"]
    small = runs["SwitchV2P-small"]
    assert v2p.avg_fct_ns < nocache.avg_fct_ns
    assert v2p.avg_first_packet_ns < nocache.avg_first_packet_ns
    assert small.avg_fct_ns <= nocache.avg_fct_ns
    assert small.hit_rate > 0.0


def test_row_updates():
    """SwitchV2P reduces packet latency overheads and misdeliveries."""
    jobs = migration_jobs(
        IncastTraceParams(num_senders=8, packets_per_sender=120))
    rows = dict(zip(jobs, parallel_run_experiments(list(jobs.values()),
                                                   workers=0, cache=None)))
    nocache = rows["NoCache"]
    full = rows["SwitchV2P w/ timestamp vector"]
    ondemand = rows["OnDemand"]
    assert full.avg_packet_latency_ns < nocache.avg_packet_latency_ns
    assert full.misdeliveries < ondemand.misdeliveries
    assert full.last_misdelivered_ns < ondemand.last_misdelivered_ns


def test_row_bandwidth_overheads(runs):
    """SwitchV2P reduces the overall number of processed bytes."""
    assert runs["SwitchV2P"].total_switch_bytes < \
        runs["NoCache"].total_switch_bytes


def test_row_gateway_resources():
    """Fewer gateways, same application performance."""
    flows = trace()
    small_fleet = FatTreeSpec(
        pods=SPEC.pods, racks_per_pod=SPEC.racks_per_pod,
        servers_per_rack=SPEC.servers_per_rack,
        spines_per_pod=SPEC.spines_per_pod, num_cores=SPEC.num_cores,
        gateway_pods=SPEC.gateway_pods, gateways_per_pod=1)
    full = run_experiment(SPEC, "SwitchV2P", flows, NUM_VMS, CACHE_RATIO,
                          seed=9)
    reduced = run_experiment(small_fleet, "SwitchV2P", flows, NUM_VMS,
                             CACHE_RATIO, seed=9)
    assert reduced.avg_fct_ns < 1.2 * full.avg_fct_ns
    assert reduced.completion_rate == 1.0


def test_row_topology_sensitivity():
    """Advantages persist in a scale-up (single-pod) topology."""
    spec = FatTreeSpec(pods=1, racks_per_pod=4, servers_per_rack=4,
                       spines_per_pod=2, num_cores=2, gateway_pods=(0,),
                       gateways_per_pod=2)
    params = HadoopTraceParams(num_vms=NUM_VMS, num_flows=500,
                               num_servers=spec.num_servers)
    flows = generate(params, RandomStreams(9).stream("scaleup"))
    nocache = run_experiment(spec, "NoCache", flows, NUM_VMS, 0.0, seed=9)
    v2p = run_experiment(spec, "SwitchV2P", flows, NUM_VMS, CACHE_RATIO,
                         seed=9)
    assert v2p.avg_fct_ns < nocache.avg_fct_ns
    assert v2p.hit_rate > 0.3


def test_row_topology_aware_caching(runs):
    """Role-aware (core/spine-cooperative) caching is essential."""
    aware, greedy = runs["SwitchV2P"], runs["SwitchV2P-greedy"]
    assert aware.hit_rate > greedy.hit_rate
    assert aware.avg_fct_ns <= greedy.avg_fct_ns


def test_row_switch_resources():
    """Lightweight: implementable with low resource consumption."""
    from repro.hw import (
        TABLE6_ENTRIES_PER_SWITCH,
        estimate_utilization,
        validate_feasibility,
    )
    utilization = estimate_utilization(TABLE6_ENTRIES_PER_SWITCH)
    assert all(value < 30.0 for value in utilization.values())
    assert validate_feasibility(TABLE6_ENTRIES_PER_SWITCH)
