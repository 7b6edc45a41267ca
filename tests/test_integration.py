"""End-to-end integration tests: paper-level invariants across schemes.

These run a common workload through every scheme on one topology and
assert the *orderings* the paper establishes rather than absolute
numbers — the same orientation as the benchmark harness.
"""

import pytest

from repro.experiments.runner import ExperimentJob
from repro.net.topology import FatTreeSpec
from repro.sim.randomness import RandomStreams
from repro.traces.hadoop import HadoopTraceParams, generate

SPEC = FatTreeSpec(pods=4, racks_per_pod=2, servers_per_rack=2,
                   spines_per_pod=2, num_cores=4, gateway_pods=(1, 3),
                   gateways_per_pod=2)
NUM_VMS = 64


@pytest.fixture(scope="module")
def results():
    params = HadoopTraceParams(num_vms=NUM_VMS, num_flows=600,
                               num_servers=SPEC.num_servers)
    flows = generate(params, RandomStreams(5).stream("trace"))
    out = {}
    for scheme in ("NoCache", "Direct", "OnDemand", "GwCache",
                   "LocalLearning", "SwitchV2P"):
        out[scheme] = ExperimentJob(SPEC, scheme, flows, NUM_VMS,
                                    cache_ratio=8.0, seed=5,
                                    trace_name="hadoop").run()
    return out


def test_all_schemes_complete_all_flows(results):
    for name, result in results.items():
        assert result.completion_rate == 1.0, name


def test_direct_is_the_performance_upper_bound(results):
    direct = results["Direct"].avg_fct_ns
    for name, result in results.items():
        assert direct <= result.avg_fct_ns * 1.001, name


def test_nocache_is_the_gateway_driven_lower_bound(results):
    nocache = results["NoCache"].avg_fct_ns
    for name in ("SwitchV2P", "GwCache", "OnDemand", "Direct"):
        assert results[name].avg_fct_ns <= nocache, name


def test_switchv2p_beats_locallearning(results):
    assert results["SwitchV2P"].hit_rate > results["LocalLearning"].hit_rate
    assert results["SwitchV2P"].avg_fct_ns < results["LocalLearning"].avg_fct_ns


def test_switchv2p_reduces_stretch_below_gwcache(results):
    """Same-ish hit rates but shorter paths (§5.1 FCT vs hit rate)."""
    assert results["SwitchV2P"].avg_stretch < results["GwCache"].avg_stretch


def test_switchv2p_reduces_gateway_load(results):
    assert results["SwitchV2P"].gateway_arrivals < \
        0.7 * results["NoCache"].gateway_arrivals


def test_switchv2p_reduces_total_network_bytes(results):
    """Fig 7's bandwidth-overhead claim: fewer bytes processed overall."""
    assert results["SwitchV2P"].total_switch_bytes < \
        results["NoCache"].total_switch_bytes


def test_direct_within_reach_of_switchv2p_bytes(results):
    """SwitchV2P approaches Direct's byte footprint (paper: +7%); allow
    generous slack at test scale."""
    assert results["SwitchV2P"].total_switch_bytes < \
        2.0 * results["Direct"].total_switch_bytes


def test_gateway_pod_load_reduced(results):
    spec = SPEC
    gateway_pods = spec.gateway_pods
    nocache_gw_bytes = sum(results["NoCache"].pod_bytes[p] for p in gateway_pods)
    v2p_gw_bytes = sum(results["SwitchV2P"].pod_bytes[p] for p in gateway_pods)
    assert v2p_gw_bytes < nocache_gw_bytes


def test_deterministic_rerun(results):
    params = HadoopTraceParams(num_vms=NUM_VMS, num_flows=600,
                               num_servers=SPEC.num_servers)
    flows = generate(params, RandomStreams(5).stream("trace"))
    again = ExperimentJob(SPEC, "SwitchV2P", flows, NUM_VMS,
                          cache_ratio=8.0, seed=5, trace_name="hadoop").run()
    assert again.avg_fct_ns == results["SwitchV2P"].avg_fct_ns
    assert again.hit_rate == results["SwitchV2P"].hit_rate
