"""Tests for the centralized Controller baseline (Appendix A)."""

from repro.baselines.controller import (
    Controller,
    switch_to_host_hops,
    upward_path,
)
from repro.baselines.nocache import NoCache
from repro.net.node import Layer
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def build(slots=100, **kwargs):
    scheme = Controller(slots, **kwargs)
    network = small_network(scheme, num_vms=8)
    return scheme, network


def test_upward_path_ends_at_gateway_tor():
    scheme, network = build()
    gateway = network.gateways[0]
    src = network.hosts[0]
    path = upward_path(network, src.pip, gateway.pip, flow_id=3)
    assert path[0].layer == Layer.TOR
    # Last switch before the gateway is its ToR.
    spec = network.config.spec
    assert path[-1] is network.fabric.tor_of(1, spec.gateway_rack)


def test_upward_path_deterministic_per_flow():
    scheme, network = build()
    gateway = network.gateways[0]
    src = network.hosts[0]
    a = upward_path(network, src.pip, gateway.pip, flow_id=3)
    b = upward_path(network, src.pip, gateway.pip, flow_id=3)
    assert a == b


def test_switch_to_host_hops():
    scheme, network = build()
    fabric = network.fabric
    host = network.hosts[0]
    tor = fabric.tor_of(0, 0)
    assert switch_to_host_hops(tor, host.pip) == 1
    same_pod_other_rack_host = network.fabric.tors[(0, 1)]
    spine = fabric.spines[(0, 0)]
    assert switch_to_host_hops(spine, host.pip) == 2
    core = fabric.cores[0]
    assert switch_to_host_hops(core, host.pip) == 3


def test_controller_invoked_periodically():
    scheme, network = build(period_ns=usec(100))
    network.engine.run(until=usec(1050))
    assert scheme.invocations == 10


def test_controller_installs_useful_mappings():
    scheme, network = build(period_ns=usec(50))
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=0, dst_vip=5, size_bytes=3_000,
                      start_ns=i * usec(100)) for i in range(10)]
    player.add_flows(flows)
    network.run(until=msec(5))
    assert network.collector.in_network_hits > 0
    assert network.collector.hit_rate > 0


def test_controller_beats_nocache_on_repetitive_traffic():
    def run(scheme):
        network = small_network(scheme, num_vms=8)
        player = TrafficPlayer(network)
        flows = [FlowSpec(src_vip=i % 4, dst_vip=5, size_bytes=3_000,
                          start_ns=i * usec(100)) for i in range(20)]
        player.add_flows(flows)
        network.run(until=msec(10))
        return network.collector.average_fct_ns()

    controller_fct = run(Controller(100, period_ns=usec(50)))
    nocache_fct = run(NoCache())
    assert controller_fct < nocache_fct


def test_greedy_respects_capacity():
    scheme, network = build(slots=10, period_ns=usec(50))  # 1 slot/switch
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=i % 4, dst_vip=4 + (i % 4), size_bytes=2_000,
                      start_ns=i * usec(30)) for i in range(16)]
    player.add_flows(flows)
    network.run(until=msec(5))
    for cache in scheme.caches.values():
        assert cache.occupancy() <= cache.num_slots


def test_milp_matches_greedy_on_small_instance():
    """The exact MILP solution should be at least as good as greedy."""
    greedy_scheme, greedy_network = build(slots=20, period_ns=usec(100),
                                          solver="greedy")
    milp_scheme, milp_network = build(slots=20, period_ns=usec(100),
                                      solver="milp")
    flows = [FlowSpec(src_vip=i % 4, dst_vip=5 + (i % 2), size_bytes=2_000,
                      start_ns=i * usec(50)) for i in range(12)]
    for network in (greedy_network, milp_network):
        player = TrafficPlayer(network)
        player.add_flows(list(flows))
        network.run(until=msec(5))
    greedy_hits = greedy_network.collector.in_network_hits
    milp_hits = milp_network.collector.in_network_hits
    # Both solvers produce functional placements.
    assert greedy_hits > 0
    assert milp_hits > 0


def test_unknown_solver_rejected():
    import pytest
    with pytest.raises(ValueError):
        Controller(10, solver="magic")


def test_reinstall_that_empties_a_cache_escalates_adopted_flows():
    """Hybrid fidelity: ``_install`` clears every cache each period.  A
    placement that shrinks to nothing inserts nothing afterwards, so
    ``clear`` itself must tell the fluid scheduler the line is gone."""
    from repro.experiments.runner import build_network
    from repro.net.topology import FatTreeSpec

    scheme = Controller(4096, period_ns=msec(500))  # never fires here
    network = build_network(FatTreeSpec(), scheme, 64, seed=7,
                            fidelity="hybrid")
    src_tor = network.fabric.tors[(0, 0)]
    assert network.host_of(0).pip in src_tor.host_links
    placement = {src_tor.switch_id: [(1, network.host_of(1).pip),
                                     (0, network.host_of(0).pip)]}
    scheme._install(placement)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=1, size_bytes=30_000_000,
                               start_ns=0)])
    fluid = network.fluid
    network.run(until=usec(150))
    assert fluid.stats_dict()["active_flows"] == 1, "the flow never went fluid"
    assert scheme.caches[src_tor.switch_id].stats.hits > 0
    before = fluid.escalations

    scheme._install({})

    assert scheme.caches[src_tor.switch_id].occupancy() == 0
    assert fluid.escalations == before + 1
    assert fluid.stats_dict()["active_flows"] == 0
    assert fluid.escalations_by_reason["cache-mutation"] >= 1
