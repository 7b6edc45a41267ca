"""Tests for the virtual-network layer: mappings, gateways, hosts, migration."""

from collections import Counter

import pytest

from repro.baselines.nocache import NoCache
from repro.net.addresses import pip_pod, pip_rack
from repro.net.node import ecmp_index
from repro.net.packet import Packet, PacketKind
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer
from repro.vnet.mapping import MappingDatabase, MappingError

from conftest import small_network, tiny_spec


# ----------------------------------------------------------------------
# mapping database
# ----------------------------------------------------------------------
def test_mapping_set_and_lookup():
    db = MappingDatabase()
    db.set(1, 100)
    assert db.lookup(1) == 100
    assert 1 in db
    assert len(db) == 1
    assert 2 not in db
    with pytest.raises(MappingError):
        db.lookup(2)


def test_mapping_get_returns_none_for_missing():
    db = MappingDatabase()
    assert db.get(42) is None


def test_mapping_version_and_update_counters():
    db = MappingDatabase()
    assert db.version == 0
    db.set(1, 100)
    db.set(1, 200)
    db.set(2, 300)
    assert db.version == 3  # every write counts, a re-write of a VIP too


def test_mapping_listeners_observe_updates():
    db = MappingDatabase()
    events = []
    db.subscribe(lambda vip, old, new: events.append((vip, old, new)))
    db.set(1, 100)
    db.set(1, 200)
    assert events == [(1, -1, 100), (1, 100, 200)]


# ----------------------------------------------------------------------
# network construction and placement
# ----------------------------------------------------------------------
def test_network_build_counts():
    network = small_network(NoCache(), num_vms=8)
    spec = network.config.spec
    assert len(network.hosts) == spec.num_servers
    assert len(network.gateways) == spec.num_gateways
    assert len(network.database) == 8


def test_round_robin_placement_is_uniform():
    network = small_network(NoCache(), num_vms=16)  # 8 servers -> 2 each
    runs = Counter(network.host_of(vip) for vip in range(16))
    assert [runs[host] for host in network.hosts] == [2] * len(network.hosts)


def test_host_of_resolves_current_location():
    network = small_network(NoCache(), num_vms=8)
    for vip in range(8):
        host = network.host_of(vip)
        assert host is network.hosts[vip]
        assert host.pip == network.database.lookup(vip)


def test_gateway_for_is_deterministic_per_flow():
    network = small_network(NoCache(), num_vms=8)
    assert network.gateway_for(7) is network.gateway_for(7)


def test_gateway_for_is_the_ecmp_pick_of_the_live_pool():
    """Per flow, the live pool indexed by ``ecmp_index``, through every
    pool change (the pick is arithmetic, nothing is memoized)."""
    network = small_network(NoCache(), num_vms=8, spec=FatTreeSpec())
    salt = network._gateway_salt

    def expected(flow_id):
        pool = network.live_gateways
        return pool[ecmp_index(flow_id, salt, len(pool))]

    flows = range(0, 4_000, 7)
    assert all(network.gateway_for(f) is expected(f) for f in flows)
    down = network.gateways[1]
    network.mark_gateway_down(down)
    assert all(network.gateway_for(f) is expected(f) for f in flows)
    assert all(network.gateway_for(f) is not down for f in flows)
    network.mark_gateway_up(down)
    assert all(network.gateway_for(f) is expected(f) for f in flows)
    for gateway in list(network.live_gateways):
        network.mark_gateway_down(gateway)
    assert network.gateway_for(7) is None


def test_gateway_attached_in_gateway_pod():
    network = small_network(NoCache(), num_vms=8)
    spec = network.config.spec
    for gateway in network.gateways:
        assert pip_pod(gateway.pip) in spec.gateway_pods
        assert pip_rack(gateway.pip) == spec.gateway_rack


def test_no_gateways_is_an_error():
    with pytest.raises(ValueError):
        small_network(NoCache(), spec=tiny_spec(gateways_per_pod=0))


# ----------------------------------------------------------------------
# migration
# ----------------------------------------------------------------------
def test_migrate_moves_vm_and_installs_follow_me():
    network = small_network(NoCache(), num_vms=8)
    old_host = network.host_of(0)
    target = next(h for h in network.hosts if h is not old_host)
    network.migrate(0, target)
    assert network.host_of(0) is target
    assert old_host.follow_me == {0: target.pip}
    assert target.follow_me is None
    assert network.database.lookup(0) == target.pip


def test_migrate_moves_endpoint():
    """An endpoint is keyed by its VIP: after a migration the new host
    delivers to it and the old one misdelivers."""
    network = small_network(NoCache(), num_vms=8)
    old_host = network.host_of(0)
    delivered = []
    network.endpoints[0] = type(
        "E", (), {"on_packet": staticmethod(delivered.append)})
    target = next(h for h in network.hosts if h is not old_host)
    network.migrate(0, target)
    packets = [Packet(PacketKind.DATA, flow_id=1, seq=seq, payload_bytes=64,
                      src_vip=1, dst_vip=0, outer_src=0) for seq in (0, 1)]
    target.receive(packets[0])
    old_host.receive(packets[1])
    assert delivered == [packets[0]]
    assert (target.misdeliveries, old_host.misdeliveries) == (0, 1)


def test_migrate_to_same_host_is_noop():
    network = small_network(NoCache(), num_vms=8)
    host = network.host_of(0)
    version = network.database.version
    network.migrate(0, host)
    assert network.host_of(0) is host
    assert network.database.version == version
    assert host.follow_me is None


def test_follow_me_redelivers_after_migration():
    """Traffic sent during migration reaches the VM at its new home."""
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                          size_bytes=400_000, start_ns=0,
                                          transport="udp",
                                          udp_rate_bps=40e9)])
    old_host = network.host_of(5)
    target = next(h for h in network.hosts
                  if pip_rack(h.pip) != pip_rack(old_host.pip))
    network.engine.schedule(usec(30), network.migrate, 5, target)
    network.run(until=msec(20))
    assert record.completed
    assert network.collector.misdeliveries > 0


# ----------------------------------------------------------------------
# gateway behaviour
# ----------------------------------------------------------------------
def test_gateway_processing_delay_applied():
    network = small_network(NoCache(), num_vms=8)
    gateway = network.gateways[0]
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=5, outer_src=network.hosts[0].pip,
                    outer_dst=gateway.pip)
    gateway.receive(packet)
    network.engine.run()
    # The packet left the gateway only after the 40 us processing time.
    assert network.engine.now >= usec(40)
    assert packet.resolved


def test_gateway_unresolvable_packet_counted():
    network = small_network(NoCache(), num_vms=8)
    gateway = network.gateways[0]
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=999, outer_src=network.hosts[0].pip,
                    outer_dst=gateway.pip)
    gateway.receive(packet)
    network.engine.run()
    assert gateway.resolution_failures == 1
    assert not packet.resolved


def test_gateway_clears_misdelivery_state():
    network = small_network(NoCache(), num_vms=8)
    gateway = network.gateways[0]
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=5, outer_src=network.hosts[0].pip,
                    outer_dst=gateway.pip)
    packet.misdelivery_tag = True
    packet.carried_mapping = (5, 777)
    gateway.receive(packet)
    network.engine.run()
    assert not packet.misdelivery_tag
    assert packet.carried_mapping is None


def test_a_flow_to_a_vip_nothing_runs_fails_at_its_start():
    """Endpoints are keyed by VIP alone; registering one for a VIP the
    database does not map is refused, not left to black-hole."""
    network = small_network(NoCache(), num_vms=8)
    TrafficPlayer(network).add_flows([FlowSpec(src_vip=0, dst_vip=99,
                                               size_bytes=1_000, start_ns=0)])
    with pytest.raises(MappingError, match="no mapping"):
        network.run(until=msec(1))
    assert 99 not in network.endpoints
