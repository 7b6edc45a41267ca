"""Tests for the rejected in-switch DHT design (paper §2.4)."""

from repro.baselines.dht import DhtStore
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def run(scheme, flows, num_vms=8, until=msec(50)):
    network = small_network(scheme, num_vms=num_vms)
    player = TrafficPlayer(network)
    records = player.add_flows(flows)
    network.run(until=until)
    return network, records


def basic_flows(count=5):
    return [FlowSpec(src_vip=i % 4, dst_vip=5, size_bytes=3_000,
                     start_ns=i * usec(200)) for i in range(count)]


def test_dht_delivers_all_flows_without_gateways():
    network, records = run(DhtStore(), basic_flows())
    assert all(record.completed for record in records)
    assert network.collector.gateway_arrivals == 0


def test_resolver_is_stable_per_vip():
    scheme = DhtStore()
    network = small_network(scheme, num_vms=8)
    assert scheme.resolver_of(5) is scheme.resolver_of(5)


def test_updates_cost_one_message_per_mapping():
    scheme = DhtStore()
    network = small_network(scheme, num_vms=8)
    baseline = scheme.update_messages
    target = next(h for h in network.hosts if h is not network.host_of(0))
    network.migrate(0, target)
    assert scheme.update_messages == baseline + 1


def test_detours_are_counted():
    scheme = DhtStore()
    network, records = run(scheme, basic_flows())
    assert scheme.detour_packets > 0


def test_migration_is_instantly_consistent():
    """The resolver reads the fresh DB, so post-migration packets go to
    the new location without misdeliveries (the update-speed win)."""
    scheme = DhtStore()
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(
        src_vip=0, dst_vip=5, size_bytes=200_000, start_ns=0,
        transport="udp", udp_rate_bps=10e9)])
    old_host = network.host_of(5)
    target = next(h for h in network.hosts if h is not old_host)
    network.engine.schedule(usec(50), network.migrate, 5, target)
    network.run(until=msec(10))
    assert record.completed
    # Only packets already resolved and in flight can misdeliver.
    assert network.collector.misdeliveries <= 10


def test_resolver_failure_blackholes_its_vips():
    """§2.4: 'switch failures become critical' — the reason the paper
    rejected the DHT design."""
    scheme = DhtStore()
    network = small_network(scheme, num_vms=8)
    resolver = scheme.resolver_of(5)
    resolver.fail()
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                          size_bytes=3_000, start_ns=0,
                                          transport="udp",
                                          udp_rate_bps=1e9)])
    network.run(until=msec(5))
    assert not record.completed


def test_dht_path_longer_than_direct():
    """The detour costs hops relative to host-driven resolution."""
    from repro.baselines import Direct
    _, dht_records = run(DhtStore(), basic_flows(1))
    _, direct_records = run(Direct(), basic_flows(1))
    assert dht_records[0].completed and direct_records[0].completed
    assert dht_records[0].fct_ns >= direct_records[0].fct_ns
