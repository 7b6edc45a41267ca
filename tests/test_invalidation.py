"""Tests for SwitchV2P's lazy invalidation protocol (paper §3.3)."""

from repro.core import SwitchV2P, SwitchV2PConfig
from repro.net.addresses import pip_pod, pip_rack
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def build(config=None, slots=200, num_vms=8):
    scheme = SwitchV2P(slots, config)
    network = small_network(scheme, num_vms=num_vms)
    return scheme, network


def migrate_mid_stream(scheme, network, dst_vip=5, rate_bps=20e9,
                       migrate_at=usec(100), until=msec(10)):
    """One long UDP stream with a migration of the destination."""
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(
        src_vip=0, dst_vip=dst_vip, size_bytes=600_000, start_ns=0,
        transport="udp", udp_rate_bps=rate_bps)])
    old_host = network.host_of(dst_vip)
    target = next(h for h in network.hosts
                  if (pip_pod(h.pip), pip_rack(h.pip))
                  != (pip_pod(old_host.pip), pip_rack(old_host.pip)))
    network.engine.schedule(migrate_at, network.migrate, dst_vip, target)
    network.run(until=until)
    return record, old_host, target


def test_misdelivered_packets_rerouted_via_gateway():
    scheme, network = build()
    record, old_host, target = migrate_mid_stream(scheme, network)
    assert record.completed  # every byte eventually arrived
    assert network.collector.misdeliveries > 0
    assert old_host.misdeliveries > 0


def test_stale_entries_invalidated_after_migration():
    scheme, network = build()
    record, old_host, target = migrate_mid_stream(scheme, network)
    # After the run no cache should still map dst 5 to the old host.
    for cache in scheme.caches.values():
        assert cache.peek(5) != old_host.pip


def test_invalidation_packets_generated():
    scheme, network = build()
    migrate_mid_stream(scheme, network)
    assert scheme.invalidation_packets_sent > 0
    assert network.collector.invalidation_packets == \
        scheme.invalidation_packets_sent


def test_no_invalidation_packets_when_disabled():
    scheme, network = build(SwitchV2PConfig(enable_invalidation=False))
    record, old_host, _ = migrate_mid_stream(scheme, network)
    assert scheme.invalidation_packets_sent == 0
    assert record.completed  # correctness is preserved regardless


def test_timestamp_vector_rate_limits():
    config_with = SwitchV2PConfig(enable_timestamp_vector=True)
    config_without = SwitchV2PConfig(enable_timestamp_vector=False)
    scheme_with, network_with = build(config_with)
    migrate_mid_stream(scheme_with, network_with)
    scheme_without, network_without = build(config_without)
    migrate_mid_stream(scheme_without, network_without)
    assert scheme_with.invalidation_packets_sent <= \
        scheme_without.invalidation_packets_sent


def test_packets_keep_flowing_to_new_location():
    scheme, network = build()
    record, old_host, target = migrate_mid_stream(scheme, network)
    # The new host received the tail of the stream.
    assert record.bytes_received == record.size_bytes


def test_misdelivery_tag_set_by_tor():
    """A re-forwarded packet gets tagged at the old host's ToR and does
    not re-fetch the stale mapping en route to the gateway."""
    scheme, network = build()
    record, old_host, target = migrate_mid_stream(scheme, network)
    # Deliveries at the target keep flowing; eventually caches converge
    # so late packets are not misdelivered anymore.
    last = network.collector.last_misdelivered_arrival_ns
    assert last is not None
    assert last < msec(10)


def test_follow_me_not_used_by_switchv2p():
    """SwitchV2P misdeliveries route to the gateway, not the new host
    directly — gateway arrivals increase after migration."""
    scheme, network = build()
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(
        src_vip=0, dst_vip=5, size_bytes=100_000, start_ns=0,
        transport="udp", udp_rate_bps=10e9)])
    network.engine.run(until=usec(50))
    arrivals_before = network.collector.gateway_arrivals
    old_host = network.host_of(5)
    target = next(h for h in network.hosts
                  if pip_rack(h.pip) != pip_rack(old_host.pip))
    network.migrate(5, target)
    network.run(until=msec(10))
    assert network.collector.gateway_arrivals > arrivals_before


def test_an_invalidation_refused_at_its_first_hop_is_the_tors_drop():
    """A ToR whose invalidation its own uplink refuses counts the drop,
    as every other failed transmit a switch makes is counted."""
    scheme, network = build()
    fabric = network.fabric
    tor, target = fabric.tors[(0, 0)], fabric.spines[(1, 0)]
    uplink = fabric.link_between(tor, fabric.spines[(0, 0)])
    fabric.set_link_state(uplink, False)
    scheme._send_invalidation(tor, target.switch_id, (5, 0))
    assert scheme.invalidation_packets_sent == 1
    assert (uplink.drops, tor.stats.drops) == (1, 1)
    network.run(until=usec(10))
    assert network.collector.drops == 1
