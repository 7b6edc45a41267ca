"""Tests for the baseline translation schemes."""

from repro.baselines import (
    Bluebird,
    Direct,
    GwCache,
    LocalLearning,
    NoCache,
    OnDemand,
)
from repro.net.node import Layer
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import deliver, small_network


def run_flows(scheme, specs, num_vms=8, until=msec(50)):
    network = small_network(scheme, num_vms=num_vms)
    player = TrafficPlayer(network)
    records = player.add_flows(specs)
    network.run(until=until)
    return network, records


def two_flows_same_destination():
    return [
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000, start_ns=0),
        FlowSpec(src_vip=1, dst_vip=5, size_bytes=5_000, start_ns=usec(500)),
    ]


# ----------------------------------------------------------------------
# NoCache
# ----------------------------------------------------------------------
def test_nocache_every_packet_visits_gateway():
    network, records = run_flows(NoCache(), two_flows_same_destination())
    assert all(record.completed for record in records)
    assert network.collector.hit_rate == 0.0
    assert network.collector.gateway_arrivals == network.collector.packets_sent


# ----------------------------------------------------------------------
# Direct
# ----------------------------------------------------------------------
def test_direct_never_visits_gateway():
    network, records = run_flows(Direct(), two_flows_same_destination())
    assert all(record.completed for record in records)
    assert network.collector.gateway_arrivals == 0
    assert network.collector.hit_rate == 1.0


def test_direct_counts_control_plane_pushes():
    scheme = Direct()
    network = small_network(scheme, num_vms=4)
    pushes_after_placement = scheme.control_plane_pushes
    assert pushes_after_placement == 4 * len(network.hosts)
    target = next(h for h in network.hosts if h is not network.host_of(0))
    network.migrate(0, target)
    assert scheme.control_plane_pushes == pushes_after_placement + len(network.hosts)


def test_direct_unknown_vip_falls_back_to_gateway():
    from repro.net.packet import Packet, PacketKind
    scheme = Direct()
    network = small_network(scheme, num_vms=4)
    host = network.hosts[0]
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=999, outer_src=host.pip)
    scheme.on_host_send(host, packet)
    assert not packet.resolved
    assert packet.outer_dst in network.gateway_pip_set()


# ----------------------------------------------------------------------
# OnDemand
# ----------------------------------------------------------------------
def test_ondemand_first_flow_via_gateway_then_direct():
    scheme = OnDemand()
    network, records = run_flows(scheme, [
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000, start_ns=0),
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000, start_ns=usec(500)),
    ])
    assert all(record.completed for record in records)
    # The second flow (after install delay) bypasses the gateway.
    assert records[1].first_packet_latency_ns < records[0].first_packet_latency_ns
    host = network.host_of(0)
    assert scheme.cached_mappings(host).get(5) is not None


def test_ondemand_cache_is_per_host():
    scheme = OnDemand()
    network, _ = run_flows(scheme, [
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000, start_ns=0)])
    other = network.host_of(3)
    assert scheme.cached_mappings(other) == {}


def test_ondemand_install_happens_after_delay():
    scheme = OnDemand(install_delay_ns=usec(100))
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=1_000,
                               start_ns=0)])
    network.engine.run(until=usec(50))
    assert scheme.cached_mappings(network.host_of(0)) == {}
    network.engine.run(until=usec(200))
    assert 5 in scheme.cached_mappings(network.host_of(0))


# ----------------------------------------------------------------------
# GwCache
# ----------------------------------------------------------------------
def test_gwcache_caches_only_on_gateway_tors():
    scheme = GwCache(total_cache_slots=64)
    network = small_network(scheme, num_vms=8)
    assert set(scheme.caches) == network.fabric.gateway_tor_ids()


def test_gwcache_second_flow_hits_at_gateway_tor():
    scheme = GwCache(total_cache_slots=64)
    network, records = run_flows(scheme, two_flows_same_destination())
    assert all(record.completed for record in records)
    assert network.collector.hits_by_layer[Layer.TOR] > 0
    assert network.collector.hit_rate > 0


def test_hop_through_cacheless_switch_touches_nothing(monkeypatch):
    """Most GwCache hops cross a switch that holds no cache: such a hop
    is plain forwarding — no lookup, no learning, no collector call."""
    from repro.net.packet import Packet, PacketKind
    scheme = GwCache(total_cache_slots=64)
    network = small_network(scheme, num_vms=8)
    bare = next(s for s in network.fabric.switches
                if s.switch_id not in scheme.caches)

    def forbidden(*args, **kwargs):
        raise AssertionError("a cache-less hop reached the cache path")

    for name in ("is_traffic", "try_resolve", "cache_of"):
        monkeypatch.setattr(scheme, name, forbidden)
    monkeypatch.setattr(network.collector, "record_hit", forbidden)
    host = network.hosts[0]
    for resolved in (False, True):
        packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                        src_vip=0, dst_vip=5, outer_src=host.pip,
                        outer_dst=network.hosts[1].pip)
        packet.resolved = resolved
        before = (packet.outer_dst, packet.resolved, packet.hit_switch)
        deliver(network, bare, packet)  # forwarded; not run further
        assert (packet.outer_dst, packet.resolved, packet.hit_switch) == before
    assert bare.hook is None and bare.stats.packets == 2


def test_caching_switch_still_looks_up_and_learns():
    """The other side of the shared default: a switch that does hold a
    cache learns from resolved traffic and serves the next lookup."""
    from repro.net.packet import Packet, PacketKind
    scheme = GwCache(total_cache_slots=64)
    network = small_network(scheme, num_vms=8)
    tor = next(s for s in network.fabric.switches
               if s.switch_id in scheme.caches)
    cache = scheme.caches[tor.switch_id]
    host, target = network.hosts[0], network.hosts[1]

    def data(outer_dst, resolved):
        packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                        src_vip=0, dst_vip=5, outer_src=host.pip,
                        outer_dst=outer_dst)
        packet.resolved = resolved
        return packet

    assert tor.hook(data(target.pip, True), None) is True
    assert cache.stats.insertions == 1 and cache.stats.lookups == 0
    packet = data(network.gateways[0].pip, False)
    assert tor.hook(packet, None) is True
    assert packet.resolved and packet.outer_dst == target.pip
    assert packet.hit_switch == tor.switch_id
    assert cache.stats.hits == 1 and cache.stats.insertions == 1


# ----------------------------------------------------------------------
# LocalLearning
# ----------------------------------------------------------------------
def test_locallearning_caches_everywhere():
    scheme = LocalLearning(total_cache_slots=100)
    network = small_network(scheme, num_vms=8)
    assert set(scheme.caches) == {s.switch_id for s in network.fabric.switches}
    assert all(c.num_slots == 10 for c in scheme.caches.values())


def test_locallearning_learns_from_resolved_traffic():
    scheme = LocalLearning(total_cache_slots=100)
    network, records = run_flows(scheme, two_flows_same_destination())
    assert all(record.completed for record in records)
    assert scheme.total_cached_entries() > 0
    lookups, hits = scheme.aggregate_hit_stats()
    assert lookups > 0


# ----------------------------------------------------------------------
# Bluebird
# ----------------------------------------------------------------------
def test_bluebird_never_uses_gateways():
    scheme = Bluebird(total_cache_slots=64)
    network, records = run_flows(scheme, two_flows_same_destination())
    assert all(record.completed for record in records)
    assert network.collector.gateway_arrivals == 0


def test_bluebird_punts_cold_packets():
    scheme = Bluebird(total_cache_slots=64)
    network, records = run_flows(scheme, two_flows_same_destination())
    assert scheme.punted_packets > 0


def test_bluebird_installs_after_insert_latency():
    scheme = Bluebird(total_cache_slots=640, insert_latency_ns=usec(50))
    network, records = run_flows(scheme, [
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=1_000, start_ns=0),
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=1_000, start_ns=usec(500)),
    ])
    assert all(record.completed for record in records)
    # After the install, the sender ToR resolves in the data plane.
    lookups, hits = scheme.aggregate_hit_stats()
    assert hits > 0


def test_bluebird_drops_when_punt_channel_saturated():
    scheme = Bluebird(total_cache_slots=64, punt_bps=1e6,
                      punt_buffer_bytes=2_000)
    network, records = run_flows(scheme, [
        FlowSpec(src_vip=0, dst_vip=5, size_bytes=50_000, start_ns=0)],
        until=msec(20))
    assert scheme.punt_drops > 0


def test_bluebird_caches_only_at_tors():
    scheme = Bluebird(total_cache_slots=64)
    network = small_network(scheme, num_vms=8)
    tor_ids = {s.switch_id for s in network.fabric.switches
               if s.layer == Layer.TOR}
    assert set(scheme.caches) == tor_ids
