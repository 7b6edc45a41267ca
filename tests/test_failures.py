"""Switch-failure resilience tests (paper §1/§2 opportunistic-cache claim).

"The opportunistic nature of the caching approach makes it resilient to
switch failures, as they do not affect the correctness of packet
forwarding."  A failed switch loses its cached mappings, but traffic
re-routes over surviving equal-cost paths and still resolves via other
caches or the gateway.
"""

from repro.core import SwitchV2P
from repro.baselines import NoCache
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import deliver, small_network


def cross_pod_flows(count=8):
    return [FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000,
                     start_ns=i * usec(200)) for i in range(count)]


def test_spine_failure_reroutes_over_sibling():
    network = small_network(NoCache(), num_vms=8)
    # Fail one of the two spines in the sender's pod.
    network.fabric.spines[(0, 0)].fail()
    player = TrafficPlayer(network)
    records = player.add_flows(cross_pod_flows())
    network.run(until=msec(30))
    assert all(record.completed for record in records)


def test_far_spine_failure_reroutes_down_path():
    """Cores re-hash around a failed spine in the *destination* pod."""
    network = small_network(NoCache(), num_vms=8)
    # vip 5 lives in pod 1 (round-robin placement); fail one of its spines.
    network.fabric.spines[(1, 0)].fail()
    player = TrafficPlayer(network)
    records = player.add_flows(cross_pod_flows())
    network.run(until=msec(30))
    assert all(record.completed for record in records)


def test_core_failure_reroutes():
    # Four cores over two spines: each spine has a surviving core.
    from conftest import tiny_spec
    network = small_network(NoCache(), num_vms=8,
                            spec=tiny_spec(num_cores=4))
    network.fabric.cores[0].fail()
    player = TrafficPlayer(network)
    records = player.add_flows(cross_pod_flows())
    network.run(until=msec(30))
    assert all(record.completed for record in records)


def test_switchv2p_correct_despite_cache_loss():
    """Warm the caches, fail the switch holding them, keep flowing."""
    scheme = SwitchV2P(total_cache_slots=200)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    warm = player.add_flows(cross_pod_flows(4))
    network.engine.run(until=msec(5))
    assert all(record.completed for record in warm)

    # Fail a spine mid-experiment: its cache contents are gone.
    network.fabric.spines[(0, 1)].fail()
    network.fabric.spines[(0, 0)].recover()  # ensure a live sibling
    more = player.add_flows([FlowSpec(src_vip=1, dst_vip=5, size_bytes=5_000,
                                      start_ns=network.engine.now + usec(10))])
    network.run(until=msec(40))
    assert all(record.completed for record in more)


def test_failed_switch_drops_and_counts():
    network = small_network(NoCache(), num_vms=8)
    spine = network.fabric.spines[(0, 0)]
    spine.fail()
    from repro.net.packet import Packet, PacketKind
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=5, outer_src=0, outer_dst=0)
    deliver(network, spine, packet)
    assert spine.stats.drops == 1
    assert spine.stats.packets == 0


def test_all_uplinks_failed_drops_at_tor():
    network = small_network(NoCache(), num_vms=8)
    for j in range(network.config.spec.spines_per_pod):
        network.fabric.spines[(0, j)].fail()
    tor = network.fabric.tor_of(0, 0)
    src = network.hosts[0]
    from repro.net.packet import Packet, PacketKind
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=5, outer_src=src.pip)
    drops_before = tor.stats.drops
    src.send(packet)
    network.engine.run(until=msec(1))
    assert tor.stats.drops == drops_before + 1
