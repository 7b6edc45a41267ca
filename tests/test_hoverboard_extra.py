"""Additional Hoverboard/OnDemand behaviour under migration."""

from repro.baselines import Hoverboard, OnDemand
from repro.net.addresses import pip_rack
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def test_hoverboard_stale_host_rule_uses_follow_me():
    """An installed host rule goes stale on migration; the follow-me
    rule at the old host keeps delivery correct (paper §5.2)."""
    scheme = Hoverboard(offload_threshold=2, install_delay_ns=usec(50))
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(
        src_vip=0, dst_vip=5, size_bytes=400_000, start_ns=0,
        transport="udp", udp_rate_bps=10e9)])
    network.engine.run(until=usec(120))
    host = network.host_of(0)
    assert 5 in scheme.host_rules(host)  # rule active

    old_host = network.host_of(5)
    target = next(h for h in network.hosts
                  if pip_rack(h.pip) != pip_rack(old_host.pip))
    network.migrate(5, target)
    network.run(until=msec(20))
    assert record.completed
    assert network.collector.misdeliveries > 0
    # The rule remains stale within the window (controller is slow).
    assert scheme.host_rules(host)[5] == old_host.pip


def test_ondemand_counts_installs_once_per_destination():
    scheme = OnDemand(install_delay_ns=usec(20))
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=0, dst_vip=5, size_bytes=1_500,
                      start_ns=i * usec(300)) for i in range(5)]
    player.add_flows(flows)
    network.run(until=msec(20))
    host = network.host_of(0)
    assert list(scheme.cached_mappings(host)) == [5]


def test_hoverboard_counts_only_data_traffic():
    """Learning thresholds count data/ACK packets, not protocol kinds."""
    scheme = Hoverboard(offload_threshold=3, install_delay_ns=usec(10))
    network = small_network(scheme, num_vms=8)
    from repro.net.packet import Packet, PacketKind
    host = network.hosts[0]
    for _ in range(10):
        packet = Packet(PacketKind.LEARNING, flow_id=1, seq=0,
                        payload_bytes=0, src_vip=0, dst_vip=5,
                        outer_src=host.pip)
        scheme.on_host_send(host, packet)
    network.engine.run(until=msec(1))
    assert scheme.rules_installed == 0
