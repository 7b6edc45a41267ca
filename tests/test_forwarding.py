"""Tests for switch forwarding: routing decisions, ECMP, delivery."""

from repro.baselines.nocache import NoCache
from repro.net.addresses import pip_pod, pip_rack
from repro.net.node import ecmp_index
from repro.net.packet import Packet, PacketKind

from conftest import small_network, vip_on


def make_data_packet(src_pip, dst_pip, flow_id=1, seq=0):
    packet = Packet(PacketKind.DATA, flow_id=flow_id, seq=seq,
                    payload_bytes=100, src_vip=0, dst_vip=1,
                    outer_src=src_pip, outer_dst=dst_pip)
    packet.resolved = True
    return packet


def test_ecmp_index_is_deterministic_and_in_range():
    for key in range(100):
        for n in (1, 2, 3, 7):
            index = ecmp_index(key, 42, n)
            assert 0 <= index < n
            assert index == ecmp_index(key, 42, n)


def test_ecmp_index_is_key_xor_salt_mod_n_for_n_dividing_16():
    """2654435761 % 16 == 1, so the multiply leaves the low four bits
    alone: what ``ecmp_index``'s docstring says, pinned."""
    keys = [0, 1, 2, 15, 16, 255, 2**31 - 1, 2**32 + 5, 2**40 + 12345]
    for n in (1, 2, 4, 8, 16):
        for key in keys:
            for salt in (0, 17, 31, 2**20 + 3):
                assert ecmp_index(key, salt, n) == (key ^ salt) % n


def test_ecmp_spreads_across_paths():
    choices = {ecmp_index(key, 7, 4) for key in range(64)}
    assert choices == {0, 1, 2, 3}


def test_same_rack_delivery():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst = network.hosts[1]  # same rack (2 servers per rack)
    assert pip_rack(src.pip) == pip_rack(dst.pip)
    packet = make_data_packet(src.pip, dst.pip)
    packet.dst_vip = vip_on(network, dst)
    src.reforward(packet)
    network.engine.run()
    # host -> tor -> host: exactly one switch traversed
    assert packet.hops == 1


def test_cross_pod_delivery_traverses_five_switches():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst = next(h for h in network.hosts if pip_pod(h.pip) != pip_pod(src.pip))
    packet = make_data_packet(src.pip, dst.pip)
    packet.dst_vip = vip_on(network, dst)
    src.reforward(packet)
    network.engine.run()
    # tor, spine, core, spine, tor
    assert packet.hops == 5


def test_same_pod_cross_rack_traverses_three_switches():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst = next(h for h in network.hosts
               if pip_pod(h.pip) == pip_pod(src.pip)
               and pip_rack(h.pip) != pip_rack(src.pip))
    packet = make_data_packet(src.pip, dst.pip)
    packet.dst_vip = vip_on(network, dst)
    src.reforward(packet)
    network.engine.run()
    assert packet.hops == 3


def test_unknown_host_pip_dropped_at_tor():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    bogus = src.pip + 1000  # same rack bits unlikely; use same-rack host idx
    from repro.net.addresses import make_pip
    bogus = make_pip(pip_pod(src.pip), pip_rack(src.pip), 99)
    packet = make_data_packet(src.pip, bogus)
    tor = network.fabric.tor_of(pip_pod(src.pip), pip_rack(src.pip))
    drops_before = tor.stats.drops
    src.reforward(packet)
    network.engine.run()
    assert tor.stats.drops == drops_before + 1


def test_switch_byte_counters_increase():
    network = small_network(NoCache(), num_vms=8)
    src, dst = network.hosts[0], network.hosts[-1]
    packet = make_data_packet(src.pip, dst.pip)
    packet.dst_vip = vip_on(network, dst)
    src.reforward(packet)
    network.engine.run()
    total = sum(s.stats.bytes for s in network.fabric.switches)
    assert total == packet.wire_bytes * packet.hops


def test_gateway_resolution_and_forwarding():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst_vip = 5
    dst_host = network.host_of(dst_vip)
    packet = Packet(PacketKind.DATA, flow_id=3, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=dst_vip, outer_src=src.pip)
    delivered = []
    network.endpoints[dst_vip] = type(
        "E", (), {"on_packet": staticmethod(lambda p: delivered.append(p))})
    src.send(packet)
    network.engine.run()
    assert delivered == [packet]
    assert packet.resolved
    assert packet.outer_dst == dst_host.pip
    assert packet.gateway_visits == 1
