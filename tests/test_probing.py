"""Tests for forwarding-path probes."""

from repro.baselines import NoCache
from repro.net.addresses import pip_pod
from repro.net.node import Layer, Switch
from repro.net.probing import forwarding_path, path_length

from conftest import small_network, vip_on


def test_same_rack_path():
    network = small_network(NoCache(), num_vms=8)
    src, dst = network.hosts[0], network.hosts[1]
    path = forwarding_path(network, src.pip, dst.pip, flow_id=1)
    assert len(path) == 2  # tor, host
    assert isinstance(path[0], Switch)
    assert path[-1] is dst


def test_cross_pod_path_is_five_switches():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst = next(h for h in network.hosts if pip_pod(h.pip) != pip_pod(src.pip))
    assert path_length(network, src.pip, dst.pip, flow_id=1) == 5
    path = forwarding_path(network, src.pip, dst.pip, flow_id=1)
    layers = [node.layer for node in path if isinstance(node, Switch)]
    assert layers == [Layer.TOR, Layer.SPINE, Layer.CORE, Layer.SPINE,
                      Layer.TOR]
    assert path[-1] is dst


def test_probe_matches_actual_delivery():
    """The probe predicts exactly the hops a real packet takes."""
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst = next(h for h in network.hosts if pip_pod(h.pip) != pip_pod(src.pip))
    predicted = path_length(network, src.pip, dst.pip, flow_id=9)

    from repro.net.packet import Packet, PacketKind
    packet = Packet(PacketKind.DATA, flow_id=9, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=vip_on(network, dst),
                    outer_src=src.pip, outer_dst=dst.pip)
    packet.resolved = True
    src.reforward(packet)
    network.engine.run()
    assert packet.hops == predicted


def test_gateway_path_ends_at_gateway():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    gateway = network.gateways[0]
    path = forwarding_path(network, src.pip, gateway.pip, flow_id=3)
    assert path[-1] is gateway


def test_probe_stops_at_failed_fabric():
    network = small_network(NoCache(), num_vms=8)
    for j in range(network.config.spec.spines_per_pod):
        network.fabric.spines[(0, j)].fail()
    src = network.hosts[0]
    dst = next(h for h in network.hosts if pip_pod(h.pip) != pip_pod(src.pip))
    path = forwarding_path(network, src.pip, dst.pip, flow_id=1)
    # Only the source ToR is reachable.
    assert len(path) == 1


def test_ecmp_varies_with_flow_id():
    network = small_network(NoCache(), num_vms=8)
    src = network.hosts[0]
    dst = next(h for h in network.hosts if pip_pod(h.pip) != pip_pod(src.pip))
    spines = set()
    for flow_id in range(16):
        path = forwarding_path(network, src.pip, dst.pip, flow_id)
        spine = next(n for n in path
                     if isinstance(n, Switch) and n.layer == Layer.SPINE)
        spines.add(spine.switch_id)
    assert len(spines) > 1
