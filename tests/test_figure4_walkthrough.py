"""Replaying the paper's Figure 3/4 walkthrough on the same topology.

Figures 3 and 4 illustrate SwitchV2P on a two-pod fabric: ToRs L1/L2
(pod A) and L3/L4 (pod B), spines A1/A2 and A3/A4, cores C1/C2, with
the gateway under L4.  VMs: VM1 under L1, VM2 and VM3 under L2, VM4
under L3 (derivable from the learning events the paper narrates).

These tests drive the same packet sequence and check the protocol
events the paper calls out for each step: gateway-ToR destination
learning, source learning, learning packets, spillover on eviction,
and in-network hits on subsequent packets.  ECMP makes the exact spine
choices implementation-specific, so assertions target the events the
narration defines rather than specific spine identities.
"""

import pytest

from repro.core import Role, SwitchV2P, SwitchV2PConfig
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import msec
from repro.vnet.network import NetworkConfig, VirtualNetwork

from conftest import tiny_spec

VM1, VM2, VM3, VM4 = 1, 2, 3, 4


@pytest.fixture
def world():
    """The Figure 3 network with the paper's VM placement."""
    return build_world(SwitchV2P(total_cache_slots=40,  # 4 slots per switch
                                 config=SwitchV2PConfig(p_learn=1.0)))


def build_world(scheme):
    network = VirtualNetwork(NetworkConfig(spec=tiny_spec(), seed=3), scheme)
    fabric = network.fabric
    hosts = {host.name: host for host in network.hosts}
    # L1=(pod0,rack0), L2=(pod0,rack1), L3=(pod1,rack0), L4=(pod1,rack1).
    network.place_vm(VM1, hosts["host-p0r0h0"])
    network.place_vm(VM2, hosts["host-p0r1h0"])
    network.place_vm(VM3, hosts["host-p0r1h1"])
    network.place_vm(VM4, hosts["host-p1r0h0"])
    return scheme, network


def send_packet(network, src_vip, dst_vip, flow_id):
    host = network.host_of(src_vip)
    packet = Packet(PacketKind.DATA, flow_id=flow_id, seq=0,
                    payload_bytes=100, src_vip=src_vip, dst_vip=dst_vip,
                    outer_src=host.pip)
    host.send(packet)
    network.engine.run(until=network.engine.now + msec(1))
    return packet


def tor(network, pod, rack):
    return network.fabric.tor_of(pod, rack)


def cache_of(scheme, switch):
    return scheme.caches[switch.switch_id]


def test_step_a_first_packet_vm1_to_vm2(world):
    """Figure 4a: VM1 -> VM2 seeds the caches along both paths."""
    scheme, network = world
    packet = send_packet(network, VM1, VM2, flow_id=100)
    pip2 = network.database.lookup(VM2)
    pip1 = network.database.lookup(VM1)

    # The packet went through the gateway and was delivered.
    assert packet.gateway_visits == 1
    assert packet.resolved and packet.outer_dst == pip2

    # L4 (gateway ToR) learned VM2 via destination learning.
    l4 = tor(network, 1, 1)
    assert scheme.roles[l4.switch_id] == Role.GATEWAY_TOR
    assert cache_of(scheme, l4).peek(VM2) == pip2

    # Some gateway spine learned VM2 on the way down.
    gw_spines = [network.fabric.spines[(1, j)] for j in range(2)]
    assert any(cache_of(scheme, s).peek(VM2) == pip2 for s in gw_spines)

    # L1 learned VM1 via source learning on the upward path...
    l1 = tor(network, 0, 0)
    assert cache_of(scheme, l1).peek(VM1) == pip1
    # ...and VM2 via the learning packet (p_learn=1).
    assert scheme.learning_packets_sent >= 1
    assert cache_of(scheme, l1).peek(VM2) == pip2

    # L2 learned VM1 via source learning on the gateway->VM2 leg.
    l2 = tor(network, 0, 1)
    assert cache_of(scheme, l2).peek(VM1) == pip1


def test_step_a_second_packet_hits_at_l1(world):
    """Subsequent VM1 -> VM2 packets resolve at L1 without the gateway."""
    scheme, network = world
    send_packet(network, VM1, VM2, flow_id=100)
    arrivals_before = network.collector.gateway_arrivals
    second = send_packet(network, VM1, VM2, flow_id=100)
    assert network.collector.gateway_arrivals == arrivals_before
    assert second.gateway_visits == 0
    l1 = tor(network, 0, 0)
    assert second.hit_switch == l1.switch_id


class _OneSlotGatewayTor(SwitchV2P):
    """SwitchV2P with the figure's single-entry cache at L4."""

    def slots_by_switch(self, network, ids):
        slots = super().slots_by_switch(network, ids)
        slots[network.fabric.tor_of(1, 1).switch_id] = 1
        return slots


def test_step_b_eviction_spills_vm2():
    """Figure 4b: learning VM4 at L4 evicts VM2, which spills onward."""
    scheme, network = build_world(_OneSlotGatewayTor(
        total_cache_slots=40, config=SwitchV2PConfig(p_learn=1.0)))
    # Re-create the figure's single-entry gateway-ToR cache so VM4
    # must displace VM2 there.
    l4 = tor(network, 1, 1)
    assert cache_of(scheme, l4).num_slots == 1

    send_packet(network, VM1, VM2, flow_id=100)
    assert cache_of(scheme, l4).peek(VM2) is not None
    send_packet(network, VM3, VM4, flow_id=200)

    pip4 = network.database.lookup(VM4)
    assert cache_of(scheme, l4).peek(VM4) == pip4  # VM4 took the slot
    assert cache_of(scheme, l4).peek(VM2) is None  # VM2 evicted
    assert scheme.spillovers_reinserted >= 1       # ...and spilled onward
    # The spilled VM2 entry survives somewhere in the network.
    pip2 = network.database.lookup(VM2)
    assert any(cache.peek(VM2) == pip2 for cache in scheme.caches.values())

    # The learning packet for VM4 reached the sender's ToR, L2.
    l2 = tor(network, 0, 1)
    assert cache_of(scheme, l2).peek(VM4) == pip4
    # L3 learned VM3 via source learning on the gateway->VM4 leg.
    l3 = tor(network, 1, 0)
    pip3 = network.database.lookup(VM3)
    assert cache_of(scheme, l3).peek(VM3) == pip3


def test_step_c_cross_pod_sharing_via_spine(world):
    """Figure 4c: VM1 -> VM4 benefits from pod-A state learned in 4b."""
    scheme, network = world
    send_packet(network, VM1, VM2, flow_id=100)
    send_packet(network, VM3, VM4, flow_id=200)
    # Resolved VM3->VM4 traffic ascended pod A, so a pod-A spine did
    # destination learning for VM4 (after L2's learning-packet entry
    # resolves the second packet below).
    send_packet(network, VM3, VM4, flow_id=200)
    pip4 = network.database.lookup(VM4)
    pod_a_spines = [network.fabric.spines[(0, j)] for j in range(2)]
    assert any(cache_of(scheme, s).peek(VM4) == pip4 for s in pod_a_spines)

    arrivals_before = network.collector.gateway_arrivals
    packet = send_packet(network, VM1, VM4, flow_id=300)
    # VM1's packet resolves inside the network (L1 has VM4 via learning
    # packet, or the pod-A spine hits) — no gateway detour.
    assert packet.gateway_visits == 0
    assert network.collector.gateway_arrivals == arrivals_before


def test_step_d_hit_on_gateway_path(world):
    """Figure 4d: VM3 -> VM2 hits a cache on its way to the gateway."""
    scheme, network = world
    send_packet(network, VM1, VM2, flow_id=100)
    arrivals_before = network.collector.gateway_arrivals
    packet = send_packet(network, VM3, VM2, flow_id=400)
    assert packet.resolved
    assert packet.outer_dst == network.database.lookup(VM2)
    assert packet.gateway_visits == 0
    assert network.collector.gateway_arrivals == arrivals_before
    assert packet.hit_switch is not None
