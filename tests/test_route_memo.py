"""``Switch.receive`` routes through its exact-route memo and the ECMP
hash; ``next_hop`` is the logic.

Two identical FT8 networks go through the same faults.  On one, every
switch keeps forwarding packets — its memo stays as warm as a running
simulation would leave it.  On the other, ``next_hop`` answers with the
memo wiped before every call.  For every (switch, destination PIP) they
must name the same link: before, during and after a link fault and a
switch fault, and with several faults at once.
"""

from repro.baselines import NoCache
from repro.net.packet import Packet, PacketKind
from repro.net.topology import FatTreeSpec

from conftest import small_network

FLOWS = (3, 1 << 20)


def packet_to(dst, flow_id):
    return Packet(PacketKind.DATA, flow_id=flow_id, seq=0, payload_bytes=64,
                  src_vip=0, dst_vip=1, outer_src=0, outer_dst=dst)


def name_of(link):
    return None if link is None else (link.src.name, link.dst.name)


def forwarded(switch, packet):
    """The link ``receive`` put ``packet`` on (None: it was dropped)."""
    engine = switch.fabric.engine
    engine.discard_events()
    switch.receive(packet)
    if not engine.pending_events:
        return None
    (_, _, (sent, link)), = engine.iter_pending()
    assert sent is packet
    return link


def reference(switch, packet):
    switch._route_memo.clear()
    return switch.next_hop(packet)


def check_every_pair(live, plain):
    destinations = [node.pip for node in (*live.hosts, *live.gateways)]
    compared = 0
    for switch, twin in zip(live.fabric.switches, plain.fabric.switches):
        if switch.failed:
            continue
        for dst in destinations:
            for flow_id in FLOWS:
                expected = reference(twin, packet_to(dst, flow_id))
                if expected is not None and not expected.up:
                    expected = None  # transmit() refuses a down link
                for _ in ("memo cold or stale", "memo warm"):
                    got = forwarded(switch, packet_to(dst, flow_id))
                    assert name_of(got) == name_of(expected), \
                        (switch.name, hex(dst), flow_id)
                compared += 1
    assert compared > 20_000
    return compared


def test_memoised_routing_equals_next_hop_through_faults():
    spec = FatTreeSpec()
    live, plain = (small_network(NoCache(), num_vms=8, seed=3, spec=spec)
                   for _ in range(2))

    def both(action):
        for network in (live, plain):
            action(network.fabric)

    check_every_pair(live, plain)
    assert all(s._route_memo for s in live.fabric.switches)

    # An accounted link fault (flushes), then its repair.
    def uplink(fabric):
        return fabric.link_between(fabric.tors[(0, 0)], fabric.spines[(0, 1)])
    both(lambda fabric: fabric.set_link_state(uplink(fabric), False))
    assert not any(s._route_memo for s in live.fabric.switches)
    check_every_pair(live, plain)
    both(lambda fabric: fabric.set_link_state(uplink(fabric), True))
    check_every_pair(live, plain)

    # A switch fault: a spine of the gateway pod, then a core.
    for pick in (lambda fabric: fabric.spines[(2, 1)],
                 lambda fabric: fabric.cores[5]):
        both(lambda fabric, pick=pick: pick(fabric).fail())
        check_every_pair(live, plain)
        both(lambda fabric, pick=pick: pick(fabric).recover())
        check_every_pair(live, plain)

    # Three faults at once, each through its method.
    def flip(fabric, up):
        for a, b in ((fabric.tors[(1, 2)], fabric.spines[(1, 0)]),
                     (fabric.spines[(4, 3)], fabric.cores[14])):
            fabric.set_link_state(fabric.link_between(a, b), up)
        if up:
            fabric.spines[(6, 0)].recover()
        else:
            fabric.spines[(6, 0)].fail()
    both(lambda fabric: flip(fabric, False))
    assert live.fabric.fault_count == 3
    check_every_pair(live, plain)
    both(lambda fabric: flip(fabric, True))
    check_every_pair(live, plain)


def test_unconsumed_learning_packet_never_reads_the_exact_memo():
    """A ToR's exact memo maps a local PIP to its host port; a learning
    packet for that PIP must still end at the ToR."""
    network = small_network(NoCache(), num_vms=8)
    tor = network.fabric.tor_of(0, 0)
    dst = network.hosts[0].pip
    assert forwarded(tor, packet_to(dst, 1)) is tor.host_links[dst]
    assert tor._route_memo[dst] is tor.host_links[dst]
    learning = Packet(PacketKind.LEARNING, flow_id=1, seq=0, payload_bytes=0,
                      src_vip=0, dst_vip=1, outer_src=0, outer_dst=dst)
    drops = tor.stats.drops
    assert forwarded(tor, learning) is None
    assert tor.stats.drops == drops + 1
