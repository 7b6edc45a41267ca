"""Edge-case tests for switch forwarding internals."""

import random

import pytest

from repro.baselines import NoCache
from repro.net.packet import Packet, PacketKind

from conftest import small_network, vip_on


def make_packet(**overrides):
    defaults = dict(kind=PacketKind.DATA, flow_id=1, seq=0, payload_bytes=64,
                    src_vip=0, dst_vip=1, outer_src=0, outer_dst=0)
    defaults.update(overrides)
    kind = defaults.pop("kind")
    return Packet(kind, **defaults)


def test_unconsumed_learning_packet_dropped_at_destination_tor():
    """A LEARNING packet that reaches its rack without being absorbed
    (NoCache has no learning logic) is dropped, never host-delivered."""
    network = small_network(NoCache(), num_vms=8)
    dst = network.hosts[0]
    tor = network.fabric.tor_of(0, 0)
    packet = make_packet(kind=PacketKind.LEARNING, outer_dst=dst.pip)
    drops_before = tor.stats.drops
    tor.receive(packet)
    network.engine.run()
    assert tor.stats.drops == drops_before + 1


def test_route_transit_skips_handler_until_target():
    """Switch-addressed packets pass intermediate switches untouched."""
    calls = []

    def recorder(switch):
        def hook(packet, ingress):
            calls.append(switch.switch_id)
            return True
        return hook

    network = small_network(NoCache(), num_vms=8)
    for switch in network.fabric.switches:
        switch.hook = recorder(switch)
    fabric = network.fabric
    # Data packets on a route_path: guard the switches as DhtStore does.
    fabric.routed_data = True
    fabric.guard()
    src_tor = fabric.tor_of(0, 0)
    target = fabric.tor_of(1, 0)
    route = fabric.path_from_tor(src_tor, target, key=5)
    packet = make_packet()
    packet.route_path = route
    packet.route_index = 0
    packet.target_switch = target.switch_id
    route[0].transmit(packet)
    network.engine.run()
    # No switch before the target ran the handler; after the target the
    # packet resumes normal forwarding (and may hit more handlers).
    assert calls[0] == target.switch_id
    assert packet.route_path is None


def test_route_transit_exhausted_route_drops():
    network = small_network(NoCache(), num_vms=8)
    fabric = network.fabric
    fabric.routed_data = True
    fabric.guard()
    src_tor = fabric.tor_of(0, 0)
    spine = fabric.spines[(0, 0)]
    route = fabric.path_from_tor(src_tor, spine, key=5)
    packet = make_packet()
    packet.route_path = route
    packet.route_index = 0
    packet.target_switch = 9999  # never matches
    drops_before = spine.stats.drops
    route[0].transmit(packet)
    network.engine.run()
    assert spine.stats.drops == drops_before + 1


def test_invalidation_without_route_is_consumed():
    network = small_network(NoCache(), num_vms=8)
    tor = network.fabric.tor_of(0, 0)
    packet = make_packet(kind=PacketKind.INVALIDATION)
    packet.target_switch = 9999
    packet.route_path = None
    tor.receive(packet)  # must not raise or forward
    assert network.engine.pending_events == 0


def test_core_drops_packet_for_unknown_pod():
    network = small_network(NoCache(), num_vms=8)
    core = network.fabric.cores[0]
    from repro.net.addresses import make_pip
    packet = make_packet(outer_dst=make_pip(9, 0, 0))  # pod 9 absent
    packet.resolved = True
    drops_before = core.stats.drops
    core.receive(packet)
    assert core.stats.drops == drops_before + 1


def test_spine_drops_packet_for_unknown_rack():
    network = small_network(NoCache(), num_vms=8)
    spine = network.fabric.spines[(0, 0)]
    from repro.net.addresses import make_pip
    packet = make_packet(outer_dst=make_pip(0, 9, 0))  # rack 9 absent
    packet.resolved = True
    drops_before = spine.stats.drops
    spine.receive(packet)
    assert spine.stats.drops == drops_before + 1


def test_switch_repr_mentions_role_coordinates():
    network = small_network(NoCache(), num_vms=8)
    text = repr(network.fabric.tor_of(0, 1))
    assert "TOR" in text and "pod=0" in text


def test_rate_bps_setter_changes_forwarding_delay_through_switch():
    """``Switch.receive`` inlines ``Link.transmit`` and reads the rate
    through its private slot; the public setter must still govern both
    the serialization time and the backlog of a busy egress link."""
    network = small_network(NoCache(), num_vms=8)
    engine = network.engine
    dst = network.hosts[0]
    vip = vip_on(network, dst)
    tor = network.fabric.tor_of(0, 0)
    downlink = tor.host_links[dst.pip]
    arrivals = []
    dst.on_deliver = lambda packet: arrivals.append(engine.now)

    def delay_of_two(payload_bytes):
        """Forward two packets back to back (the second finds the
        egress busy); return each one's ToR-to-host delay."""
        arrivals.clear()
        start = engine.now
        for seq in range(2):
            tor.receive(make_packet(seq=seq, payload_bytes=payload_bytes,
                                    dst_vip=vip, outer_dst=dst.pip))
        engine.run()
        assert len(arrivals) == 2
        return [at - start for at in arrivals]

    rate = downlink.rate_bps
    fast = delay_of_two(1000)
    downlink.rate_bps = rate / 10
    # A size the throttled link has not serialized before (cold path)
    # and the same size again (per-rate memo): both ten times slower.
    slow_cold = delay_of_two(1001)
    slow_warm = delay_of_two(1000)
    prop = downlink.propagation_ns
    ser_fast = fast[0] - prop
    assert ser_fast > 0
    for slow in (slow_cold, slow_warm):
        ser_slow = slow[0] - prop
        assert 9 * ser_fast < ser_slow < 11 * ser_fast
        # The queued packet waits one full serialization of the first.
        assert slow[1] - slow[0] == ser_slow
    # Backlog accounting uses the new rate too: queued nanoseconds
    # convert back to exactly the bytes queued, so a buffer sized for
    # two packets admits two of a four-packet burst (a stale, ten times
    # faster rate would count ten packets queued behind the first).
    probe = make_packet(payload_bytes=1000, dst_vip=vip, outer_dst=dst.pip)
    downlink.buffer_bytes = 2 * probe.wire_bytes + 10
    drops = downlink.stats.drops
    for seq in range(4):
        tor.receive(make_packet(seq=seq, payload_bytes=1000, dst_vip=vip,
                                outer_dst=dst.pip))
    engine.run()
    assert downlink.stats.drops == drops + 2


def _impair(fabric, link, case):
    if case == "tail drop":
        link.buffer_bytes = 0
    elif case == "down link":
        fabric.set_link_state(link, False)
    elif case == "random loss":
        link.set_loss(1.0, random.Random(0))


@pytest.mark.parametrize("case", ["admit", "tail drop", "down link",
                                  "random loss"])
@pytest.mark.parametrize("via", ["Link.transmit", "Switch.receive"])
def test_a_link_is_its_own_counters(via, case):
    """``Link.transmit`` and ``Switch.receive`` (the admission its
    fault-free body inlines, or the guarded body's ``Link.transmit``)
    move the link's four counters alike; ``link.stats`` is the link."""
    network = small_network(NoCache(), num_vms=8)
    dst = network.hosts[0]
    tor = network.fabric.tor_of(0, 0)
    link = tor.host_links[dst.pip]
    assert link.stats is link
    _impair(network.fabric, link, case)
    packet = make_packet(dst_vip=vip_on(network, dst), outer_dst=dst.pip)
    size = packet.wire_bytes
    if via == "Link.transmit":
        link.transmit(packet)
    else:
        tor.receive(packet)
    network.engine.run()
    expected = {"admit": (1, size, 0, 0), "tail drop": (0, 0, 1, 0),
                "down link": (0, 0, 1, 0), "random loss": (1, size, 0, 1)}
    assert (link.packets, link.bytes, link.drops, link.lost) == expected[case]
