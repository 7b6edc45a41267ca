"""Tests for the packet representation."""

from repro.core import SwitchV2P
from repro.net.addresses import UNRESOLVED
from repro.net.packet import HEADER_BYTES, MSS_BYTES, Packet, PacketKind

from conftest import small_network


def make(payload=100):
    return Packet(PacketKind.DATA, flow_id=1, seq=2, payload_bytes=payload,
                  src_vip=3, dst_vip=4, outer_src=5)


def test_defaults():
    packet = make()
    assert packet.outer_dst == UNRESOLVED
    assert not packet.resolved
    assert not packet.misdelivery_tag
    assert packet.hit_switch is None
    assert packet.spill_entry is None
    assert packet.promote_entry is None
    assert packet.carried_mapping is None
    assert packet.route_path is None
    assert packet.hops == 0
    assert packet.gateway_visits == 0


def test_wire_bytes_include_header():
    assert make(100).wire_bytes == 100 + HEADER_BYTES
    assert make(0).wire_bytes == HEADER_BYTES


def test_option_bytes_accounting():
    packet = make(100)
    assert packet.option_bytes == 0
    packet.spill_entry = (1, 2)
    assert packet.option_bytes == 8
    packet.promote_entry = (3, 4)
    packet.carried_mapping = (5, 6)
    assert packet.option_bytes == 24
    packet.misdelivery_tag = True
    assert packet.option_bytes == 28
    packet.hit_switch = 7  # shares the tag word
    assert packet.option_bytes == 28
    assert packet.wire_bytes == 100 + HEADER_BYTES + 28


def test_mss_plus_header_fits_standard_mtu_with_tunnel():
    assert MSS_BYTES + HEADER_BYTES == 1500


def test_repr_is_informative():
    text = repr(make())
    assert "DATA" in text
    assert "flow=1" in text
    assert "vip(3)" in text


def test_slots_prevent_arbitrary_attributes():
    packet = make()
    try:
        packet.bogus = 1
    except AttributeError:
        return
    raise AssertionError("Packet should use __slots__")


def test_kinds_are_distinct():
    assert len({PacketKind.DATA, PacketKind.ACK, PacketKind.LEARNING,
                PacketKind.INVALIDATION}) == 4


# ----------------------------------------------------------------------
# packet lifetime: a packet belongs to whoever still holds it
# ----------------------------------------------------------------------
def _deliver(network, src, dst_vip, flow_id, seq):
    packet = src.new_packet(PacketKind.DATA, flow_id, seq, 100, 0, dst_vip)
    src.send(packet)
    network.engine.run()
    return packet


def _fields(packet):
    return {name: getattr(packet, name) for name in Packet.__slots__}


def test_packet_kept_by_delivery_observer_keeps_its_fields():
    network = small_network(SwitchV2P(64), num_vms=8)
    src, dst_vip = network.host_of(0), 5
    dst = network.host_of(dst_vip)
    _deliver(network, src, dst_vip, flow_id=1, seq=0)  # warm the caches
    kept = []
    inner = dst.on_deliver

    def observer(packet):
        kept.append((packet, _fields(packet)))
        inner(packet)

    dst.on_deliver = observer
    _deliver(network, src, dst_vip, flow_id=7, seq=3)
    dst.on_deliver = inner
    (packet, at_delivery), = kept
    assert (packet.flow_id, packet.seq) == (7, 3)
    assert packet.hit_switch is not None  # an option a cache hit stamped
    for seq in range(100):
        _deliver(network, src, dst_vip, flow_id=9, seq=seq)
    assert _fields(packet) == at_delivery


def test_new_packet_is_a_fresh_object_after_a_delivery():
    network = small_network(SwitchV2P(64), num_vms=8)
    src = network.host_of(0)
    first = _deliver(network, src, 5, flow_id=1, seq=0)
    second = src.new_packet(PacketKind.DATA, 1, 1, 100, 0, 5)
    assert second is not first
    assert first.seq == 0 and first.hops > 0
