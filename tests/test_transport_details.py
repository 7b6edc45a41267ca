"""Detailed reliable-transport behaviour tests."""

import pytest

from repro.metrics.collector import Collector, FlowRecord
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine, usec
from repro.transport.reliable import (
    ReliableReceiver,
    ReliableSender,
    TransportConfig,
)

from conftest import LoopbackHost


def make_sender(size_bytes, engine=None, **config_kwargs):
    engine = engine or Engine()
    config = TransportConfig(**config_kwargs)
    record = FlowRecord(flow_id=1, src_vip=0, dst_vip=1,
                        size_bytes=size_bytes, start_ns=0)
    host = LoopbackHost(engine)
    sender = ReliableSender(record, host, config, engine)
    return sender, host, engine


def test_initial_window_is_iw():
    sender, host, _ = make_sender(100_000, initial_cwnd=10)
    sender.start()
    assert len(host.sent) == 10
    assert [p.seq for p in host.sent] == list(range(10))


def test_small_flow_sends_all_at_once():
    sender, host, _ = make_sender(3 * 1440, initial_cwnd=10)
    sender.start()
    assert len(host.sent) == 3


def test_last_segment_carries_remainder():
    sender, host, _ = make_sender(1440 + 100)
    sender.start()
    assert host.sent[0].payload_bytes == 1440
    assert host.sent[1].payload_bytes == 100


def test_slow_start_doubles_per_rtt():
    sender, host, _ = make_sender(1_000_000, initial_cwnd=4, max_cwnd=64)
    sender.start()
    assert len(host.sent) == 4
    for seq in range(1, 5):
        sender.on_ack(seq)
    # Each ACK grew cwnd by 1 (slow start): 4 acked + cwnd 8 -> 8 total
    # new segments beyond the original 4.
    assert sender.cwnd == pytest.approx(8)
    assert len(host.sent) == 12


def test_cwnd_capped():
    sender, host, _ = make_sender(10_000_000, initial_cwnd=32, max_cwnd=40)
    sender.start()
    for seq in range(1, 33):
        sender.on_ack(seq)
    assert sender.cwnd <= 40


def test_congestion_avoidance_grows_slowly():
    sender, host, _ = make_sender(10_000_000, initial_cwnd=8, max_cwnd=64)
    sender.ssthresh = 8  # start in congestion avoidance
    sender.start()
    before = sender.cwnd
    sender.on_ack(1)
    assert sender.cwnd == pytest.approx(before + 1 / before)


def test_dupacks_trigger_fast_retransmit():
    sender, host, _ = make_sender(1_000_000, initial_cwnd=8,
                                  dupack_threshold=3)
    sender.start()
    sent_before = len(host.sent)
    for _ in range(3):
        sender.on_ack(0)  # duplicate cumulative ACKs
    assert len(host.sent) == sent_before + 1
    assert host.sent[-1].seq == 0  # the hole
    assert sender.record.retransmissions == 1


def test_high_dupack_threshold_tolerates_reordering():
    sender, host, _ = make_sender(1_000_000, initial_cwnd=8,
                                  dupack_threshold=50)
    sender.start()
    sent_before = len(host.sent)
    for _ in range(10):
        sender.on_ack(0)
    assert len(host.sent) == sent_before  # no spurious retransmit


def test_rto_fires_and_backs_off():
    sender, host, engine = make_sender(100_000, initial_cwnd=4,
                                       initial_rto_ns=usec(100))
    sender.start()
    sent_before = len(host.sent)
    engine.run(until=usec(120))
    assert len(host.sent) == sent_before + 1  # RTO retransmission
    assert sender.rto_ns == usec(200)  # doubled


def test_rto_cancelled_by_completion():
    sender, host, engine = make_sender(1_000, initial_rto_ns=usec(100))
    sender.start()
    sender.on_ack(1)  # complete
    assert sender.done
    sent_before = len(host.sent)
    engine.run(until=usec(1_000))
    assert len(host.sent) == sent_before  # no zombie retransmissions


def test_receiver_cumulative_ack_with_gap():
    engine = Engine()
    collector = Collector()
    record = FlowRecord(flow_id=1, src_vip=0, dst_vip=1, size_bytes=3 * 1440,
                        start_ns=0)
    host = LoopbackHost(engine)
    receiver = ReliableReceiver(record, TransportConfig(), engine, collector,
                                total_packets=3)

    def data(seq):
        return Packet(PacketKind.DATA, flow_id=1, seq=seq, payload_bytes=1440,
                      src_vip=0, dst_vip=1, outer_src=7)

    receiver.on_data(data(0), host)
    receiver.on_data(data(2), host)  # gap at 1
    assert [p.seq for p in host.sent] == [1, 1]  # cumulative ACKs
    assert collector.reorder_events == 0
    receiver.on_data(data(1), host)
    assert host.sent[-1].seq == 3
    assert record.completed
    assert record.bytes_received == 3 * 1440


def test_receiver_ignores_duplicate_data():
    engine = Engine()
    collector = Collector()
    record = FlowRecord(flow_id=1, src_vip=0, dst_vip=1, size_bytes=2 * 1440,
                        start_ns=0)
    host = LoopbackHost(engine)
    receiver = ReliableReceiver(record, TransportConfig(), engine, collector,
                                total_packets=2)
    packet = Packet(PacketKind.DATA, flow_id=1, seq=0, payload_bytes=1440,
                    src_vip=0, dst_vip=1, outer_src=7)
    receiver.on_data(packet, host)
    receiver.on_data(packet, host)
    assert record.bytes_received == 1440  # counted once
    assert len(host.sent) == 2  # but every copy is ACKed


def test_reorder_counted_on_late_arrival():
    engine = Engine()
    collector = Collector()
    record = FlowRecord(flow_id=1, src_vip=0, dst_vip=1, size_bytes=3 * 1440,
                        start_ns=0)
    host = LoopbackHost(engine)
    receiver = ReliableReceiver(record, TransportConfig(), engine, collector,
                                total_packets=3)

    def data(seq):
        return Packet(PacketKind.DATA, flow_id=1, seq=seq, payload_bytes=1440,
                      src_vip=0, dst_vip=1, outer_src=7)

    receiver.on_data(data(2), host)
    receiver.on_data(data(0), host)  # arrives after a higher seq
    assert collector.reorder_events == 1
