"""Differential test of the receivers' duplicate detection.

A UDP receiver keeps ``rcv_next`` and the set of sequence numbers
received above it instead of every sequence number it has seen
(``tests/reference_receivers.py`` keeps the set-based one it replaced).
Seeded packet streams — in order, reordered, with duplicates (some
after the flow completed) and with one sequence number that never
arrives — are fed to the reference, to ``UdpReceiver`` and to
``ReliableReceiver``, whose ACKs a loopback host records.  After every
packet the three must agree on the bytes received, the collector's
reorder count, the first-packet latency, the completion time and the
``on_complete`` calls; the reliable receiver's cumulative ACK, and the
UDP receiver's ``rcv_next``, must be the lowest sequence number the
reference has not seen.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.collector import Collector, FlowRecord
from repro.net.packet import MSS_BYTES, Packet, PacketKind
from repro.sim.engine import Engine
from repro.transport.reliable import ReliableReceiver, TransportConfig
from repro.transport.udp import UdpReceiver

from conftest import LoopbackHost
from reference_receivers import UdpReceiver as SetUdpReceiver

SEEDS_PER_KIND = 40

KINDS = ("in-order", "reordered", "duplicates", "gap")


def make_stream(seed: int, kind: str) -> tuple[int, list[int]]:
    """A flow's packet count and the sequence numbers it delivers."""
    rng = random.Random(f"{kind}-{seed}")
    # A few flows of one to three packets, the rest up to 80.
    if rng.random() < 0.15:
        total = rng.choice((1, 2, 3))
    else:
        total = rng.randrange(4, 80)
    if kind == "gap":
        total = max(total, 2)  # one packet is lost, one must arrive
    seqs = list(range(total))
    if kind == "in-order":
        return total, seqs
    # Reorder: swap pairs at most a few places apart, or shuffle all.
    if rng.random() < 0.2:
        rng.shuffle(seqs)
    else:
        for _ in range(rng.randrange(1, total + 2)):
            i = rng.randrange(total)
            j = min(total - 1, i + rng.randrange(1, 6))
            seqs[i], seqs[j] = seqs[j], seqs[i]
    if kind in ("duplicates", "gap"):
        for _ in range(rng.randrange(1, total // 2 + 3)):
            seqs.insert(rng.randrange(len(seqs) + 1), rng.randrange(total))
        # Copies after the last original: past completion when the
        # flow completes.
        seqs.extend(rng.randrange(total) for _ in range(rng.randrange(1, 4)))
    if kind == "gap":
        lost = rng.randrange(total)
        seqs = [seq for seq in seqs if seq != lost]
    return total, seqs


def play(make_receiver, total: int, seqs: list[int], seed: int) -> list:
    """Deliver ``seqs`` to a fresh receiver; one snapshot per packet."""
    rng = random.Random(seed)
    engine = Engine()
    collector = Collector()
    last_payload = rng.randrange(1, MSS_BYTES + 1)
    record = FlowRecord(flow_id=7, src_vip=1, dst_vip=2,
                        size_bytes=(total - 1) * MSS_BYTES + last_payload,
                        start_ns=rng.randrange(1_000))
    completions = []
    receiver = make_receiver(record, engine, collector, total,
                             lambda done: completions.append(
                                 (done.flow_id, engine.now)))
    host = LoopbackHost(engine)
    snapshots = []

    def deliver(seq):
        payload = last_payload if seq == total - 1 else MSS_BYTES
        receiver.on_data(Packet(PacketKind.DATA, 7, seq, payload, 1, 2, 9),
                         host)
        snapshots.append((record.bytes_received, collector.reorder_events,
                          record.first_packet_latency_ns, record.fct_ns,
                          tuple(completions), cumulative(receiver, host)))

    at = record.start_ns
    for seq in seqs:
        # Ties included: several packets may land at the same time.
        at += rng.choice((0, 1, 500, 1_200))
        engine.schedule(at, deliver, seq)
    engine.run()
    return snapshots


def cumulative(receiver, host) -> int:
    """The first sequence number the receiver has not received."""
    if isinstance(receiver, SetUdpReceiver):
        seq = 0
        while seq in receiver._seen:
            seq += 1
        return seq
    if isinstance(receiver, ReliableReceiver):
        return host.sent[-1].seq
    return receiver.rcv_next


def set_udp(record, engine, collector, _total, on_complete):
    return SetUdpReceiver(record, engine, collector, on_complete)


def window_udp(record, engine, collector, _total, on_complete):
    return UdpReceiver(record, engine, collector, on_complete)


def reliable(record, engine, collector, total, on_complete):
    return ReliableReceiver(record, TransportConfig(), engine, collector,
                            total, on_complete)


@pytest.mark.parametrize("kind", KINDS)
def test_receivers_match_the_set_based_reference(kind):
    completed = reordered = 0
    for seed in range(SEEDS_PER_KIND):
        total, seqs = make_stream(seed, kind)
        expected = play(set_udp, total, seqs, seed)
        for make in (window_udp, reliable):
            got = play(make, total, seqs, seed)
            for step, (want, have) in enumerate(zip(expected, got)):
                assert have == want, (
                    f"{make.__name__}, {kind} seed {seed}, packet {step} "
                    f"(seq {seqs[step]}): {have} != reference {want}")
            assert len(got) == len(expected)
        final = expected[-1]
        completed += final[3] is not None
        reordered += final[1] > 0
    # The streams must reach what they are for.
    if kind == "gap":
        assert completed == 0
    else:
        assert completed == SEEDS_PER_KIND
    if kind != "in-order":
        assert reordered > SEEDS_PER_KIND // 2


def test_a_udp_receiver_holds_its_window_not_its_flow():
    # In order, the out-of-order set is never made; reordered, it is
    # drained as each gap closes; a gap that never closes parks only
    # what arrived above it.
    total, seqs = 50, list(range(50))
    holders = []

    def keep(record, engine, collector, _total, on_complete):
        holders.append(UdpReceiver(record, engine, collector, on_complete))
        return holders[-1]

    play(keep, total, seqs, 0)
    play(keep, total, [1, 0] + seqs[2:], 0)
    play(keep, total, [seq for seq in seqs if seq != 20], 0)
    in_order, reordered, gap = holders
    assert in_order._out_of_order is None and in_order.rcv_next == 50
    assert reordered._out_of_order == set() and reordered.rcv_next == 50
    assert gap.rcv_next == 20 and gap._out_of_order == set(range(21, 50))
