"""Constant-rate UDP senders and byte-counting receivers.

Used by the Microbursts, Video and migration-incast workloads, whose
behaviour under the paper's schemes is dominated by per-packet latency
and misdelivery rather than congestion control.

A receiver counts each sequence number's bytes once.  It tells a
duplicate apart with the window a reliable receiver keeps, not with a
history of every sequence number: ``rcv_next``, below which everything
has arrived, and the set of sequence numbers received above it.  The
receiver thus holds its reorder window, not its flow; a sequence number
that never arrives parks everything received above it.
"""

from __future__ import annotations

import math

from repro.metrics.collector import FlowRecord
from repro.net.packet import MSS_BYTES, Packet, PacketKind
from repro.vnet.hypervisor import Host


class UdpSender:
    """Emits a flow's packets at a fixed rate with no feedback."""

    __slots__ = ("record", "host", "engine", "rate_bps", "mss_bytes",
                 "total_packets", "next_seq", "gap_ns")

    def __init__(self, record: FlowRecord, host: Host, engine,
                 rate_bps: float, mss_bytes: int = MSS_BYTES) -> None:
        if rate_bps <= 0:
            raise ValueError("UDP rate must be positive")
        self.record = record
        self.host = host
        self.engine = engine
        self.rate_bps = rate_bps
        self.mss_bytes = mss_bytes
        self.total_packets = max(1, math.ceil(record.size_bytes / mss_bytes))
        self.next_seq = 0
        self.gap_ns = max(1, int(round(mss_bytes * 8e9 / rate_bps)))

    def start(self) -> None:
        self._send_next()

    def _payload_of(self, seq: int) -> int:
        if seq == self.total_packets - 1:
            remainder = self.record.size_bytes - seq * self.mss_bytes
            return remainder if remainder > 0 else self.mss_bytes
        return self.mss_bytes

    def _send_next(self) -> None:
        if self.next_seq >= self.total_packets:
            return
        host = self.host
        host.send(host.new_packet(
            PacketKind.DATA, self.record.flow_id, self.next_seq,
            self._payload_of(self.next_seq),
            self.record.src_vip, self.record.dst_vip))
        self.next_seq += 1
        if self.next_seq < self.total_packets:
            self.engine.schedule_after(self.gap_ns, self._send_next)


class UdpReceiver:
    """Counts received bytes; completion = all bytes arrived.

    Every sequence number below ``rcv_next`` has arrived;
    ``_out_of_order`` holds those received above it.  It is None until
    a packet first arrives out of order and is drained as the gap below
    it closes.  A packet is a duplicate when its sequence number is
    below ``rcv_next`` or in the set.
    """

    __slots__ = ("record", "engine", "collector", "on_complete", "rcv_next",
                 "_out_of_order", "_max_seen", "_completed")

    def __init__(self, record: FlowRecord, engine, collector,
                 on_complete=None) -> None:
        self.record = record
        self.engine = engine
        self.collector = collector
        self.on_complete = on_complete
        self.rcv_next = 0
        self._out_of_order: set[int] | None = None
        self._max_seen = -1
        self._completed = False

    def on_data(self, packet: Packet, host: Host) -> None:
        now = self.engine.now
        record = self.record
        if record.first_packet_latency_ns is None:
            record.first_packet_latency_ns = now - record.start_ns
        seq = packet.seq
        if seq < self._max_seen:
            self.collector.reorder_events += 1
        if seq > self._max_seen:
            self._max_seen = seq
        rcv_next = self.rcv_next
        if seq == rcv_next:
            # In order: the set holds nothing at or below ``rcv_next``.
            record.bytes_received += packet.payload_bytes
            rcv_next += 1
            held = self._out_of_order
            if held:
                while rcv_next in held:
                    held.discard(rcv_next)
                    rcv_next += 1
            self.rcv_next = rcv_next
        elif seq > rcv_next:
            held = self._out_of_order
            if held is None:
                held = self._out_of_order = set()
            if seq not in held:
                record.bytes_received += packet.payload_bytes
                held.add(seq)
        if not self._completed and record.bytes_received >= record.size_bytes:
            self._completed = True
            record.fct_ns = now - record.start_ns
            if self.on_complete is not None:
                self.on_complete(record)
