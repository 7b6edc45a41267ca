"""Reference model for the receiver differential test.

The set-based ``UdpReceiver`` that ``repro.transport.udp.UdpReceiver``
replaced, kept here verbatim: it remembers every sequence number its
flow has received until the run ends, where the new one keeps
``rcv_next`` and the set of sequence numbers received above it.
``tests/test_receivers.py`` feeds both, and the reliable receiver,
the same packet streams and compares what each records.  Not imported
by anything under ``src/``.
"""

from __future__ import annotations

from repro.metrics.collector import FlowRecord
from repro.net.packet import Packet
from repro.vnet.hypervisor import Host


class UdpReceiver:
    """Counts received bytes; completion = all bytes arrived."""

    __slots__ = ("record", "engine", "collector", "on_complete", "_seen",
                 "_max_seen", "_completed")

    def __init__(self, record: FlowRecord, engine, collector,
                 on_complete=None) -> None:
        self.record = record
        self.engine = engine
        self.collector = collector
        self.on_complete = on_complete
        self._seen: set[int] = set()
        self._max_seen = -1
        self._completed = False

    def on_data(self, packet: Packet, host: Host) -> None:
        now = self.engine.now
        record = self.record
        if record.first_packet_latency_ns is None:
            record.first_packet_latency_ns = now - record.start_ns
        if packet.seq < self._max_seen:
            self.collector.reorder_events += 1
        if packet.seq > self._max_seen:
            self._max_seen = packet.seq
        if packet.seq not in self._seen:
            self._seen.add(packet.seq)
            record.bytes_received += packet.payload_bytes
        if not self._completed and record.bytes_received >= record.size_bytes:
            self._completed = True
            record.fct_ns = now - record.start_ns
            if self.on_complete is not None:
                self.on_complete(record)
