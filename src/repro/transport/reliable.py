"""A simplified reliable windowed transport (TCP-like).

The paper's FCT results hinge on how translation detours and drops
interact with a window-based transport: slow start amplifies the
first-RTT latency of short flows, and drops near overloaded gateways
depress throughput.  This implementation models exactly those effects —
IW10 slow start, AIMD-style backoff, duplicate-ACK fast retransmit and
an exponential-backoff RTO — while staying cheap enough to simulate
hundreds of thousands of packets in pure Python.

Reordering tolerance: SwitchV2P can reorder packets when a cache
becomes populated mid-burst (§4).  Modern stacks tolerate large
reordering (Linux allows up to 300 reordered segments; RACK-TLP is
similarly robust), so the default duplicate-ACK threshold is high and
configurable; the reordering a run experienced is still recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.metrics.collector import FlowRecord
from repro.net.packet import MSS_BYTES, Packet, PacketKind
from repro.sim.engine import usec
from repro.vnet.hypervisor import Host

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


@dataclass(frozen=True)
class TransportConfig:
    """Reliable-transport tuning parameters."""

    mss_bytes: int = MSS_BYTES
    initial_cwnd: int = 10
    max_cwnd: int = 128
    dupack_threshold: int = 50
    initial_rto_ns: int = usec(500)
    max_rto_ns: int = usec(64_000)
    #: RTO retransmissions of the same hole before the flow is
    #: abandoned and its record marked failed (Linux tcp_retries2-style
    #: give-up).  Without a cap, a sender whose destination — or every
    #: gateway — is dead retransmits forever and experiments never
    #: reach a terminal state.
    max_retransmits: int = 16

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ValueError("mss must be positive")
        if self.initial_cwnd < 1 or self.max_cwnd < self.initial_cwnd:
            raise ValueError("invalid congestion window bounds")
        if self.dupack_threshold < 1:
            raise ValueError("dupack_threshold must be >= 1, got "
                             f"{self.dupack_threshold}")
        if self.initial_rto_ns <= 0:
            raise ValueError("initial_rto_ns must be positive, got "
                             f"{self.initial_rto_ns}")
        if self.max_rto_ns < self.initial_rto_ns:
            raise ValueError(f"max_rto_ns ({self.max_rto_ns}) must be >= "
                             f"initial_rto_ns ({self.initial_rto_ns})")
        if self.max_retransmits < 1:
            raise ValueError("max_retransmits must be >= 1")


class ReliableSender:
    """Sender half of one reliable flow."""

    __slots__ = (
        "record", "host", "config", "engine", "total_packets", "snd_una",
        "snd_next", "cwnd", "ssthresh", "dup_acks", "rto_ns", "_timer",
        "done", "acks_received", "fluid", "fluid_receiver", "_fluid_active",
        "_fluid_wait", "_fluid_attempts", "_fluid_retry_seq",
    )

    def __init__(self, record: FlowRecord, host: Host, config: TransportConfig,
                 engine) -> None:
        self.record = record
        self.host = host
        self.config = config
        self.engine = engine
        self.total_packets = max(1, math.ceil(record.size_bytes / config.mss_bytes))
        self.snd_una = 0
        self.snd_next = 0
        self.cwnd = float(config.initial_cwnd)
        self.ssthresh = float(config.max_cwnd)
        self.dup_acks = 0
        self.rto_ns = config.initial_rto_ns
        self._timer = None
        self.done = False
        #: Total ACK packets received (not cumulative progress) — the
        #: hybrid-fidelity drain below needs to know when every sent
        #: packet has been acknowledged *individually*, which a
        #: cumulative ACK cannot tell.
        self.acks_received = 0
        #: Hybrid-fidelity hooks, wired by the traffic player when the
        #: network runs with ``fidelity="hybrid"``; all None/False in
        #: pure-packet mode, where every branch below short-circuits.
        self.fluid = None
        self.fluid_receiver = None
        self._fluid_active = False
        self._fluid_wait = False
        self._fluid_attempts = 0
        self._fluid_retry_seq = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._send_window()
        self._arm_timer()

    def _payload_of(self, seq: int) -> int:
        if seq == self.total_packets - 1:
            remainder = self.record.size_bytes - seq * self.config.mss_bytes
            return remainder if remainder > 0 else self.config.mss_bytes
        return self.config.mss_bytes

    def _send_segment(self, seq: int) -> None:
        host = self.host
        host.send(host.new_packet(
            PacketKind.DATA, self.record.flow_id, seq, self._payload_of(seq),
            self.record.src_vip, self.record.dst_vip))

    def _send_window(self) -> None:
        # ``_send_segment`` per segment, inlined: a steady flow refills
        # its window once per ACK.
        seq = self.snd_next
        limit = min(self.total_packets, self.snd_una + int(self.cwnd))
        if seq >= limit:
            return
        record = self.record
        host = self.host
        mss = self.config.mss_bytes
        last = self.total_packets - 1
        while seq < limit:
            payload = mss
            if seq == last:
                remainder = record.size_bytes - seq * mss
                if remainder > 0:
                    payload = remainder
            host.send(Packet(_DATA, record.flow_id, seq, payload,
                             record.src_vip, record.dst_vip, host.pip))
            seq += 1
            self.snd_next = seq

    # ------------------------------------------------------------------
    def on_ack(self, cumulative_seq: int) -> bool:
        """Take one cumulative ACK; True if it made the sender done.

        The endpoint table forgets the sender on that True.
        """
        self.acks_received += 1
        if self.done:
            return False
        if self._fluid_active:
            # A stale ACK (a duplicate delivery from a pre-adoption
            # retransmission) arriving while the fluid scheduler owns
            # this flow: the scheduler's analytic state supersedes it.
            return False
        config = self.config
        if cumulative_seq > self.snd_una:
            newly_acked = cumulative_seq - self.snd_una
            self.snd_una = cumulative_seq
            self.dup_acks = 0
            self.rto_ns = config.initial_rto_ns
            if self.cwnd < self.ssthresh:
                self.cwnd = min(config.max_cwnd, self.cwnd + newly_acked)
            else:
                self.cwnd = min(config.max_cwnd,
                                self.cwnd + newly_acked / self.cwnd)
            if self.snd_una >= self.total_packets:
                self.done = True
                self.engine.cancel_timer(self._timer)
                self._timer = None
                return True
            if self._fluid_wait:
                if (self.snd_una == self.snd_next
                        and self.acks_received == self.snd_next):
                    # Pipe fully drained: every sent packet delivered
                    # and acknowledged exactly once.  Hand the flow to
                    # the fluid scheduler, which either adopts it or
                    # restores + resumes us before returning.
                    self._fluid_wait = False
                    self.engine.cancel_timer(self._timer)
                    self._timer = None
                    self.fluid.adopt_reliable(self)
                # Still draining: skip the window refill so the pipe
                # empties; the armed RTO aborts a stalled wait.
                return False
            fluid = self.fluid
            if (fluid is not None
                    and self.record.retransmissions == 0
                    and self.cwnd >= config.max_cwnd
                    and self.snd_una >= self._fluid_retry_seq
                    and self._fluid_attempts < fluid.max_attempts
                    and self.total_packets - self.snd_next
                        >= config.max_cwnd + fluid.min_span):
                # Steady state with a long analytically-advanceable
                # run ahead: stop refilling and drain toward adoption.
                self._fluid_wait = True
                return False
            self._send_window()
            self._arm_timer()
            return False
        # Duplicate cumulative ACK.
        if self._fluid_wait:
            # Reordering or loss showed up mid-drain: abort the wait
            # and resume normal windowed sending before dup handling.
            self._fluid_wait = False
            self._fluid_attempts += 1
            self._fluid_retry_seq = self.snd_una + 2 * int(self.cwnd)
            self._send_window()
            self._arm_timer()
        self.dup_acks += 1
        if self.dup_acks >= config.dupack_threshold:
            self.dup_acks = 0
            self._enter_recovery()
            self._send_segment(self.snd_una)
            self.record.retransmissions += 1
        return False

    def _enter_recovery(self) -> None:
        self.ssthresh = max(2.0, self.cwnd / 2)
        self.cwnd = self.ssthresh

    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        # Called on every ACK.  The clock only advances, so the new
        # deadline is no earlier than the armed one unless an ACK just
        # reset a backed-off ``rto_ns``: the engine moves the live timer
        # in place and pushes nothing, except in that rare case.
        self._timer = self.engine.rearm_timer(self._timer, self.rto_ns,
                                              self._on_timeout, self.snd_una)

    def _on_timeout(self, una_at_arm: int) -> None:
        self._timer = None
        if self.done:
            return
        if self.snd_una > una_at_arm:
            # Progress since arming; re-arm fresh.
            self._arm_timer()
            return
        if self._fluid_wait:
            # The pre-adoption drain stalled (a tail ACK was lost):
            # abort the wait and resume windowed sending.  If data was
            # lost too, the next timeout takes the retransmit path.
            self._fluid_wait = False
            self._fluid_attempts += 1
            self._fluid_retry_seq = self.snd_una + 2 * int(self.cwnd)
            self._send_window()
            self._arm_timer()
            return
        if self.record.retransmissions >= self.config.max_retransmits:
            # Give up: the destination (or every gateway on the way to
            # it) is unreachable.  Terminal state — no more timers.  A
            # record the receiver already completed stays completed:
            # only the tail ACKs were lost, and a flow must never be
            # both completed and failed.
            if not self.record.completed:
                self.record.failed = True
                self.record.failure_reason = "max-retransmits"
            self.done = True
            return
        # Retransmission timeout: go back to the hole, collapse cwnd.
        self.ssthresh = max(2.0, self.cwnd / 2)
        self.cwnd = float(self.config.initial_cwnd)
        self.snd_next = max(self.snd_next, self.snd_una + 1)
        self._send_segment(self.snd_una)
        self.record.retransmissions += 1
        self.rto_ns = min(self.config.max_rto_ns, self.rto_ns * 2)
        self._arm_timer()


class ReliableReceiver:
    """Receiver half of one reliable flow: cumulative ACKs, completion.

    ``_out_of_order`` holds the sequence numbers received above
    ``rcv_next``; it is None until a packet first arrives out of order.
    """

    __slots__ = ("record", "config", "engine", "collector", "total_packets",
                 "rcv_next", "_out_of_order", "_max_seen", "on_complete",
                 "_completed")

    def __init__(self, record: FlowRecord, config: TransportConfig, engine,
                 collector, total_packets: int,
                 on_complete=None) -> None:
        self.record = record
        self.config = config
        self.engine = engine
        self.collector = collector
        self.total_packets = total_packets
        self.rcv_next = 0
        self._out_of_order: set[int] | None = None
        self._max_seen = -1
        self.on_complete = on_complete
        self._completed = False

    def on_data(self, packet: Packet, host: Host) -> None:
        now = self.engine._now
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
        # One cumulative ACK per data packet received.
        host.send(Packet(_ACK, packet.flow_id, rcv_next, 0,
                         packet.dst_vip, packet.src_vip, host.pip))
        if not self._completed and rcv_next >= self.total_packets:
            self._completed = True
            record.fct_ns = now - record.start_ns
            if self.on_complete is not None:
                self.on_complete(record)
