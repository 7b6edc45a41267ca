"""The traffic player: runs flow specs over a virtual network.

The player owns the per-VIP endpoint demultiplexers, creates senders
and receivers, handles RPC response flows, and registers every flow
with the metrics collector.  It is the single entry point experiments
use to inject a trace into a simulation.

A run holds what is live: the calendar holds one pending start per
:meth:`TrafficPlayer.add_flows` batch, and a reliable flow's endpoints
are forgotten once its sender is done (see :class:`_VipDemux`).
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heappush

from repro.metrics.collector import FlowRecord
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import SimulationError
from repro.transport.flow import FlowSpec
from repro.transport.reliable import ReliableReceiver, ReliableSender, TransportConfig
from repro.transport.udp import UdpReceiver, UdpSender
from repro.vnet.network import VirtualNetwork

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class _VipDemux:
    """Routes packets arriving for one VIP to per-flow transport state.

    A reliable flow's sender is dropped on the ACK that makes it done,
    and so is its receiver if the flow never retransmitted: every
    segment then went out once and has been cumulatively ACKed, so no
    DATA for it is still in flight.  A flow that retransmitted keeps
    its receiver, to re-ACK a retransmission still in flight or sent
    after a lost final ACK.  An ACK that finds no sender for a completed
    flow is counted in ``Collector.late_acks``; any other packet for a
    flow the VIP holds no endpoint of, in ``Collector.unclaimed_packets``.
    """

    __slots__ = ("player", "vip", "receivers", "senders")

    def __init__(self, player: TrafficPlayer, vip: int) -> None:
        self.player = player
        self.vip = vip
        self.receivers: dict[int, object] = {}
        self.senders: dict[int, ReliableSender] = {}

    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind is _DATA:
            receiver = self.receivers.get(packet.flow_id)
            if receiver is not None:
                # Inlined network.host_of(); resolved per packet on
                # purpose — endpoints move with their VM, so the
                # backing host cannot be cached here.  The VIP was
                # looked up when this demux was made and is never
                # unmapped, so its table entry is a PIP — that of the
                # server delivering this packet, which is made.
                player = self.player
                host = player.network.host_by_pip[player.placement[self.vip]]
                receiver.on_data(packet, host)
            else:
                self.player.network.collector.unclaimed_packets += 1
        elif kind is _ACK:
            sender = self.senders.get(packet.flow_id)
            if sender is not None:
                if sender.on_ack(packet.seq):
                    record = sender.record
                    del self.senders[record.flow_id]
                    if record.retransmissions == 0:
                        del self.player._demux[record.dst_vip] \
                            .receivers[record.flow_id]
            else:
                collector = self.player.network.collector
                record = collector.flows.get(packet.flow_id)
                if record is not None and record.completed:
                    collector.late_acks += 1
                else:
                    collector.unclaimed_packets += 1


class TrafficPlayer:
    """Injects flows into a :class:`VirtualNetwork` and tracks them."""

    def __init__(self, network: VirtualNetwork,
                 transport_config: TransportConfig | None = None) -> None:
        self.network = network
        #: The database's VIP-indexed table, read per delivered packet.
        self.placement = network.database.table
        self.config = transport_config if transport_config is not None \
            else TransportConfig()
        self._next_flow_id = 1
        self._demux: dict[int, _VipDemux] = {}

    # ------------------------------------------------------------------
    def add_flows(self, specs: Iterable[FlowSpec]) -> list[FlowRecord]:
        """Register flows and feed their starts to the calendar.

        Every start is checked before any flow is registered, so a
        batch that raises registers nothing.  The calendar holds one
        start of the batch at a time, the earliest by ``(start_ns,
        index)``, and each start pushes the next when it fires.  Spec
        ``index`` keeps sequence number ``seq0 + index`` of a block
        reserved here, the key that scheduling every start now would
        have given it, so events run in the same order as if it had.

        Raises:
            SimulationError: if a start is before the current time.
        """
        specs = list(specs)
        engine = self.network.engine
        now = engine.now
        for spec in specs:
            if spec.start_ns < now:
                raise SimulationError(
                    f"cannot start a flow at t={spec.start_ns} before "
                    f"current time t={now}")
        records = [self._register(spec) for spec in specs]
        if specs:
            seq0 = engine.reserve(len(specs))
            # Keys are unique, so the sort never compares a spec.
            pending = sorted(((spec.start_ns, seq0 + index, spec, record)
                              for index, (spec, record)
                              in enumerate(zip(specs, records))),
                             reverse=True)
            at, seq, spec, record = pending.pop()
            heappush(engine._queue,
                     (at, seq, self._start_flow, (spec, record, pending)))
        return records

    def _register(self, spec: FlowSpec) -> FlowRecord:
        flow_id = spec.flow_id
        if flow_id is None:
            flow_id = self._next_flow_id
        self._next_flow_id = max(self._next_flow_id, flow_id) + 1
        record = FlowRecord(
            flow_id=flow_id,
            src_vip=spec.src_vip,
            dst_vip=spec.dst_vip,
            size_bytes=spec.size_bytes,
            start_ns=spec.start_ns,
        )
        self.network.collector.register_flow(record)
        return record

    # ------------------------------------------------------------------
    def _demux_for(self, vip: int) -> _VipDemux:
        demux = self._demux.get(vip)
        if demux is None:
            self.network.database.lookup(vip)  # MappingError: no VM has it
            demux = _VipDemux(self, vip)
            self._demux[vip] = demux
            self.network.endpoints[vip] = demux
        return demux

    def _start_flow(self, spec: FlowSpec, record: FlowRecord,
                    pending: list) -> None:
        if pending:
            # The batch's next start, under its reserved sequence number.
            at, seq, next_spec, next_record = pending.pop()
            heappush(self.network.engine._queue,
                     (at, seq, self._start_flow,
                      (next_spec, next_record, pending)))
        src_host = self.network.host_of(spec.src_vip)
        src_demux = self._demux_for(spec.src_vip)
        dst_demux = self._demux_for(spec.dst_vip)
        on_complete = None
        if spec.response_bytes > 0:
            on_complete = self._make_response_starter(spec)
        if spec.transport == "udp":
            sender = UdpSender(record, src_host, self.network.engine,
                               spec.udp_rate_bps, self.config.mss_bytes)
            receiver = UdpReceiver(record, self.network.engine,
                                   self.network.collector, on_complete)
        else:
            sender = ReliableSender(record, src_host, self.config,
                                    self.network.engine)
            receiver = ReliableReceiver(record, self.config, self.network.engine,
                                        self.network.collector,
                                        sender.total_packets, on_complete)
            src_demux.senders[record.flow_id] = sender
            fluid = self.network.fluid
            if fluid is not None:
                sender.fluid = fluid
                sender.fluid_receiver = receiver
        dst_demux.receivers[record.flow_id] = receiver
        sender.start()

    def _make_response_starter(self, request: FlowSpec):
        def start_response(record: FlowRecord) -> None:
            response = FlowSpec(
                src_vip=request.dst_vip,
                dst_vip=request.src_vip,
                size_bytes=request.response_bytes,
                start_ns=self.network.engine.now,
                transport=request.transport,
                udp_rate_bps=request.udp_rate_bps,
            )
            self.add_flows((response,))
        return start_response

    # ------------------------------------------------------------------
    @property
    def all_complete(self) -> bool:
        return all(record.completed
                   for record in self.network.collector.flows.values())

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Convenience: run the underlying network simulation."""
        return self.network.run(until=until, max_events=max_events)
