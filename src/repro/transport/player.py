"""The traffic player: runs flow specs over a virtual network.

The player owns the per-VIP endpoint demultiplexers, creates senders
and receivers, handles RPC response flows, and registers every flow
with the metrics collector.  It is the single entry point experiments
use to inject a trace into a simulation.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.metrics.collector import FlowRecord
from repro.net.packet import Packet, PacketKind
from repro.transport.flow import FlowSpec
from repro.transport.reliable import ReliableReceiver, ReliableSender, TransportConfig
from repro.transport.udp import UdpReceiver, UdpSender
from repro.vnet.network import VirtualNetwork

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class _VipDemux:
    """Routes packets arriving for one VIP to per-flow transport state."""

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
                sender.on_ack(packet.seq)
            else:
                self.player.network.collector.unclaimed_packets += 1


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
        self.flows: list[FlowRecord] = []

    # ------------------------------------------------------------------
    def add_flows(self, specs: Iterable[FlowSpec]) -> list[FlowRecord]:
        """Register flows and schedule their start events."""
        records = []
        for spec in specs:
            records.append(self._add_flow(spec))
        return records

    def _add_flow(self, spec: FlowSpec) -> FlowRecord:
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
        self.flows.append(record)
        self.network.engine.schedule(spec.start_ns, self._start_flow, spec, record)
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

    def _start_flow(self, spec: FlowSpec, record: FlowRecord) -> None:
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
            self._add_flow(response)
        return start_response

    # ------------------------------------------------------------------
    @property
    def all_complete(self) -> bool:
        return all(record.completed for record in self.flows)

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Convenience: run the underlying network simulation."""
        return self.network.run(until=until, max_events=max_events)
