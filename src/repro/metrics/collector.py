"""Experiment metrics.

One :class:`Collector` instance accompanies each simulation run and
accumulates every quantity the paper reports: cache hit rates (total,
per-layer, first-packet), flow completion times, first-packet latency,
gateway load, per-switch byte counts (pulled from switch stats), packet
stretch, misdeliveries and protocol packet overheads.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from repro.net.node import Layer
from repro.net.packet import Packet


@dataclass(slots=True)
class FlowRecord:
    """Lifecycle record of a single flow."""

    flow_id: int
    src_vip: int
    dst_vip: int
    size_bytes: int
    start_ns: int
    first_packet_latency_ns: int | None = None
    fct_ns: int | None = None
    bytes_received: int = 0
    retransmissions: int = 0
    #: The transport gave up on this flow (max retransmits exceeded —
    #: destination or every gateway unreachable).  Terminal state, so
    #: experiments with dead endpoints still finish and can report
    #: per-flow availability.
    failed: bool = False
    #: Why the flow failed (e.g. ``"max-retransmits"``).  Every failed
    #: flow must carry one — the chaos oracles treat a failure without
    #: a reason as a harness bug.
    failure_reason: str | None = None

    @property
    def completed(self) -> bool:
        return self.fct_ns is not None


class Collector:
    """Accumulates per-run metrics; query helpers summarize them."""

    def __init__(self) -> None:
        self.flows: dict[int, FlowRecord] = {}
        self.packets_sent = 0
        self.gateway_arrivals = 0
        self.hits_by_layer: Counter = Counter()
        self.first_packet_hits_by_layer: Counter = Counter()
        self.learning_packets = 0
        self.invalidation_packets = 0
        self.spillover_inserts = 0
        self.promotions = 0
        self.misdeliveries = 0
        self.deliveries = 0
        self.delivered_hops = 0
        self.reorder_events = 0
        self.drops = 0
        self.last_misdelivered_arrival_ns: int | None = None
        self.packet_latency_sum_ns = 0
        self.packet_latency_count = 0
        #: Application payload bytes delivered to endpoints (goodput).
        self.delivered_payload_bytes = 0
        #: Packets hard-dropped because no live gateway remained.
        self.gateway_unavailable_drops = 0
        #: Packets lost at crashed gateways (summed at finalize).
        self.gateway_crash_drops = 0
        #: Packets shed by browned-out gateways (summed at finalize).
        self.gateway_brownout_drops = 0
        #: DATA / ACK packets delivered to a VIP's endpoint for a flow
        #: it holds no receiver / sender of, and so dropped there —
        #: except the ACKs counted in ``late_acks``.
        self.unclaimed_packets = 0
        #: ACKs of a completed flow whose sender was already done and
        #: forgotten (e.g. an ACK overtaken by the final one), dropped
        #: at the flow's source.
        self.late_acks = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def register_flow(self, record: FlowRecord) -> None:
        self.flows[record.flow_id] = record

    def record_gateway_arrival(self, packet: Packet) -> None:
        self.gateway_arrivals += 1

    def record_hit(self, layer: Layer, first_packet: bool) -> None:
        self.hits_by_layer[layer] += 1
        if first_packet:
            self.first_packet_hits_by_layer[layer] += 1

    def record_misdelivery(self, now: int) -> None:
        self.misdeliveries += 1
        self.last_misdelivered_arrival_ns = now

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of sent packets that never reached a gateway (§5)."""
        if self.packets_sent == 0:
            return 0.0
        missed = min(self.gateway_arrivals, self.packets_sent)
        return 1.0 - missed / self.packets_sent

    @property
    def in_network_hits(self) -> int:
        return sum(self.hits_by_layer.values())

    def hit_share_by_layer(self, first_packet: bool = False) -> dict[Layer, float]:
        """Per-layer share of in-network hits (Table 5 rows)."""
        source = self.first_packet_hits_by_layer if first_packet else self.hits_by_layer
        total = sum(source.values())
        if total == 0:
            return {layer: 0.0 for layer in Layer}
        return {layer: source.get(layer, 0) / total for layer in Layer}

    def completed_flows(self) -> list[FlowRecord]:
        return [flow for flow in self.flows.values() if flow.completed]

    def failed_flows(self) -> list[FlowRecord]:
        """Flows whose transport gave up (terminal, never completing)."""
        return [flow for flow in self.flows.values() if flow.failed]

    def unterminated_flows(self) -> list[FlowRecord]:
        """Flows that ended the run neither completed nor failed.

        Non-empty only while flows are genuinely in flight; at a
        quiescent horizon the chaos liveness oracle requires this to be
        empty.
        """
        return [flow for flow in self.flows.values()
                if not flow.completed and not flow.failed]

    @property
    def completion_rate(self) -> float:
        if not self.flows:
            return 0.0
        return len(self.completed_flows()) / len(self.flows)

    @property
    def availability(self) -> float:
        """Per-flow availability: fraction of flows that completed.

        Under fault injection this is the paper-style "graceful
        degradation" headline number — flows that were abandoned
        (``failed``) or still stuck at the horizon count against it.
        """
        return self.completion_rate

    def average_fct_ns(self) -> float:
        completed = [flow.fct_ns for flow in self.flows.values()
                     if flow.fct_ns is not None]
        if not completed:
            return float("inf")
        return statistics.fmean(completed)

    def average_first_packet_latency_ns(self) -> float:
        values = [flow.first_packet_latency_ns for flow in self.flows.values()
                  if flow.first_packet_latency_ns is not None]
        if not values:
            return float("inf")
        return statistics.fmean(values)

    def percentile_fct_ns(self, percentile: float) -> float:
        completed = sorted(flow.fct_ns for flow in self.flows.values()
                           if flow.fct_ns is not None)
        if not completed:
            return float("inf")
        index = min(len(completed) - 1, int(percentile / 100 * len(completed)))
        return float(completed[index])

    def average_packet_latency_ns(self) -> float:
        if self.packet_latency_count == 0:
            return float("inf")
        return self.packet_latency_sum_ns / self.packet_latency_count

    def average_stretch(self) -> float:
        """Mean number of switches traversed per delivered packet (§5.3)."""
        if self.deliveries == 0:
            return 0.0
        return self.delivered_hops / self.deliveries
