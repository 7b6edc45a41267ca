"""Tests for the metrics collector and reporting helpers."""

import math

from conftest import small_network

from repro.baselines import NoCache
from repro.metrics.collector import Collector, FlowRecord
from repro.metrics.reporting import format_cell, improvement, render_table
from repro.net.node import Layer
from repro.net.packet import Packet, PacketKind


def make_record(flow_id=1, fct=None, first=None):
    record = FlowRecord(flow_id=flow_id, src_vip=0, dst_vip=1,
                        size_bytes=1000, start_ns=0)
    record.fct_ns = fct
    record.first_packet_latency_ns = first
    return record


def test_hit_rate_zero_without_packets():
    assert Collector().hit_rate == 0.0


def test_hit_rate_formula():
    collector = Collector()
    collector.packets_sent = 100
    collector.gateway_arrivals = 25
    assert collector.hit_rate == 0.75


def test_hit_rate_clamps_excess_gateway_arrivals():
    collector = Collector()
    collector.packets_sent = 10
    collector.gateway_arrivals = 15  # misdeliveries can revisit gateways
    assert collector.hit_rate == 0.0


def test_fct_and_first_packet_averages():
    collector = Collector()
    collector.register_flow(make_record(1, fct=100, first=10))
    collector.register_flow(make_record(2, fct=300, first=30))
    collector.register_flow(make_record(3))  # incomplete
    assert collector.average_fct_ns() == 200
    assert collector.average_first_packet_latency_ns() == 20
    assert collector.completion_rate == 2 / 3


def test_averages_empty_are_infinite():
    collector = Collector()
    assert math.isinf(collector.average_fct_ns())
    assert math.isinf(collector.average_first_packet_latency_ns())


def test_percentile_fct():
    collector = Collector()
    for i, fct in enumerate([10, 20, 30, 40, 50, 60, 70, 80, 90, 100]):
        collector.register_flow(make_record(i, fct=fct))
    assert collector.percentile_fct_ns(50) == 60
    assert collector.percentile_fct_ns(99) == 100


def test_hit_share_by_layer():
    collector = Collector()
    collector.record_hit(Layer.TOR, first_packet=True)
    collector.record_hit(Layer.TOR, first_packet=False)
    collector.record_hit(Layer.SPINE, first_packet=False)
    collector.record_hit(Layer.CORE, first_packet=True)
    shares = collector.hit_share_by_layer()
    assert shares[Layer.TOR] == 0.5
    assert shares[Layer.SPINE] == 0.25
    first = collector.hit_share_by_layer(first_packet=True)
    assert first[Layer.TOR] == 0.5
    assert first[Layer.CORE] == 0.5
    assert collector.in_network_hits == 4


def test_hit_share_empty_is_zero():
    shares = Collector().hit_share_by_layer()
    assert all(v == 0.0 for v in shares.values())


def test_stretch_accounting():
    network = small_network(NoCache())
    host = network.hosts[0]
    packet = Packet(PacketKind.DATA, 1, 0, 100, 0, 1, 0, 1, created_at=0)
    packet.hops = 5
    network.engine.schedule(1000, host.on_deliver, packet)
    packet2 = Packet(PacketKind.ACK, 1, 0, 0, 1, 0, 1, 0, created_at=0)
    packet2.hops = 3
    network.engine.schedule(2000, host.on_deliver, packet2)
    network.engine.run()
    collector = network.collector
    assert collector.deliveries == 2
    assert collector.average_stretch() == 4.0
    # packet latency and goodput count only data packets
    assert collector.average_packet_latency_ns() == 1000
    assert collector.delivered_payload_bytes == 100


def test_misdelivery_records_last_arrival():
    collector = Collector()
    collector.record_misdelivery(now=500)
    collector.record_misdelivery(now=900)
    assert collector.last_misdelivered_arrival_ns == 900


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def test_render_table_alignment():
    text = render_table(["a", "bbbb"], [[1, 2.5], [333, "x"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbbb" in lines[1]
    assert len(lines) == 5


def test_format_cell():
    assert format_cell(1234.0) == "1,234"
    assert format_cell(float("nan")) == "n/a"
    assert format_cell(float("inf")) == "n/a"
    assert format_cell(0.1234) == "0.123"
    assert format_cell("abc") == "abc"


def test_improvement():
    assert improvement(50.0, 100.0) == 2.0
    assert math.isnan(improvement(0.0, 100.0))
    assert math.isnan(improvement(50.0, float("inf")))
