"""Tests for the reliable transport and UDP senders."""

import pytest

from repro.baselines.direct import Direct
from repro.baselines.nocache import NoCache
from repro.net.packet import PacketKind
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer, _VipDemux
from repro.transport.reliable import TransportConfig

from conftest import small_network


def run_single_flow(scheme, size_bytes, transport="tcp", config=None,
                    num_vms=8, until=msec(50)):
    network = small_network(scheme, num_vms=num_vms)
    player = TrafficPlayer(network, config)
    spec = FlowSpec(src_vip=0, dst_vip=5, size_bytes=size_bytes, start_ns=0,
                    transport=transport, udp_rate_bps=1e9)
    [record] = player.add_flows([spec])
    network.run(until=until)
    return network, record


def test_single_packet_flow_completes():
    network, record = run_single_flow(NoCache(), 500)
    assert record.completed
    assert record.bytes_received == 500
    assert record.first_packet_latency_ns is not None
    assert record.fct_ns >= record.first_packet_latency_ns


def test_multi_packet_flow_completes():
    network, record = run_single_flow(NoCache(), 100_000)
    assert record.completed
    assert record.bytes_received == 100_000


def test_large_flow_exceeding_initial_window():
    config = TransportConfig(initial_cwnd=2, max_cwnd=8)
    network, record = run_single_flow(NoCache(), 60_000, config=config)
    assert record.completed


def test_direct_is_faster_than_gateway():
    _, via_gateway = run_single_flow(NoCache(), 20_000)
    _, direct = run_single_flow(Direct(), 20_000)
    assert direct.completed and via_gateway.completed
    assert direct.fct_ns < via_gateway.fct_ns
    assert direct.first_packet_latency_ns < via_gateway.first_packet_latency_ns


def test_udp_flow_completes_and_paces():
    network, record = run_single_flow(NoCache(), 10_000, transport="udp")
    assert record.completed
    assert record.bytes_received == 10_000


def test_udp_first_packet_latency_recorded():
    _, record = run_single_flow(NoCache(), 3_000, transport="udp")
    assert record.first_packet_latency_ns is not None
    assert record.first_packet_latency_ns > 0


def test_flow_record_registered_with_collector():
    network, record = run_single_flow(NoCache(), 1_000)
    assert network.collector.flows[record.flow_id] is record
    assert network.collector.completion_rate == 1.0


def test_transport_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(mss_bytes=0)
    with pytest.raises(ValueError):
        TransportConfig(initial_cwnd=0)
    with pytest.raises(ValueError):
        TransportConfig(initial_cwnd=10, max_cwnd=5)


@pytest.mark.parametrize("field, value", [
    ("initial_rto_ns", 0), ("initial_rto_ns", -5),
    ("max_rto_ns", -1000), ("max_rto_ns", 0), ("max_rto_ns", 499_999),
    ("dupack_threshold", 0)])
def test_transport_config_rejects_an_unusable_timer_naming_the_field(field,
                                                                     value):
    """A non-positive RTO used to reach the engine as a negative or zero
    delay, mid-run."""
    with pytest.raises(ValueError, match=field):
        TransportConfig(**{field: value})
    TransportConfig(initial_rto_ns=1, max_rto_ns=1, dupack_threshold=1)


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(src_vip=0, dst_vip=1, size_bytes=0, start_ns=0)
    with pytest.raises(ValueError):
        FlowSpec(src_vip=0, dst_vip=1, size_bytes=10, start_ns=-1)
    with pytest.raises(ValueError):
        FlowSpec(src_vip=0, dst_vip=1, size_bytes=10, start_ns=0,
                 transport="sctp")
    with pytest.raises(ValueError):
        FlowSpec(src_vip=0, dst_vip=1, size_bytes=10, start_ns=0,
                 transport="udp", udp_rate_bps=0)


def test_rpc_response_flow_spawned():
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=2_000,
                               start_ns=0, response_bytes=4_000)])
    network.run(until=msec(50))
    flows = network.collector.flows
    assert len(flows) == 2
    request, response = flows.values()
    assert response.src_vip == 5 and response.dst_vip == 0
    assert response.size_bytes == 4_000
    assert request.completed and response.completed
    assert response.start_ns >= request.fct_ns


def test_many_concurrent_flows_all_complete():
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    specs = [FlowSpec(src_vip=i % 8, dst_vip=(i + 3) % 8,
                      size_bytes=5_000 + 100 * i, start_ns=i * 1_000)
             for i in range(40)]
    player.add_flows(specs)
    network.run(until=msec(100))
    assert player.all_complete


def test_retransmission_after_total_loss_window(monkeypatch):
    """Force a drop by shrinking a link buffer; the flow still completes."""
    network = small_network(NoCache(), num_vms=8)
    # Throttle the destination host's downlink so drops occur.
    dst_host = network.host_of(5)
    from repro.net.addresses import pip_pod, pip_rack
    tor = network.fabric.tor_of(pip_pod(dst_host.pip), pip_rack(dst_host.pip))
    downlink = tor.host_links[dst_host.pip]
    downlink.rate_bps = 1e9  # 100x slower than upstream: queue builds
    downlink.buffer_bytes = 3_000  # two packets worth
    player = TrafficPlayer(network, TransportConfig(initial_cwnd=10))
    [record] = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                          size_bytes=30_000, start_ns=0)])
    network.run(until=msec(200))
    assert record.completed
    assert record.retransmissions > 0


def _endpoints_through(monkeypatch, intercept):
    """Hand every packet a VIP's endpoint gets to ``intercept(deliver,
    demux, packet)`` instead, ``deliver(demux, packet)`` being the
    endpoint's own delivery."""
    deliver = _VipDemux.on_packet
    monkeypatch.setattr(_VipDemux, "on_packet",
                        lambda demux, packet: intercept(deliver, demux, packet))


def test_a_lost_final_ack_after_a_retransmission_is_re_acked(monkeypatch):
    lost = []

    def lose_once(deliver, demux, packet):
        key = (packet.kind, packet.seq)
        if key in ((PacketKind.DATA, 0), (PacketKind.ACK, 3)) \
                and key not in lost:
            lost.append(key)
        else:
            deliver(demux, packet)

    _endpoints_through(monkeypatch, lose_once)
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                          size_bytes=3 * 1440, start_ns=0)])
    network.run(until=msec(50))
    # Segment 0's retransmission completes the receiver, and its ACK is
    # lost; the second retransmission is re-ACKed by the same receiver.
    assert lost == [(PacketKind.DATA, 0), (PacketKind.ACK, 3)]
    assert record.completed and record.retransmissions == 2
    assert record.flow_id not in player._demux[0].senders
    assert record.flow_id in player._demux[5].receivers
    collector = network.collector
    assert (collector.unclaimed_packets, collector.late_acks) == (0, 0)


def test_a_retransmission_in_flight_when_the_sender_is_done_is_re_acked(
        monkeypatch):
    """The only ACK is held until just after the RTO has retransmitted:
    the sender is then done and forgotten, its receiver is kept, gets
    the retransmission and re-ACKs it, and that ACK is a late one."""
    rto_ns = TransportConfig().initial_rto_ns
    network = small_network(NoCache(), num_vms=8)
    held = []

    def hold_first_ack(deliver, demux, packet):
        if packet.kind is PacketKind.ACK and not held:
            held.append(packet)
            network.engine.schedule(rto_ns + 1, deliver, demux, packet)
        else:
            deliver(demux, packet)

    _endpoints_through(monkeypatch, hold_first_ack)
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                          size_bytes=1000, start_ns=0)])
    network.run(until=msec(50))
    assert record.completed and record.fct_ns < rto_ns
    assert record.retransmissions == 1
    assert record.flow_id not in player._demux[0].senders
    assert record.flow_id in player._demux[5].receivers
    collector = network.collector
    assert (collector.unclaimed_packets, collector.late_acks) == (0, 1)
    assert network.host_of(5).packets_sent == 2


def test_a_clean_flow_forgets_both_endpoints():
    network, record = run_single_flow(NoCache(), 20_000)
    assert record.completed and record.retransmissions == 0
    demuxes = network.endpoints
    assert demuxes[0].senders == {} and demuxes[5].receivers == {}
