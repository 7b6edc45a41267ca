"""Assorted robustness tests across modules."""

from repro.baselines import Controller, NoCache
from repro.core import SwitchV2P
from repro.net.addresses import pip_rack
from repro.sim.engine import Engine, msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def test_misdelivery_without_follow_me_falls_back_to_gateway():
    """If the old host has no follow-me rule (e.g. it expired), the
    packet still reaches the VM via the gateway's fresh mapping."""
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    [record] = player.add_flows([FlowSpec(
        src_vip=0, dst_vip=5, size_bytes=100_000, start_ns=0,
        transport="udp", udp_rate_bps=20e9)])
    old_host = network.host_of(5)
    target = next(h for h in network.hosts
                  if pip_rack(h.pip) != pip_rack(old_host.pip))
    def migrate_without_rule():
        network.migrate(5, target)
        old_host.follow_me.clear()  # simulate rule expiry
    network.engine.schedule(usec(40), migrate_without_rule)
    network.run(until=msec(20))
    assert record.completed


def test_controller_with_no_traffic_does_not_crash():
    scheme = Controller(100, period_ns=usec(100))
    network = small_network(scheme, num_vms=8)
    network.run(until=msec(1))
    assert scheme.invocations >= 9
    assert scheme.solve_placement() == {}


def test_engine_until_and_max_events_combined():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule(i * 10, fired.append, i)
    engine.run(until=1000, max_events=3)
    assert fired == [0, 1, 2]
    engine.run(until=45)
    assert fired == [0, 1, 2, 3, 4]


def test_switchv2p_with_single_slot_total():
    """A pathological single-slot aggregate budget still works (one
    switch gets one slot, the rest get zero)."""
    scheme = SwitchV2P(total_cache_slots=1)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=3_000,
                               start_ns=0)])
    network.run(until=msec(20))
    assert network.collector.completion_rate == 1.0
    sized = [c for c in scheme.caches.values() if c.num_slots > 0]
    assert len(sized) == 1


def test_flow_ids_do_not_collide_with_control_traffic():
    """Data flow ids stay below the control-flow id space."""
    from repro.core.protocol import _CONTROL_FLOW_BASE
    network = small_network(SwitchV2P(200), num_vms=8)
    player = TrafficPlayer(network)
    records = player.add_flows([FlowSpec(src_vip=0, dst_vip=5,
                                         size_bytes=1_000, start_ns=0)
                                for _ in range(100)])
    assert all(record.flow_id < _CONTROL_FLOW_BASE for record in records)
