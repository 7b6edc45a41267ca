"""Bound and bandwidth-overhead properties of the protocol mechanisms."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import SwitchCache
from repro.core import SwitchV2P, SwitchV2PConfig
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network, tiny_spec


def test_learning_packet_rate_bounded_by_p_learn():
    """§3.2.2: learning-packet bandwidth is at most 100 x p_learn % of
    gateway-ToR traffic.  With per-packet Bernoulli generation, the
    count can never exceed the number of eligible (translated) packets,
    and statistically tracks p_learn."""
    p_learn = 0.2
    scheme = SwitchV2P(total_cache_slots=0,  # no hits: all via gateway
                       config=SwitchV2PConfig(p_learn=p_learn))
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=i % 4, dst_vip=4 + (i % 4), size_bytes=20_000,
                      start_ns=i * usec(30)) for i in range(20)]
    player.add_flows(flows)
    network.run(until=msec(50))
    gateway_packets = network.collector.gateway_arrivals
    assert gateway_packets > 0
    # Hard bound plus a loose statistical check (Bernoulli, n large).
    assert scheme.learning_packets_sent <= gateway_packets
    assert scheme.learning_packets_sent <= 2 * p_learn * gateway_packets


def test_invalidation_packets_bounded_by_misdeliveries():
    """Invalidations are generated per tagged misdelivered packet, so
    they can never exceed the misdelivery count."""
    scheme = SwitchV2P(total_cache_slots=400,
                       config=SwitchV2PConfig(enable_timestamp_vector=False))
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=400_000,
                               start_ns=0, transport="udp",
                               udp_rate_bps=20e9)])
    from repro.net.addresses import pip_rack
    old = network.host_of(5)
    target = next(h for h in network.hosts
                  if pip_rack(h.pip) != pip_rack(old.pip))
    network.engine.schedule(usec(80), network.migrate, 5, target)
    network.run(until=msec(20))
    assert scheme.invalidation_packets_sent <= network.collector.misdeliveries


def test_zero_budget_switchv2p_equals_nocache():
    """With no cache memory anywhere, SwitchV2P degenerates to pure
    gateway forwarding — same hit rate as NoCache."""
    scheme = SwitchV2P(total_cache_slots=0)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=5_000,
                               start_ns=0)])
    network.run(until=msec(20))
    assert network.collector.hit_rate == 0.0
    assert network.collector.completion_rate == 1.0


# ----------------------------------------------------------------------
# set-associative cache property parity with the direct-mapped tests
# ----------------------------------------------------------------------
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 40), st.integers(0, 999),
                  st.booleans()),
        st.tuples(st.just("lookup"), st.integers(0, 40)),
        st.tuples(st.just("invalidate"), st.integers(0, 40)),
    ),
    max_size=150,
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(slots=st.integers(0, 16), ways=st.integers(1, 4), ops=cache_ops)
def test_set_associative_consistency(slots, ways, ops):
    cache = SwitchCache(slots, ways=ways, salt=3)
    shadow: dict[int, int] = {}
    for op in ops:
        if op[0] == "insert":
            _, vip, pip, conservative = op
            result = cache.insert(vip, pip, only_if_clear=conservative)
            if result.admitted:
                shadow[vip] = pip
                if result.evicted is not None:
                    shadow.pop(result.evicted[0], None)
        elif op[0] == "lookup":
            value = cache.lookup(op[1])
            if value is not None:
                assert shadow.get(op[1]) == value
        else:
            if cache.invalidate(op[1]):
                shadow.pop(op[1], None)
        assert cache.occupancy() <= cache.num_slots
    for vip, pip, _abit in cache.entries():
        assert shadow.get(vip) == pip


# ----------------------------------------------------------------------
# leaf-spine (single-pod) topology: §5.3 scale-up sensitivity
# ----------------------------------------------------------------------
def test_single_pod_leaf_spine_works_end_to_end():
    """A scale-up (single-pod leaf-spine) topology still benefits:
    hits at ToRs and spines, no cores involved."""
    spec = tiny_spec(pods=1, racks_per_pod=4, servers_per_rack=2,
                     gateway_pods=(0,), num_cores=2)
    scheme = SwitchV2P(total_cache_slots=200)
    network = small_network(scheme, num_vms=8, spec=spec)
    player = TrafficPlayer(network)
    flows = [FlowSpec(src_vip=i % 4, dst_vip=5, size_bytes=3_000,
                      start_ns=i * usec(150)) for i in range(10)]
    player.add_flows(flows)
    network.run(until=msec(20))
    assert network.collector.completion_rate == 1.0
    assert network.collector.in_network_hits > 0
    for core in network.fabric.cores:
        assert core.stats.packets == 0  # single pod never ascends to cores
