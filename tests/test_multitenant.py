"""Tests for multi-tenant SwitchV2P (paper §4, "Multitenancy support")."""

import pytest

from repro.cache import DirectMappedCache
from repro.core import MultiTenantSwitchV2P, PartitionedCache, TenantRegistry
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def make_registry():
    registry = TenantRegistry()
    registry.add_tenant(1, 4)  # VIPs 0-3
    registry.add_tenant(2, 4)  # VIPs 4-7
    return registry


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_block_allocation():
    registry = make_registry()
    assert registry.tenant_of(0) == 1
    assert registry.tenant_of(3) == 1
    assert registry.tenant_of(4) == 2
    assert registry.tenant_of(7) == 2
    assert registry.tenant_of(8) is None
    assert registry.total_vips == 8


def test_registry_rejects_duplicates_and_empty_blocks():
    registry = make_registry()
    with pytest.raises(ValueError):
        registry.add_tenant(1, 4)
    with pytest.raises(ValueError):
        registry.add_tenant(3, 0)


# ----------------------------------------------------------------------
# partitioned cache
# ----------------------------------------------------------------------
def test_partitioned_cache_routes_by_tenant():
    registry = make_registry()
    cache = PartitionedCache(registry, {1: 4, 2: 4})
    cache.insert(0, 100)  # tenant 1
    cache.insert(4, 200)  # tenant 2
    assert cache.lookup(0) == 100
    assert cache.lookup(4) == 200
    assert cache.partitions[1].peek(0) == 100
    assert cache.partitions[2].peek(0) is None


def test_partitioned_cache_isolates_tenants():
    """One tenant filling its partition cannot evict another's entries."""
    registry = TenantRegistry()
    registry.add_tenant(1, 100)   # VIPs 0-99
    registry.add_tenant(2, 100)   # VIPs 100-199
    cache = PartitionedCache(registry, {1: 2, 2: 2})
    cache.insert(150, 7)
    for vip in range(0, 50):  # tenant 1 hammers its own partition
        cache.insert(vip, vip)
    assert cache.peek(150) == 7


def test_disabled_tenant_misses_and_rejects():
    registry = make_registry()
    cache = PartitionedCache(registry, {1: 4})  # tenant 2 not enabled
    assert not cache.insert(4, 200).admitted
    assert cache.lookup(4) is None
    assert cache.stats.rejections == 1


def test_unallocated_vip_behaves_like_disabled():
    registry = make_registry()
    cache = PartitionedCache(registry, {1: 4, 2: 4})
    assert cache.lookup(99) is None
    assert not cache.insert(99, 1).admitted
    assert not cache.invalidate(99)


def test_runtime_partition_management():
    registry = make_registry()
    cache = PartitionedCache(registry, {1: 4})
    cache.add_partition(2, 4)
    assert cache.insert(4, 200).admitted
    cache.remove_partition(2)
    assert cache.lookup(4) is None
    with pytest.raises(ValueError):
        cache.add_partition(1, 4)


def test_partitioned_cache_aggregate_interface():
    registry = make_registry()
    cache = PartitionedCache(registry, {1: 4, 2: 4})
    cache.insert(0, 1)
    cache.insert(4, 2)
    assert cache.num_slots == 8
    assert cache.occupancy() == 2
    assert len(cache) == 2
    assert len(cache.entries()) == 2
    cache.clear()
    assert cache.occupancy() == 0


# ----------------------------------------------------------------------
# multi-tenant scheme end to end
# ----------------------------------------------------------------------
def run_two_tenant_network(enabled_tenants):
    registry = make_registry()
    scheme = MultiTenantSwitchV2P(total_cache_slots=400, registry=registry,
                                  enabled_tenants=enabled_tenants)
    network = small_network(scheme, num_vms=8)
    player = TrafficPlayer(network)
    flows = []
    for i in range(6):
        # Tenant 1 traffic: VIPs 0-3; tenant 2 traffic: VIPs 4-7.
        flows.append(FlowSpec(src_vip=0, dst_vip=2, size_bytes=2_000,
                              start_ns=i * usec(150)))
        flows.append(FlowSpec(src_vip=4, dst_vip=6, size_bytes=2_000,
                              start_ns=i * usec(150) + usec(40)))
    player.add_flows(flows)
    network.run(until=msec(20))
    return scheme, network


def test_both_tenants_enabled_both_hit():
    scheme, network = run_two_tenant_network(enabled_tenants=None)
    stats = scheme.tenant_hit_stats()
    assert stats[1][1] > 0  # tenant 1 hits
    assert stats[2][1] > 0  # tenant 2 hits


def test_policy_disables_one_tenant():
    scheme, network = run_two_tenant_network(enabled_tenants={1})
    stats = scheme.tenant_hit_stats()
    assert stats[1][1] > 0
    assert 2 not in stats  # tenant 2 has no partitions at all
    # Tenant 2 still communicates correctly (via gateways).
    assert network.collector.completion_rate == 1.0


def test_tenant_shares_bias_memory():
    registry = make_registry()
    scheme = MultiTenantSwitchV2P(total_cache_slots=400, registry=registry,
                                  tenant_shares={1: 3.0, 2: 1.0})
    network = small_network(scheme, num_vms=8)
    cache = next(iter(scheme.caches.values()))
    assert cache.partitions[1].num_slots > cache.partitions[2].num_slots
