"""Multi-tenant SwitchV2P: per-VPC private cache partitions (paper §4).

VPCs use disjoint virtual address spaces, so cross-VPC destination
reuse is absent and a shared cache would only create interference.  The
paper proposes per-VPC private partitions in switch memory, enabled per
tenant by operator policy (e.g. when a VPC's gateway load crosses a
threshold), using runtime memory allocation.

Implementation: VIPs are allocated to tenants in blocks via a
:class:`TenantRegistry`, and each switch's cache becomes a
:class:`PartitionedCache` — one direct-mapped partition per enabled
tenant, routing by the VIP's owning tenant.  The partitioned cache
exposes the same primitive interface as the flat cache, so the entire
SwitchV2P protocol runs unmodified on top; disabled tenants simply miss
everywhere and fall through to their gateways.
"""

from __future__ import annotations

import bisect

from repro.cache.core import CacheStats, InsertResult, SwitchCache
from repro.core.allocation import UNIFORM, AllocationPolicy
from repro.core.config import SwitchV2PConfig
from repro.core.protocol import SwitchV2P
from repro.vnet.network import VirtualNetwork


class TenantRegistry:
    """Allocates contiguous VIP blocks to tenants (VPCs)."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._blocks: list[tuple[int, int, int]] = []  # (start, end, tenant)
        self._next_vip = 0
        self.tenants: list[int] = []

    def add_tenant(self, tenant_id: int, num_vips: int) -> range:
        """Allocate the next ``num_vips`` VIPs to ``tenant_id``."""
        if num_vips < 1:
            raise ValueError("a tenant needs at least one VIP")
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id} already registered")
        start = self._next_vip
        end = start + num_vips
        self._next_vip = end
        self._starts.append(start)
        self._blocks.append((start, end, tenant_id))
        self.tenants.append(tenant_id)
        return range(start, end)

    def tenant_of(self, vip: int) -> int | None:
        """The tenant owning ``vip``, or None if unallocated."""
        index = bisect.bisect_right(self._starts, vip) - 1
        if index < 0:
            return None
        start, end, tenant = self._blocks[index]
        if start <= vip < end:
            return tenant
        return None

    @property
    def total_vips(self) -> int:
        return self._next_vip


class PartitionedCache:
    """A per-tenant partitioned cache with the flat-cache interface.

    Tenants without a partition (not enabled) miss on every lookup and
    reject every insert — their traffic behaves as under NoCache, the
    fallback the paper's per-VPC policy implies.
    """

    __slots__ = ("registry", "salt", "partitions", "stats")

    def __init__(self, registry: TenantRegistry,
                 slots_per_tenant: dict[int, int], salt: int = 0) -> None:
        self.registry = registry
        self.salt = salt
        self.partitions: dict[int, SwitchCache] = {
            tenant: SwitchCache(slots, salt=salt ^ (tenant * 0x85EBCA6B))
            for tenant, slots in slots_per_tenant.items()
        }
        self.stats = CacheStats()

    @property
    def num_slots(self) -> int:
        return sum(p.num_slots for p in self.partitions.values())

    def _partition(self, vip: int) -> SwitchCache | None:
        tenant = self.registry.tenant_of(vip)
        if tenant is None:
            return None
        return self.partitions.get(tenant)

    # -- flat-cache interface ------------------------------------------
    def lookup(self, vip: int) -> int | None:
        self.stats.lookups += 1
        partition = self._partition(vip)
        if partition is None:
            return None
        value = partition.lookup(vip)
        if value is not None:
            self.stats.hits += 1
        return value

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        partition = self._partition(vip)
        if partition is None:
            self.stats.rejections += 1
            return InsertResult(False, None)
        result = partition.insert(vip, pip, only_if_clear)
        if result.admitted:
            self.stats.insertions += 1
        else:
            self.stats.rejections += 1
        return result

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        partition = self._partition(vip)
        if partition is None:
            return False
        invalidated = partition.invalidate(vip, stale_pip)
        if invalidated:
            self.stats.invalidations += 1
        return invalidated

    def peek(self, vip: int) -> int | None:
        partition = self._partition(vip)
        return None if partition is None else partition.peek(vip)

    def access_bit(self, vip: int) -> int | None:
        partition = self._partition(vip)
        return None if partition is None else partition.access_bit(vip)

    def occupancy(self) -> int:
        return sum(p.occupancy() for p in self.partitions.values())

    def entries(self) -> list[tuple[int, int, int]]:
        out: list[tuple[int, int, int]] = []
        for partition in self.partitions.values():
            out.extend(partition.entries())
        return out

    def clear(self) -> None:
        for partition in self.partitions.values():
            partition.clear()

    def __len__(self) -> int:
        return self.occupancy()

    # -- runtime partition management (paper: NetVRM-style allocation) --
    def add_partition(self, tenant: int, slots: int) -> None:
        """Enable caching for a tenant at runtime."""
        if tenant in self.partitions:
            raise ValueError(f"tenant {tenant} already enabled")
        self.partitions[tenant] = SwitchCache(
            slots, salt=self.salt ^ (tenant * 0x85EBCA6B))

    def remove_partition(self, tenant: int) -> None:
        """Disable caching for a tenant, releasing its memory."""
        self.partitions.pop(tenant, None)


class MultiTenantSwitchV2P(SwitchV2P):
    """SwitchV2P with per-tenant private cache partitions.

    Args:
        total_cache_slots: aggregate budget across all switches and
            enabled tenants.
        registry: the VIP-to-tenant allocation.
        enabled_tenants: tenants granted in-switch caching; None means
            all registered tenants.
        tenant_shares: relative memory share per enabled tenant
            (default: equal).
    """

    name = "MultiTenantSwitchV2P"

    def __init__(self, total_cache_slots: int, registry: TenantRegistry,
                 enabled_tenants: set[int] | None = None,
                 tenant_shares: dict[int, float] | None = None,
                 config: SwitchV2PConfig | None = None,
                 allocation: AllocationPolicy = UNIFORM) -> None:
        super().__init__(total_cache_slots, config, allocation)
        self.registry = registry
        self.enabled_tenants = enabled_tenants
        self.tenant_shares = tenant_shares

    def _tenant_split(self, switch_slots: int) -> dict[int, int]:
        enabled = (list(self.enabled_tenants)
                   if self.enabled_tenants is not None
                   else list(self.registry.tenants))
        if not enabled:
            return {}
        shares = self.tenant_shares or {}
        weights = {tenant: shares.get(tenant, 1.0) for tenant in enabled}
        weight_sum = sum(weights.values())
        if weight_sum <= 0:
            return {tenant: 0 for tenant in enabled}
        return {tenant: int(switch_slots * weight / weight_sum)
                for tenant, weight in weights.items()}

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        # Replace each switch's flat cache with tenant partitions of
        # the same aggregate size.
        for switch_id, cache in list(self.caches.items()):
            self.caches[switch_id] = PartitionedCache(
                self.registry, self._tenant_split(cache.num_slots),
                salt=switch_id * 0x9E3779B1)

    def tenant_hit_stats(self) -> dict[int, tuple[int, int]]:
        """Per-tenant (lookups, hits) aggregated across all switches."""
        totals: dict[int, tuple[int, int]] = {}
        for cache in self.caches.values():
            for tenant, partition in cache.partitions.items():
                lookups, hits = totals.get(tenant, (0, 0))
                totals[tenant] = (lookups + partition.stats.lookups,
                                  hits + partition.stats.hits)
        return totals
