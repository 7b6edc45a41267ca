"""Shared machinery for schemes that cache mappings inside switches.

GwCache, LocalLearning and SwitchV2P all place
:class:`~repro.cache.core.SwitchCache` instances on some subset of
switches, perform lookups for unresolved packets and learn mappings
from passing traffic.  This module centralizes that plumbing —
including the paper's cache-budget convention (one aggregate budget
divided equally across the caching switches) and the misdelivery-tag
semantics every cached lookup must respect (§3.3).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.baselines.base import TranslationScheme
from repro.cache.core import CacheStats, SwitchCache
from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Switch, SwitchHook
    from repro.vnet.network import VirtualNetwork


class CachingScheme(TranslationScheme):
    """Base for schemes with in-switch caches.

    Args:
        total_cache_slots: aggregate cache budget (entries), divided
            equally among this scheme's caching switches, per the
            paper's sizing convention (§5 "In-switch memory size").
    """

    fluid_compatible = True

    def __init__(self, total_cache_slots: int) -> None:
        super().__init__()
        if total_cache_slots < 0:
            raise ValueError(f"negative cache budget: {total_cache_slots}")
        self.total_cache_slots = total_cache_slots
        self.caches: dict[int, SwitchCache] = {}
        #: ``switch_id -> zero-arg callback`` factory installed by the
        #: fluid scheduler; every cache gets its observer attached from it.
        self.cache_observer = None

    # ------------------------------------------------------------------
    # cache construction
    # ------------------------------------------------------------------
    def caching_switch_ids(self, network: VirtualNetwork) -> Iterable[int]:
        """Which switches cache; subclasses narrow this (default: all)."""
        return [switch.switch_id for switch in network.fabric.switches]

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        self.prepare(network)
        ids = list(self.caching_switch_ids(network))
        slots = self.slots_by_switch(network, ids)
        self.caches = {
            switch_id: self.make_cache(slots[switch_id],
                                       salt=switch_id * 0x9E3779B1)
            for switch_id in ids
        }
        if self.cache_observer is not None:
            self.set_cache_observer(self.cache_observer)

    def set_cache_observer(self, factory) -> None:
        """Attach mutation observers to every cache (hybrid fidelity).

        ``factory(switch_id)`` returns the zero-arg callback handed to
        each cache's ``attach_observer``.
        """
        self.cache_observer = factory
        for switch_id, cache in self.caches.items():
            cache.attach_observer(factory(switch_id))

    def make_cache(self, num_slots: int, salt: int) -> SwitchCache:
        """Cache constructor; subclasses may swap the geometry."""
        return SwitchCache(num_slots, salt=salt)

    def prepare(self, network: VirtualNetwork) -> None:
        """Hook run before cache construction (roles, RNGs, ...)."""

    def slots_by_switch(self, network: VirtualNetwork,
                        ids: list[int]) -> dict[int, int]:
        """Per-switch slot counts; default is the equal split of §5."""
        per_switch = self.total_cache_slots // len(ids) if ids else 0
        return {switch_id: per_switch for switch_id in ids}

    def cache_of(self, switch: Switch) -> SwitchCache | None:
        return self.caches.get(switch.switch_id)

    def on_switch_reset(self, switch: Switch) -> None:
        """Fault hook: a failed/recovered switch loses its SRAM state.

        Invoked by :meth:`Switch.fail`/:meth:`Switch.recover`; the
        switch's cache is emptied in place with fresh stats, so a
        recovered switch re-warms from scratch (cold restart, matching
        the paper's opportunistic-cache model) while its hook and
        observer keep the same cache object.
        """
        cache = self.caches.get(switch.switch_id)
        if cache is not None:
            cache.clear()
            cache.stats = CacheStats()

    # ------------------------------------------------------------------
    # switch hook
    # ------------------------------------------------------------------
    def bind_hook(self, switch: Switch) -> SwitchHook | None:
        """Default data plane: serve a lookup, else learn the destination.

        A switch this scheme gave no cache is a plain forwarder, which
        is most hops of a scheme that caches on few switches (GwCache:
        4 of FT8's 80): it gets no hook.  Elsewhere an unresolved
        data/ack packet is looked up, and a packet something upstream
        resolved (a gateway, an earlier hit) teaches this cache its
        ``dst VIP -> outer dst`` mapping.
        """
        cache = self.caches.get(switch.switch_id)
        if cache is None:
            return None

        def hook(packet: Packet, ingress) -> bool:
            if self.is_traffic(packet) \
                    and not self.try_resolve(switch, packet, cache) \
                    and packet.resolved:
                cache.insert(packet.dst_vip, packet.outer_dst)
            return True
        return hook

    # ------------------------------------------------------------------
    # data-plane building blocks
    # ------------------------------------------------------------------
    def try_resolve(self, switch: Switch, packet: Packet,
                    cache: SwitchCache | None) -> bool:
        """Look up an unresolved packet in ``switch``'s cache (the one
        its hook holds; None, a switch without one, is a miss).

        Handles the misdelivery-tag protocol: a tagged packet carries
        its stale ``(vip, old_pip)`` pair; a cache holding exactly that
        value invalidates it and reports a miss, while a cache holding
        a *different* (fresher) value may still serve the packet.

        Returns:
            True if the packet was resolved by this switch.
        """
        if cache is None or packet.resolved:
            return False
        vip = packet.dst_vip
        if packet._misdelivery_tag and packet._carried_mapping is not None:
            stale_vip, stale_pip = packet._carried_mapping
            if stale_vip == vip and cache.invalidate(vip, stale_pip):
                return False
        pip = cache.lookup(vip)
        if pip is None:
            return False
        if packet._misdelivery_tag and packet._carried_mapping is not None:
            stale_vip, stale_pip = packet._carried_mapping
            if stale_vip == vip and pip == stale_pip:
                # Defensive: a racing insert could re-introduce the
                # stale value between the invalidate and the lookup.
                cache.invalidate(vip, stale_pip)
                return False
        packet.outer_dst = pip
        packet.resolved = True
        packet.hit_switch = switch.switch_id
        self.network.collector.record_hit(
            switch.layer, packet.kind is PacketKind.DATA and packet.seq == 0)
        return True

    def is_traffic(self, packet: Packet) -> bool:
        """Data-plane traffic that carries learnable headers."""
        return packet.kind in (PacketKind.DATA, PacketKind.ACK)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_cached_entries(self) -> int:
        return sum(cache.occupancy() for cache in self.caches.values())

    def aggregate_hit_stats(self) -> tuple[int, int]:
        """(lookups, hits) summed over every cache in the scheme."""
        lookups = sum(cache.stats.lookups for cache in self.caches.values())
        hits = sum(cache.stats.hits for cache in self.caches.values())
        return lookups, hits
