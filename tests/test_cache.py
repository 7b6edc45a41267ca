"""Tests for the direct-mapped in-switch cache (paper §3.2 semantics)."""

import pytest

from repro.cache import SwitchCache
from repro.cache.sizing import aggregate_slots, per_switch_slots


def find_conflicting_vips(cache: SwitchCache, count: int = 2) -> list[int]:
    """VIPs that map to the same cache line."""
    by_slot: dict[int, list[int]] = {}
    vip = 0
    while True:
        slot = cache._set_of(vip)
        group = by_slot.setdefault(slot, [])
        group.append(vip)
        if len(group) >= count:
            return group[:count]
        vip += 1


def find_nonconflicting_vips(cache: SwitchCache, count: int) -> list[int]:
    """VIPs that all map to distinct cache lines."""
    used: set[int] = set()
    result = []
    vip = 0
    while len(result) < count:
        slot = cache._set_of(vip)
        if slot not in used:
            used.add(slot)
            result.append(vip)
        vip += 1
    return result


def test_miss_on_empty():
    cache = SwitchCache(8)
    assert cache.lookup(5) is None
    assert cache.stats.lookups == 1
    assert cache.stats.hits == 0


def test_insert_then_hit():
    cache = SwitchCache(8)
    result = cache.insert(5, 99)
    assert result.admitted
    assert result.evicted is None
    assert cache.lookup(5) == 99
    assert cache.stats.hits == 1


def test_hit_sets_access_bit():
    cache = SwitchCache(8)
    cache.insert(5, 99)
    assert cache.access_bit(5) == 0  # fresh entries start cold
    cache.lookup(5)
    assert cache.access_bit(5) == 1


def test_conflict_miss_clears_access_bit():
    cache = SwitchCache(4)
    a, b = find_conflicting_vips(cache)
    cache.insert(a, 1)
    cache.lookup(a)
    assert cache.access_bit(a) == 1
    # Lookup of the conflicting key misses but ages the line (§3.2).
    assert cache.lookup(b) is None
    assert cache.access_bit(a) == 0


def test_conflicting_insert_evicts():
    cache = SwitchCache(4)
    a, b = find_conflicting_vips(cache)
    cache.insert(a, 1)
    result = cache.insert(b, 2)
    assert result.admitted
    assert result.evicted == (a, 1)
    assert cache.peek(a) is None
    assert cache.peek(b) == 2


def test_only_if_clear_refuses_hot_line():
    cache = SwitchCache(4)
    a, b = find_conflicting_vips(cache)
    cache.insert(a, 1)
    cache.lookup(a)  # access bit set
    result = cache.insert(b, 2, only_if_clear=True)
    assert not result.admitted
    assert cache.peek(a) == 1
    assert cache.stats.rejections == 1


def test_only_if_clear_admits_cold_line():
    cache = SwitchCache(4)
    a, b = find_conflicting_vips(cache)
    cache.insert(a, 1)  # never accessed -> cold
    result = cache.insert(b, 2, only_if_clear=True)
    assert result.admitted
    assert result.evicted == (a, 1)


def test_update_existing_key_in_place():
    cache = SwitchCache(4)
    cache.insert(7, 1)
    result = cache.insert(7, 2)
    assert result.admitted
    assert result.evicted is None
    assert cache.peek(7) == 2


def test_invalidate():
    cache = SwitchCache(4)
    cache.insert(7, 1)
    assert cache.invalidate(7)
    assert cache.peek(7) is None
    assert not cache.invalidate(7)


def test_invalidate_conditional_on_stale_value():
    cache = SwitchCache(4)
    cache.insert(7, 1)
    # Fresher value cached: conditional invalidation keeps it (§3.3).
    assert not cache.invalidate(7, stale_pip=99)
    assert cache.peek(7) == 1
    assert cache.invalidate(7, stale_pip=1)
    assert cache.peek(7) is None


def test_zero_slot_cache_degenerates():
    cache = SwitchCache(0)
    assert cache.lookup(1) is None
    assert not cache.insert(1, 2).admitted
    assert not cache.invalidate(1)
    assert cache.peek(1) is None
    assert cache.occupancy() == 0


def test_negative_size_raises():
    with pytest.raises(ValueError):
        SwitchCache(-1)


def test_occupancy_and_entries():
    cache = SwitchCache(16)
    vips = find_nonconflicting_vips(cache, 3)
    for i, vip in enumerate(vips):
        cache.insert(vip, i)
    assert cache.occupancy() == 3
    assert len(cache) == 3
    entries = {vip: (pip, abit) for vip, pip, abit in cache.entries()}
    assert set(entries) == set(vips)


def test_clear_preserves_stats():
    cache = SwitchCache(8)
    cache.insert(1, 2)
    cache.lookup(1)
    cache.clear()
    assert cache.occupancy() == 0
    assert cache.stats.hits == 1


def test_different_salts_give_different_slots():
    a = SwitchCache(64, salt=1)
    b = SwitchCache(64, salt=999)
    slots_a = [a._set_of(v) for v in range(32)]
    slots_b = [b._set_of(v) for v in range(32)]
    assert slots_a != slots_b


def test_aggregate_and_per_switch_slots():
    assert aggregate_slots(10_000, 0.5) == 5_000
    assert aggregate_slots(10_000, 1500.0) == 15_000_000
    # The paper's smallest configuration: 1% of 10K over 80 switches.
    assert per_switch_slots(10_240, 0.01, 80) == 1
    assert per_switch_slots(100, 0.01, 80) == 0


def test_sizing_rejects_bad_input():
    with pytest.raises(ValueError):
        aggregate_slots(-1, 0.5)
    with pytest.raises(ValueError):
        aggregate_slots(10, -0.5)
    with pytest.raises(ValueError):
        per_switch_slots(10, 0.5, 0)
