"""Tests for the set-associative cache variant."""

import pytest

from repro.cache import SwitchCache


def fill_one_set(cache: SwitchCache, count: int) -> list[int]:
    """Insert ``count`` VIPs that all land in the same set."""
    target = cache._set_of(0)
    vips, vip = [], 0
    while len(vips) < count:
        if cache._set_of(vip) == target:
            cache.insert(vip, vip * 10)
            vips.append(vip)
        vip += 1
    return vips


def test_basic_insert_lookup():
    cache = SwitchCache(8, ways=2)
    assert cache.insert(1, 11).admitted
    assert cache.lookup(1) == 11
    assert cache.lookup(2) is None


def test_rounds_down_to_whole_sets():
    cache = SwitchCache(7, ways=2)
    assert cache.num_sets == 3
    assert cache.num_slots == 6


def test_ways_reduce_conflict_evictions():
    direct = SwitchCache(8, ways=1, salt=5)
    assoc = SwitchCache(8, ways=4, salt=5)
    for vip in range(32):
        direct.insert(vip, vip)
        assoc.insert(vip, vip)
    assert assoc.stats.evictions <= direct.stats.evictions


def test_lru_eviction_order():
    cache = SwitchCache(2, ways=2)
    a, b = fill_one_set(cache, 2)
    cache.lookup(a)  # refresh a; b becomes LRU
    target = cache._set_of(0)
    vip = max(a, b) + 1
    while cache._set_of(vip) != target:
        vip += 1
    result = cache.insert(vip, 99)
    assert result.admitted
    assert result.evicted[0] == b
    assert cache.peek(a) is not None


def test_only_if_clear_refuses_fully_hot_set():
    cache = SwitchCache(2, ways=2)
    a, b = fill_one_set(cache, 2)
    cache.lookup(a)
    cache.lookup(b)
    target = cache._set_of(0)
    vip = max(a, b) + 1
    while cache._set_of(vip) != target:
        vip += 1
    assert not cache.insert(vip, 99, only_if_clear=True).admitted
    assert cache.stats.rejections == 1


def test_only_if_clear_evicts_cold_entry():
    cache = SwitchCache(2, ways=2)
    a, b = fill_one_set(cache, 2)
    cache.lookup(b)  # a stays cold
    target = cache._set_of(0)
    vip = max(a, b) + 1
    while cache._set_of(vip) != target:
        vip += 1
    result = cache.insert(vip, 99, only_if_clear=True)
    assert result.admitted
    assert result.evicted[0] == a


def test_miss_in_full_set_ages_lru():
    cache = SwitchCache(2, ways=2)
    a, b = fill_one_set(cache, 2)
    cache.lookup(a)
    cache.lookup(b)
    # A miss mapped to this set clears the LRU entry's bit.
    target = cache._set_of(0)
    vip = max(a, b) + 1
    while cache._set_of(vip) != target:
        vip += 1
    assert cache.lookup(vip) is None
    assert cache.access_bit(a) == 0
    assert cache.access_bit(b) == 1


def test_conditional_invalidate():
    cache = SwitchCache(4, ways=2)
    cache.insert(1, 10)
    assert not cache.invalidate(1, stale_pip=99)
    assert cache.invalidate(1, stale_pip=10)


def test_interface_parity_helpers():
    cache = SwitchCache(8, ways=2)
    cache.insert(1, 10)
    cache.insert(2, 20)
    assert cache.occupancy() == 2
    assert len(cache) == 2
    assert sorted(v for v, _, _ in cache.entries()) == [1, 2]
    cache.clear()
    assert cache.occupancy() == 0


def test_zero_and_invalid_sizes():
    empty = SwitchCache(0, ways=2)
    assert empty.lookup(1) is None
    assert not empty.insert(1, 2).admitted
    with pytest.raises(ValueError):
        SwitchCache(-1)
    with pytest.raises(ValueError):
        SwitchCache(8, ways=0)


def test_switchv2p_accepts_associativity():
    from repro.core import SwitchV2P
    from conftest import small_network
    scheme = SwitchV2P(total_cache_slots=200, cache_ways=2)
    network = small_network(scheme, num_vms=8)
    cache = next(iter(scheme.caches.values()))
    assert isinstance(cache, SwitchCache) and cache.ways == 2
    with pytest.raises(ValueError):
        SwitchV2P(10, cache_ways=0)
