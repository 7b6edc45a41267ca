"""The one cache core against the two classes it replaced.

``tests/reference_caches.py`` holds the former ``DirectMappedCache``
and ``SetAssociativeCache`` verbatim.  Random operation sequences run
through a reference and through ``SwitchCache``; every return value,
the contents, every counter and the sequence of observer firings must
agree — for empty, one-line and larger caches, at 1, 2 and 4 ways,
observed from the start, from the middle, or never.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheStats, SwitchCache
from repro.cache.core import HASH_MIX

from reference_caches import DirectMappedCache, SetAssociativeCache

VIPS = st.sampled_from(range(24))  # uniform, unlike st.integers
PIPS = st.sampled_from(range(6))

LOOKUP = st.tuples(st.just("lookup"), VIPS)
INSERT = st.tuples(st.just("insert"), VIPS, PIPS, st.booleans())
#: Mostly lookups and inserts, so that sets fill up and their lines
#: disagree about access bits and age before the next ``clear``.
OPS = st.one_of(
    LOOKUP, LOOKUP, LOOKUP, INSERT, INSERT, INSERT, INSERT,
    st.tuples(st.just("invalidate"), VIPS, st.none() | PIPS),
    st.tuples(st.just("corrupt_entry"), st.integers(0, 40), st.integers(0, 3)),
    st.tuples(st.just("clear")),
)

#: (reference constructor, ways): the direct-mapped class is the
#: reference at one way, and so is the set-associative class — which
#: is the claim that one way *is* the direct-mapped design.
GEOMETRIES = [
    pytest.param(lambda slots, salt: DirectMappedCache(slots, salt=salt), 1,
                 id="direct-mapped"),
    pytest.param(lambda slots, salt: SetAssociativeCache(slots, ways=1, salt=salt), 1,
                 id="lru-1way"),
    pytest.param(lambda slots, salt: SetAssociativeCache(slots, ways=2, salt=salt), 2,
                 id="lru-2way"),
    pytest.param(lambda slots, salt: SetAssociativeCache(slots, ways=4, salt=salt), 4,
                 id="lru-4way"),
]


def apply(cache, op):
    name, *args = op
    return getattr(cache, name)(*args)


def state(cache):
    return (cache.entries(),
            [getattr(cache.stats, name) for name in CacheStats.__slots__])


def snapshot(cache):
    return (state(cache), cache.occupancy(), len(cache),
            [(cache.peek(vip), cache.access_bit(vip)) for vip in range(24)])


@pytest.mark.parametrize("make_reference, ways", GEOMETRIES)
@settings(max_examples=60, deadline=None)
@given(slots=st.sampled_from([0, 1, 3, 4, 8, 13]),
       salt=st.integers(0, 2**32 - 1),
       observed=st.sampled_from(["never", "from the start", "midway"]),
       ops=st.lists(OPS, min_size=40, max_size=120))
def test_core_equals_reference(make_reference, ways, slots, salt,
                               observed, ops):
    observe_from = {"never": None, "from the start": 0,
                    "midway": len(ops) // 2}[observed]
    reference = make_reference(slots, salt)
    core = SwitchCache(slots, ways, salt=salt)
    assert (core.num_slots, core.salt) == (reference.num_slots, salt)
    fired_reference, fired_core, step = [], [], [0]
    for index, op in enumerate(ops):
        step[0] = index
        if index == observe_from:
            reference.attach_observer(lambda: fired_reference.append(step[0]))
            core.attach_observer(lambda: fired_core.append(step[0]))
        occupied = core.occupancy()
        before = len(fired_core)
        assert apply(core, op) == apply(reference, op), (index, op)
        if op[0] == "clear":
            # The one intended difference: the old classes emptied
            # their lines without telling the observer.
            told = fired_core[before:]
            observed = observe_from is not None and index >= observe_from
            assert told == ([index] if observed and occupied else [])
            del fired_core[before:]
        assert state(core) == state(reference), (index, op)
        assert fired_core == fired_reference, (index, op)
    assert snapshot(core) == snapshot(reference)


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_geometry_comes_from_ways_alone(ways):
    cache = SwitchCache(9, ways, salt=5)
    assert isinstance(cache, SwitchCache)
    assert (cache.ways, cache.num_sets, cache.num_slots) == \
        (ways, 9 // ways, 9 // ways * ways)
    # Only a one-way cache has lines with a single possible owner.
    assert (cache.owner_lines() is not None) == (ways == 1)
    assert SwitchCache(0, ways).owner_lines() is None


def test_refresh_through_owner_lines_is_what_insert_does():
    """The switch hooks overwrite a line's value in place when the VIP
    already owns it; that must be all ``insert`` would have done."""
    direct, via_insert = SwitchCache(8, salt=3), SwitchCache(8, salt=3)
    fired = []
    for cache in (direct, via_insert):
        cache.insert(5, 50)
        cache.lookup(5)
        cache.attach_observer(lambda: fired.append(1))
    keys, values, salt, sets = direct.owner_lines()
    slot = (((5 ^ salt) * HASH_MIX) & 0xFFFFFFFF) % sets
    assert keys[slot] == 5
    values[slot] = 51
    assert via_insert.insert(5, 51) == (True, None)
    assert snapshot(direct) == snapshot(via_insert)
    assert fired == []


def test_clear_keeps_the_arrays_a_hook_may_hold():
    cache = SwitchCache(4, salt=1)
    keys, values, _, _ = cache.owner_lines()
    cache.insert(1, 10)
    cache.clear()
    assert cache.owner_lines()[:2] == (keys, values)
    assert cache.owner_lines()[0] is keys and cache.occupancy() == 0


@pytest.mark.parametrize("make", [
    lambda: SetAssociativeCache(4, ways=4), lambda: SwitchCache(4, 4)])
def test_only_a_full_set_ages_its_lru_line(make):
    cache = make()
    for vip in range(4):
        cache.insert(vip, vip)
        cache.lookup(vip)
    cache.invalidate(3)  # the most recently used line: now a free one
    assert cache.lookup(9) is None
    assert [abit for _, _, abit in cache.entries()] == [1, 1, 1]
    cache.insert(3, 3)
    assert cache.lookup(9) is None
    assert [abit for _, _, abit in cache.entries()] == [0, 1, 1, 0]
