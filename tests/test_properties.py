"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SwitchCache
from repro.net.addresses import (
    MAX_HOSTS_PER_RACK,
    MAX_PODS,
    MAX_RACKS_PER_POD,
    make_pip,
    split_pip,
)
from repro.net.node import ecmp_index
from repro.sim.engine import Engine
from repro.traces.distributions import HADOOP_CDF, WEBSEARCH_CDF, sample_sizes


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
@given(
    pod=st.integers(0, MAX_PODS - 1),
    rack=st.integers(0, MAX_RACKS_PER_POD - 1),
    host=st.integers(0, MAX_HOSTS_PER_RACK - 1),
)
def test_pip_roundtrip(pod, rack, host):
    assert split_pip(make_pip(pod, rack, host)) == (pod, rack, host)


@given(
    a=st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)),
    b=st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)),
)
def test_pip_injective(a, b):
    if a != b:
        assert make_pip(*a) != make_pip(*b)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=50)
def test_engine_executes_in_sorted_order(times):
    engine = Engine()
    fired = []
    for at in times:
        engine.schedule(at, lambda t=at: fired.append(t))
    engine.run()
    assert fired == sorted(times)
    assert engine.events_processed == len(times)


# ----------------------------------------------------------------------
# cache invariants
# ----------------------------------------------------------------------
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50), st.integers(0, 1000),
                  st.booleans()),
        st.tuples(st.just("lookup"), st.integers(0, 50)),
        st.tuples(st.just("invalidate"), st.integers(0, 50)),
    ),
    max_size=200,
)


@given(slots=st.integers(0, 16), ops=cache_ops)
@settings(max_examples=100)
def test_cache_never_exceeds_capacity_and_stays_consistent(slots, ops):
    cache = SwitchCache(slots, salt=3)
    shadow: dict[int, int] = {}  # vip -> pip for entries we believe cached
    for op in ops:
        if op[0] == "insert":
            _, vip, pip, conservative = op
            result = cache.insert(vip, pip, only_if_clear=conservative)
            if result.admitted:
                shadow[vip] = pip
                if result.evicted is not None:
                    shadow.pop(result.evicted[0], None)
        elif op[0] == "lookup":
            _, vip = op
            value = cache.lookup(vip)
            if value is not None:
                assert shadow.get(vip) == value
        else:
            _, vip = op
            if cache.invalidate(vip):
                shadow.pop(vip, None)
        assert cache.occupancy() <= max(slots, 0)
    # Every entry the cache reports must agree with the shadow map.
    for vip, pip, _abit in cache.entries():
        assert shadow.get(vip) == pip


@given(slots=st.integers(1, 64), vips=st.lists(st.integers(0, 10_000),
                                               min_size=1, max_size=100))
def test_cache_lookup_after_insert_hits_unless_evicted(slots, vips):
    cache = SwitchCache(slots)
    for vip in vips:
        cache.insert(vip, vip * 7)
        assert cache.lookup(vip) == vip * 7


# ----------------------------------------------------------------------
# ECMP
# ----------------------------------------------------------------------
@given(key=st.integers(0, 2**40), salt=st.integers(0, 2**31),
       n=st.integers(1, 64))
def test_ecmp_in_range_and_stable(key, salt, n):
    index = ecmp_index(key, salt, n)
    assert 0 <= index < n
    assert index == ecmp_index(key, salt, n)


# ----------------------------------------------------------------------
# trace distributions
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 2**31), count=st.integers(1, 500))
@settings(max_examples=25)
def test_sampled_sizes_respect_support(seed, count):
    rng = np.random.default_rng(seed)
    for cdf in (HADOOP_CDF, WEBSEARCH_CDF):
        sizes = sample_sizes(cdf, count, rng)
        assert (sizes >= 1).all()
        assert (sizes <= cdf[-1][0]).all()
