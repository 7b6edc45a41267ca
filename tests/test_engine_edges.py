"""Edge cases of the engine run loop and the hashed timer wheel.

The run loop has a pop-first fast path (an event earlier than the timer
bound runs without consulting the wheel) and one slow path that merges
calendar and timers and is where the ``until`` horizon, ``stop()`` and
``max_events`` end a run.  These tests pin the semantics at the seams
between the two, and the bound arithmetic that decides which one an
event takes.
"""

import gc
import sys
import tracemalloc
import types
from collections import Counter

import pytest

from repro.baselines import NoCache
from repro.core import SwitchV2P
from repro.experiments.runner import build_network
from repro.net.topology import FatTreeSpec
from repro.sim.engine import (_WHEEL_SLOT_NS, Engine, SimulationError, Timer,
                              collector_paused)
from repro.vnet.network import NetworkConfig, VirtualNetwork

from conftest import ft32_spec, tiny_spec

#: One wheel slot, in ns.
S = _WHEEL_SLOT_NS


class CountingEngine(Engine):
    """Counts wheel sweeps, i.e. how often the run loop left its fast path
    for a reason other than the end of the run."""

    sweeps = 0

    def _sweep_wheel(self, limit):
        self.sweeps += 1
        return super()._sweep_wheel(limit)


# ----------------------------------------------------------------------
# run(until) x stop() x max_events x empty calendar
# ----------------------------------------------------------------------

def test_stop_during_run_until_leaves_clock_at_event():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: (fired.append("a"), engine.stop()))
    engine.schedule(20, fired.append, "b")
    assert engine.run(until=100) == 10
    assert fired == ["a"]
    # The stopped run must not advance the clock to `until`; the
    # remaining event is preserved and runs on resume.
    assert engine.now == 10
    engine.run(until=100)
    assert fired == ["a", "b"]


def test_max_events_wins_over_until():
    engine = Engine()
    fired = []
    for t in (1, 2, 3, 4):
        engine.schedule(t, fired.append, t)
    assert engine.run(until=100, max_events=2) == 2
    assert fired == [1, 2]
    engine.run(until=100)
    assert fired == [1, 2, 3, 4]


def test_run_until_with_empty_calendar_advances_to_until():
    engine = Engine()
    assert engine.run(until=50) == 50
    assert engine.now == 50
    # Scheduling at the horizon is legal afterwards; before it is not.
    engine.schedule(50, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(49, lambda: None)


def test_event_beyond_until_is_pushed_back_intact():
    engine = Engine()
    fired = []
    engine.schedule(75, fired.append, "late")
    assert engine.run(until=30) == 30
    assert fired == []
    assert engine.pending_events == 1
    # A later run executes the preserved event exactly once.
    assert engine.run() == 75
    assert fired == ["late"]


def test_repeated_run_until_is_idempotent_on_empty_engine():
    engine = Engine()
    assert engine.run(until=10) == 10
    assert engine.run(until=10) == 10
    assert engine.run() == 10
    assert engine.events_processed == 0


# ----------------------------------------------------------------------
# timer wheel: cancel / reschedule semantics
# ----------------------------------------------------------------------

def test_timer_fires_with_args():
    engine = Engine()
    fired = []
    engine.schedule_timer(100, fired.append, "t")
    engine.run()
    assert fired == ["t"]
    assert engine.now == 100
    assert engine.pending_timers == 0


def test_cancelled_timer_never_fires():
    engine = Engine()
    fired = []
    timer = engine.schedule_timer(100, fired.append, "t")
    engine.cancel_timer(timer)
    assert engine.pending_timers == 0
    engine.run()
    assert fired == []


def test_cancel_is_idempotent_and_tolerates_none():
    engine = Engine()
    timer = engine.schedule_timer(10, lambda: None)
    engine.cancel_timer(None)
    engine.cancel_timer(timer)
    engine.cancel_timer(timer)  # second cancel: no double decrement
    assert engine.pending_timers == 0
    engine.run()
    assert engine.events_processed == 0


def test_cancel_after_fire_is_a_noop():
    engine = Engine()
    timer = engine.schedule_timer(10, lambda: None)
    engine.run()
    assert engine.events_processed == 1
    engine.cancel_timer(timer)
    assert engine.pending_timers == 0


def test_rearm_pattern_only_last_timer_fires():
    # The transport's RTO pattern: cancel + re-arm on every ACK.
    engine = Engine()
    fired = []
    timer = None
    for delay in (100, 200, 300):
        engine.cancel_timer(timer)
        timer = engine.schedule_timer(delay, fired.append, delay)
    assert engine.pending_timers == 1
    engine.run()
    assert fired == [300]
    assert engine.now == 300


def test_timer_and_event_tie_breaks_by_arming_order():
    engine = Engine()
    fired = []
    engine.schedule_timer(50, fired.append, "timer-first")
    engine.schedule(50, fired.append, "event-second")
    engine.schedule(50, fired.append, "event-third")
    engine.run()
    assert fired == ["timer-first", "event-second", "event-third"]

    engine = Engine()
    fired = []
    engine.schedule(50, fired.append, "event-first")
    engine.schedule_timer(50, fired.append, "timer-second")
    engine.run()
    assert fired == ["event-first", "timer-second"]


def test_timer_beyond_until_survives_the_horizon():
    engine = Engine()
    fired = []
    engine.schedule_timer(500, fired.append, "t")
    assert engine.run(until=100) == 100
    assert fired == []
    assert engine.pending_timers == 1
    engine.run()
    assert fired == ["t"]
    assert engine.now == 500


def test_timer_past_one_wheel_revolution_fires_on_time():
    # 512 slots x 65.536 us ~= 33.5 ms per revolution; a 100 ms timer
    # wraps the wheel several times and must still fire exactly once.
    engine = Engine()
    fired = []
    engine.schedule_timer(100_000_000, fired.append, "far")
    engine.schedule_timer(1_000, fired.append, "near")
    engine.run()
    assert fired == ["near", "far"]
    assert engine.now == 100_000_000


def test_negative_timer_delay_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_timer(-1, lambda: None)


def test_timer_armed_inside_callback_during_run():
    engine = Engine()
    fired = []

    def arm_followup():
        fired.append("first")
        engine.schedule_timer(25, fired.append, "second")

    engine.schedule_timer(10, arm_followup)
    engine.run()
    assert fired == ["first", "second"]
    assert engine.now == 35


def test_mixed_timers_and_events_fire_in_global_time_order():
    engine = Engine()
    fired = []
    expected = []
    # Interleave arming so heap events and wheel timers share deadlines
    # across several wheel slots; cancel a scattering of timers.
    cancelled = set()
    timers = {}
    for i in range(40):
        at = (i * 7_919) % 300_000  # spread over ~5 wheel slots
        if i % 2:
            engine.schedule(at, fired.append, ("event", at, i))
        else:
            timers[i] = engine.schedule_timer(at, fired.append,
                                              ("timer", at, i))
        if i % 10 == 4:
            engine.cancel_timer(timers.get(i))
            cancelled.add(i)
    for i in range(40):
        at = (i * 7_919) % 300_000
        if i not in cancelled:
            expected.append((at, i))
    engine.run()
    assert [(at, i) for _, at, i in fired] == sorted(expected)


def test_pending_events_counts_calendar_and_timers():
    engine = Engine()
    engine.schedule(10, lambda: None)
    timer = engine.schedule_timer(20, lambda: None)
    assert engine.pending_events == 2
    assert engine.pending_timers == 1
    engine.cancel_timer(timer)
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


# ----------------------------------------------------------------------
# timer bound: true (no late timer) and tight (no per-event sweeps)
# ----------------------------------------------------------------------

def test_timer_in_unswept_bucket_is_not_overtaken_by_a_later_revolution():
    # The sweep for ev3 visits buckets 0..3.  Bucket 2 holds A, a timer
    # of the *next* revolution (slot 514 = 2 mod 512); B sits in bucket
    # 5, not yet visited.  Taking A as the new bound would let ev6..ev8
    # run before B and then fire B with the clock going backwards.
    engine = Engine()
    fired = []

    def record(name):
        fired.append((name, engine.now))

    decoy = engine.schedule_timer(1 * S, record, "C")
    engine.schedule_timer(514 * S + 5, record, "A")
    engine.schedule_timer(5 * S + 5, record, "B")
    engine.cancel_timer(decoy)
    for slot in (3, 6, 7, 8):
        engine.schedule(slot * S + 10, record, f"ev{slot}")
    engine.run()
    assert [name for name, _ in fired] == ["ev3", "B", "ev6", "ev7", "ev8", "A"]
    times = [now for _, now in fired]
    assert times == sorted(times)
    assert times[1] == 5 * S + 5


def test_parked_timer_costs_sweeps_per_slot_not_per_event():
    # The RTO re-arm shape: the early timer that set the bound is
    # cancelled, the live one is parked three slots ahead, and 1 000
    # calendar events run before it.  An empty swept window must push
    # the bound to the next slot, not merely past the current event.
    engine = CountingEngine()
    fired = []
    engine.schedule_timer(3 * S + 500, fired.append, "rto")
    engine.cancel_timer(engine.schedule_timer(10, fired.append, "early"))
    step = (3 * S) // 1_000
    for i in range(1_000):
        engine.schedule(20 + i * step, fired.append, i)
    engine.schedule(4 * S, fired.append, "after")
    engine.run()
    assert fired == [*range(1_000), "rto", "after"]
    assert engine.events_processed == 1_002
    # One sweep per slot crossed plus a couple around the firing.
    assert engine.sweeps <= 8


def test_timerless_run_never_sweeps():
    engine = CountingEngine()
    for i in range(100):
        engine.schedule(i * S, lambda: None)
    engine.run()
    assert engine.sweeps == 0


def test_stop_from_the_fast_path_then_resume_keeps_timer_order():
    # stop() works by lowering the timer bound; the next run must
    # restore a true bound rather than trust the lowered one or the
    # one it replaced.
    engine = Engine()
    fired = []
    engine.schedule_timer(2 * S, fired.append, "timer")
    engine.schedule(10, lambda: (fired.append("a"), engine.stop()))
    engine.schedule(3 * S, fired.append, "b")
    assert engine.run() == 10
    assert fired == ["a"]
    assert engine.run() == 3 * S
    assert fired == ["a", "timer", "b"]


# ----------------------------------------------------------------------
# cancelled timers are dropped, not parked until the engine dies
# ----------------------------------------------------------------------

def _reachable_timers(engine):
    """Every ``Timer`` the collector can reach from ``engine``, however
    the wheel and the due heap are laid out."""
    seen = {id(engine)}
    frontier = [engine]
    timers = []
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            # Code is not state: stay out of functions' module globals.
            if id(referent) in seen or isinstance(
                    referent, (type, types.FunctionType, types.ModuleType)):
                continue
            seen.add(id(referent))
            frontier.append(referent)
            if isinstance(referent, Timer):
                timers.append(referent)
    return timers


def test_cancelled_timers_are_dropped_once_no_timer_is_live():
    # The sweep that finds no live timer used to return at once and
    # leave every cancelled one -- args and bound callback included --
    # in its bucket for the life of the engine: the RTO re-arm pattern
    # of a run whose flows all went fluid parked thousands.
    engine = Engine()
    payload = [object() for _ in range(300)]
    for i, item in enumerate(payload):
        # Buckets all round the wheel, two revolutions deep.
        engine.cancel_timer(engine.schedule_timer(
            (i * 7 % 1000) * S + i, payload.append, item))
    assert len(_reachable_timers(engine)) == 300
    fired = []
    engine.schedule(1001 * S, fired.append, "past every deadline")
    engine.run()
    assert fired == ["past every deadline"]
    assert _reachable_timers(engine) == []
    assert list(engine.iter_pending()) == []
    assert engine.pending_events == 0


def test_cancelled_timers_on_the_due_heap_are_dropped_too():
    # A timer armed behind the sweep cursor joins the due heap, not a
    # bucket.  The sweep for "late" takes the cursor to slot 10 before
    # "arm" fires at slot 5, so what "arm" arms and cancels sits there,
    # and the slow path pops it with no help from the sweep.
    engine = Engine()
    fired = []

    def arm_and_cancel():
        for delay in (3, 2, 1):
            engine.cancel_timer(engine.schedule_timer(delay * S,
                                                      fired.append, delay))

    engine.schedule_timer(5 * S, arm_and_cancel)
    engine.schedule(10 * S, fired.append, "late")
    engine.run()
    assert fired == ["late"]
    assert _reachable_timers(engine) == []
    assert list(engine.iter_pending()) == []


# ----------------------------------------------------------------------
# iter_pending: the calendar as (time, callback, args), layout-free
# ----------------------------------------------------------------------

def test_iter_pending_lists_events_and_live_timers_wherever_they_sit():
    engine = Engine(wheel_slots=4)
    sink = []
    engine.schedule(3 * S, sink.append, "event")
    engine.schedule_timer(2 * S, sink.append, "near")
    engine.schedule_timer(9 * S, sink.append, "next-revolution")
    engine.cancel_timer(engine.schedule_timer(S, sink.append, "dead"))
    expected = [(2 * S, sink.append, ("near",)),
                (3 * S, sink.append, ("event",)),
                (9 * S, sink.append, ("next-revolution",))]
    assert sorted(engine.iter_pending(), key=lambda item: item[0]) == expected

    # Mid-run the 2*S-tied timer below has been swept to the due heap
    # while the first one fires; it must still be listed.
    seen = []
    engine.schedule_timer(2 * S, lambda: seen.extend(engine.iter_pending()))
    engine.run(until=2 * S)
    assert sorted(item[0] for item in seen) == [3 * S, 9 * S]
    assert sink == ["near"]
    assert len(list(engine.iter_pending())) == engine.pending_events == 2


# ----------------------------------------------------------------------
# collector_paused(): who may switch the cyclic collector back on
# ----------------------------------------------------------------------

@pytest.fixture
def collector():
    """Hands the test the ``gc`` module and restores its on/off state."""
    was_enabled = gc.isenabled()
    try:
        yield gc
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_collector_paused_reenables_what_it_disabled(collector):
    collector.enable()
    with collector_paused():
        assert not collector.isenabled()
    assert collector.isenabled()


def test_collector_paused_leaves_a_disabled_collector_off(collector):
    collector.disable()
    with collector_paused():
        assert not collector.isenabled()
    assert not collector.isenabled()


def test_collector_paused_nests(collector):
    collector.enable()
    with collector_paused():
        with collector_paused():
            assert not collector.isenabled()
        # Only the block that disabled the collector re-enables it.
        assert not collector.isenabled()
    assert collector.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_on_error(collector, enabled):
    (collector.enable if enabled else collector.disable)()
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("boom")
    assert collector.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(collector, enabled):
    (collector.enable if enabled else collector.disable)()
    engine = Engine()
    seen = []
    engine.schedule(1, lambda: seen.append(collector.isenabled()))
    engine.schedule(2, lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        engine.run()
    assert seen == [False]
    assert collector.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_network_construction_leaves_collector_as_found(collector, enabled):
    class Broken(NoCache):
        def setup(self, network):
            assert not collector.isenabled()
            raise RuntimeError("set-up failed")

    (collector.enable if enabled else collector.disable)()
    with pytest.raises(RuntimeError, match="set-up failed"):
        VirtualNetwork(NetworkConfig(spec=tiny_spec()), Broken())
    assert collector.isenabled() is enabled


def _collections_during(build):
    """Collector runs per generation while ``build()`` executes, and the
    GC-tracked objects the build leaves behind, by type.

    Counts, not times, so the result does not depend on the machine;
    the full collection first makes it independent of what the process
    allocated before, too (a collection is due by allocation counts).
    The second full collection drops what the build freed, so the
    object count is exact for a given interpreter.
    """
    gc.collect()
    kept = Counter(map(type, gc.get_objects()))
    before = [generation["collections"] for generation in gc.get_stats()]
    network = build()
    after = [generation["collections"] for generation in gc.get_stats()]
    assert network.database.version == len(network.database)
    gc.collect()
    added = Counter(map(type, gc.get_objects()))
    added.subtract(kept)
    return [b - a for a, b in zip(before, after)], added


#: GC-tracked objects a k=32 / 100k-VM hybrid build keeps (CPython
#: 3.11), measured; the bound below allows 2 %, which also covers the
#: few dozen that depend on what the process built before.  It was
#: 211 897 while every link had a ``LinkStats`` and its own bound
#: ``receive``, and 122 872 while each of the 8 192 hosts kept a set of
#: its VIPs beside the database and each of the 1 280 switches a set of
#: attached PIPs (filled on ToRs only) beside ``host_links``.
K32_BUILD_OBJECTS = 113_400


def test_k32_build_runs_no_full_collection(collector):
    """341 / 30 / 2 runs before the build paused the collector: nearly
    all of a k=32 set-up's objects were rescanned 33 times.  The few
    runs left are the ones due when the collector comes back on, and
    each of those scans every object the build made, so their number is
    held too."""
    # First-use imports and the shared per-rate tables, off the count.
    build_network(tiny_spec(), SwitchV2P(64), 8, seed=7, fidelity="hybrid")
    collector.enable()
    (young, middle, full), added = _collections_during(lambda: build_network(
        ft32_spec(), SwitchV2P(16384), 100_000, seed=7, fidelity="hybrid"))
    assert full == 0
    assert young < 10 and middle < 10
    if sys.version_info[:2] == (3, 11):
        assert sum(added.values()) <= K32_BUILD_OBJECTS * 1.02, \
            [(kind.__name__, count) for kind, count in added.most_common(8)]


#: Bytes of live heap a k=32 / 100k-VM hybrid build keeps (CPython
#: 3.11, ``tracemalloc`` after a full collection), measured: 17 707 550.
#: The object count above cannot see memory that is not a GC-tracked
#: object — dict slots, boxed ints — so this bound sits beside it, at
#: 2 % over.  It was about 25 MB (25 341 302) while the mapping
#: database was a dict keyed by VIP: a 5.2 MB hash table and 100 000
#: boxed VIP keys, where the list indexed by VIP holds 0.8 MB.
K32_BUILD_BYTES = 17_707_550


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the byte count is a property of the interpreter")
def test_k32_build_keeps_a_bounded_heap():
    # First-use imports and the shared per-rate tables, off the count.
    build_network(tiny_spec(), SwitchV2P(64), 8, seed=7, fidelity="hybrid")
    gc.collect()
    tracemalloc.start()
    try:
        network = build_network(ft32_spec(), SwitchV2P(16384), 100_000,
                                seed=7, fidelity="hybrid")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        over = kept > K32_BUILD_BYTES * 1.02
        top = tracemalloc.take_snapshot().statistics("lineno")[:8] if over else []
    finally:
        tracemalloc.stop()
    assert len(network.database) == 100_000
    assert not over, (kept, [str(line) for line in top])


def test_ft8_build_runs_no_full_collection(collector):
    collector.enable()
    full = _collections_during(lambda: build_network(
        FatTreeSpec(), SwitchV2P(512), 320, seed=1))[0][2]
    assert full == 0
