"""Differential test of the event engine against a naive reference.

Seeded random programs exercise every scheduling call, from outside
the run loop and from inside callbacks, in segments ended by ``until``,
``max_events``, ``stop()`` or an empty calendar.  Each program runs on
:class:`repro.sim.engine.Engine` and on :class:`NaiveEngine` — one list,
scanned for its ``(time, seq)`` minimum, cancellation by flag — and the
two must agree on the firing sequence, the clock at every callback, and
the counters at the end of every segment.

Deadlines run from zero to three horizons on a coarse grid, so ties
between timers and calendar events are common.  The test runs at two
horizons: 4 ticks (a quarter of a millisecond, where nearly every
deadline ties with another) and 512 ticks (33 ms, out to ~100 ms, the
span of real RTOs and fluid rounds).  A third family draws delays of
0-3 us on a 64-256 ns grid, below the calendar's 1 024 ns bucket: many
events share a bucket, callbacks push into the bucket being run, also
after a run ended before its head, and ``until``, ``max_events`` and
``stop()`` end segments with a bucket partly run.  Re-arms move a timer
later, to the same deadline or earlier, and re-arm handles that have
fired, were cancelled or were never armed, so the in-place move of
:meth:`Engine.rearm_timer` and the re-push of a moved timer's calendar
entry are checked where pinned-seed simulations rarely go.

Cancel-heavy scripts arm hundreds of timers and cancel most of them,
also timers moved in place and timers in the running bucket; after
every cancel the calendar must hold exactly one entry per live timer
and none of a dead one.
"""

import random

import pytest

from repro.sim.engine import BUCKET_SHIFT, Engine, Timer, _Buckets, _Running

PROGRAMS_PER_HORIZON = 120

#: Programs of the sub-bucket family.
FINE_PROGRAMS = 300

#: The sub-bucket family's delays: up to this span, on one of these grids.
FINE_SPAN_NS = 3_000
FINE_GRIDS_NS = (64, 128, 256)

#: Delays are drawn on this grid (plus small offsets), so equal
#: deadlines are common.
GRID_NS = 1 << 14

#: The unit of a program's deadline horizon.
TICK_NS = 4 * GRID_NS


class NaiveEngine:
    """The engine's contract, written to be obviously right, not fast."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._seq = 0
        self._stopped = False
        #: [time, seq, callback, args, is_timer, alive]
        self._entries = []

    def _add(self, at, callback, args, is_timer):
        entry = [at, self._seq, callback, args, is_timer, True]
        self._seq += 1
        self._entries.append(entry)
        return entry

    def schedule(self, at, callback, *args):
        assert at >= self.now
        self._add(at, callback, args, False)

    def schedule_after(self, delay, callback, *args):
        self._add(self.now + delay, callback, args, False)

    def schedule_timer(self, delay, callback, *args):
        return self._add(self.now + delay, callback, args, True)

    def cancel_timer(self, timer):
        if timer is not None:
            timer[5] = False

    def rearm_timer(self, timer, delay, callback, *args):
        self.cancel_timer(timer)
        return self.schedule_timer(delay, callback, *args)

    def stop(self):
        self._stopped = True

    def _live(self):
        return [entry for entry in self._entries if entry[5]]

    @property
    def pending_events(self):
        return len(self._live())

    @property
    def pending_timers(self):
        return sum(1 for entry in self._live() if entry[4])

    def run(self, until=None, max_events=None):
        self._stopped = False
        executed = 0
        drained = False
        while not self._stopped and (max_events is None or executed < max_events):
            live = self._live()
            if not live:
                drained = True
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                drained = True
                break
            entry[5] = False
            self._entries.remove(entry)
            self.now = entry[0]
            entry[2](*entry[3])
            executed += 1
            self.events_processed += 1
        if until is not None and self.now < until \
                and (drained or not self.pending_events):
            self.now = until
        return self.now


# ----------------------------------------------------------------------
# Programs: plain data, generated once, executed on either engine
# ----------------------------------------------------------------------

def _delay(rng, horizon_ns):
    """A delay from 0 to three horizons, rich in ties."""
    kind = rng.random()
    if kind < 0.15:
        return rng.choice((0, 0, 1, 2))
    if kind < 0.45:
        span = 2 * TICK_NS
    elif kind < 0.8:
        span = horizon_ns
    else:
        span = 3 * horizon_ns
    return rng.randrange(span // GRID_NS + 1) * GRID_NS \
        + rng.choice((0, 0, 1, GRID_NS - 1))


def _fine_delay(rng, grid_ns):
    """A delay from 0 to 3 us on ``grid_ns``, mostly within a bucket."""
    if rng.random() < 0.15:
        return rng.choice((0, 0, 1, 2))
    return rng.randrange(FINE_SPAN_NS // grid_ns + 1) * grid_ns \
        + rng.choice((0, 0, 1, grid_ns - 1))


def _shifts(grid_ns):
    """How a ``rearm`` picks its new deadline: ``None`` draws a delay of
    its own, a number shifts the deadline the handle was last armed to."""
    return (None, None, 0, 0, 1, grid_ns, 40 * grid_ns, -1, -grid_ns)


_SHIFTS = _shifts(GRID_NS)


def _ops(rng, draw, shifts, depth, counter):
    """Operations one callback (or one between-runs setup) performs;
    ``draw(rng)`` draws a delay."""
    ops = []
    for _ in range(rng.choice((0, 1, 1, 2, 3)) if depth else rng.randrange(3, 9)):
        kind = rng.random()
        delay = draw(rng)
        handle = rng.randrange(6)
        if depth >= 4:
            child = None
        else:
            counter[0] += 1
            child = (counter[0], _ops(rng, draw, shifts, depth + 1, counter))
        if kind < 0.07:
            ops.append(("cancel", handle))
        elif kind < 0.10 and depth:
            ops.append(("stop",))
        elif child is None:
            continue
        elif kind < 0.25:
            ops.append(("schedule", delay, child))
        elif kind < 0.40:
            ops.append(("schedule_after", delay, child))
        elif kind < 0.55:
            ops.append(("timer", handle, delay, child))
        elif kind < 0.65:
            ops.append(("replace", handle, delay, child))
        else:
            ops.append(("rearm", handle, delay, rng.choice(shifts), child))
    return ops


def _segments(rng, draw, shifts):
    counter = [0]
    segments = []
    for _ in range(rng.randrange(3, 7)):
        setup = _ops(rng, draw, shifts, 0, counter)
        until_delay = None if rng.random() < 0.4 else draw(rng)
        max_events = None if rng.random() < 0.6 else rng.randrange(1, 12)
        segments.append((setup, until_delay, max_events))
    # Drain whatever is left so late timers are compared too.
    segments.append(([], None, None))
    return segments


def make_program(seed, horizon_ticks):
    rng = random.Random(seed * 1_000 + horizon_ticks)
    horizon_ns = horizon_ticks * TICK_NS
    return _segments(rng, lambda rng: _delay(rng, horizon_ns), _SHIFTS)


def make_fine_program(seed):
    """A program of the sub-bucket family."""
    rng = random.Random(seed * 1_000 + 1)
    grid_ns = rng.choice(FINE_GRIDS_NS)
    return _segments(rng, lambda rng: _fine_delay(rng, grid_ns),
                     _shifts(grid_ns))


def execute(engine, program):
    """Run ``program``; returns the per-callback and per-segment record."""
    log = []
    handles = {}
    #: Handle name -> the deadline it was last armed to.
    deadlines = {}

    def perform(ops):
        for op in ops:
            kind = op[0]
            if kind == "cancel":
                engine.cancel_timer(handles.get(op[1]))
            elif kind == "stop":
                engine.stop()
            elif kind == "schedule":
                engine.schedule(engine.now + op[1], fire, *op[2])
            elif kind == "schedule_after":
                engine.schedule_after(op[1], fire, *op[2])
            elif kind == "rearm":
                _, name, delay, shift, child = op
                armed = deadlines.get(name)
                if shift is not None and armed is not None \
                        and armed + shift >= engine.now:
                    delay = armed + shift - engine.now
                handles[name] = engine.rearm_timer(handles.get(name), delay,
                                                   fire, *child)
                deadlines[name] = engine.now + delay
            else:
                if kind == "replace":
                    engine.cancel_timer(handles.get(op[1]))
                handles[op[1]] = engine.schedule_timer(op[2], fire, *op[3])
                deadlines[op[1]] = engine.now + op[2]

    def fire(node_id, ops):
        log.append(("fire", node_id, engine.now))
        perform(ops)

    for setup, until_delay, max_events in program:
        perform(setup)
        until = None if until_delay is None else engine.now + until_delay
        returned = engine.run(until=until, max_events=max_events)
        log.append(("segment", returned, engine.now, engine.events_processed,
                    engine.pending_events, engine.pending_timers))
    return log


@pytest.mark.parametrize("horizon_ticks", [4, 512])
def test_engine_matches_naive_reference(horizon_ticks):
    fired = 0
    for seed in range(PROGRAMS_PER_HORIZON):
        program = make_program(seed, horizon_ticks)
        expected = execute(NaiveEngine(), program)
        actual = execute(Engine(), program)
        for step, (want, got) in enumerate(zip(expected, actual)):
            assert got == want, (
                f"seed {seed}, step {step}: engine {got} != reference {want}")
        assert len(actual) == len(expected), seed
        fired += sum(1 for record in expected if record[0] == "fire")
    # The programs must actually do something: a generator regression
    # that emptied them would make the comparison vacuous.
    assert fired > 20 * PROGRAMS_PER_HORIZON


class _CountingBuckets(_Buckets):
    """The calendar, counting pushes into the running bucket and, among
    them, those into a slot before the running one."""

    def __init__(self):
        super().__init__()
        self.in_running = self.behind = 0

    def __missing__(self, slot):
        if slot <= self.running.slot:
            self.in_running += 1
            self.behind += slot < self.running.slot
        return super().__missing__(slot)


class BucketCountingEngine(Engine):
    """The engine on a :class:`_CountingBuckets` calendar."""

    def __init__(self):
        super().__init__()
        self._buckets = _CountingBuckets()
        self._reader = iter(self._buckets.running.entries)


def _shared_buckets(log):
    """Events of ``log`` that fired in the bucket of the one before."""
    fires = [record[2] for record in log if record[0] == "fire"]
    return sum(1 for before, at in zip(fires, fires[1:])
               if before >> BUCKET_SHIFT == at >> BUCKET_SHIFT)


def execute_fine(engine, program):
    """``execute`` that also counts the segments that ended with an
    event of the clock's bucket still pending."""
    mid_bucket = 0
    run = engine.run

    def run_and_look(until=None, max_events=None):
        nonlocal mid_bucket
        returned = run(until=until, max_events=max_events)
        slot = engine.now >> BUCKET_SHIFT
        mid_bucket += any(at >> BUCKET_SHIFT == slot
                          for at, _callback, _args in engine.iter_pending())
        return returned

    engine.run = run_and_look
    return execute(engine, program), mid_bucket


def test_engine_matches_naive_reference_below_the_bucket_width():
    fired = shared = mid_bucket = in_running = behind = 0
    for seed in range(FINE_PROGRAMS):
        program = make_fine_program(seed)
        expected = execute(NaiveEngine(), program)
        engine = BucketCountingEngine()
        actual, ended = execute_fine(engine, program)
        for step, (want, got) in enumerate(zip(expected, actual)):
            assert got == want, (
                f"seed {seed}, step {step}: engine {got} != reference {want}")
        assert len(actual) == len(expected), seed
        fired += sum(1 for record in expected if record[0] == "fire")
        shared += _shared_buckets(expected)
        mid_bucket += ended
        in_running += engine._buckets.in_running
        behind += engine._buckets.behind
    # The family must reach what it is for.
    assert fired > 20 * FINE_PROGRAMS, fired
    assert shared > fired // 2, (shared, fired)
    assert in_running > 5 * FINE_PROGRAMS, in_running
    assert behind > 0 and mid_bucket > FINE_PROGRAMS, (behind, mid_bucket)


def test_fine_family_catches_an_unordered_running_bucket(monkeypatch):
    """A push into the running bucket appended, not inserted in order."""
    monkeypatch.setattr(_Running, "append",
                        lambda self, entry: self.entries.append(entry))
    assert any(execute(Engine(), make_fine_program(seed))
               != execute(NaiveEngine(), make_fine_program(seed))
               for seed in range(FINE_PROGRAMS))


def test_reference_catches_a_late_timer():
    """The harness itself: a deliberately broken engine is told apart."""

    class LateTimers(Engine):
        def schedule_timer(self, delay, callback, *args):
            return super().schedule_timer(delay + (delay > GRID_NS),
                                          callback, *args)

    program = make_program(3, 512)
    assert execute(LateTimers(), program) != execute(NaiveEngine(), program)


# ----------------------------------------------------------------------
# Cancel-heavy scripts: one calendar entry per live timer, none per dead
# ----------------------------------------------------------------------

#: Timers a cancel-heavy script arms per segment, under as many handles.
HEAVY_TIMERS = 300


class EntryCheckedEngine(Engine):
    """The engine, checking that every timer entry it pushes is its
    timer's one entry and, after every cancel, that the calendar holds
    exactly one entry per live timer and none of a dead one.  Counts
    the cancels that removed an entry, and those among them of a timer
    moved in place and of an entry in the running bucket."""

    def __init__(self):
        super().__init__()
        self.removals = self.moved = self.in_running = 0

    def _push(self, entry):
        if isinstance(entry[2], Timer):
            assert entry[2].entry is entry
        super()._push(entry)

    def cancel_timer(self, timer):
        entry = timer and timer.entry
        if entry:
            self.removals += 1
            self.moved += entry[1] != timer.seq
            self.in_running += entry[0] >> BUCKET_SHIFT \
                <= self._buckets.running.slot
        super().cancel_timer(timer)
        timers = [entry[2] for entry in self._pending()
                  if isinstance(entry[2], Timer)]
        assert len(timers) == len(set(timers)) == self.pending_timers
        assert all(armed.entry is not None for armed in timers)


def make_cancel_heavy_program(seed):
    """Segments that each arm hundreds of timers and cancel most of
    them, from outside the run loop and from fired timers' callbacks;
    some of the survivors are moved by ``rearm_timer``."""
    rng = random.Random(seed)
    horizon_ns = 512 * TICK_NS
    counter = [0]

    def leaf():
        counter[0] += 1
        return counter[0], []

    def callback_ops():
        ops = [("cancel", rng.randrange(HEAVY_TIMERS))
               for _ in range(rng.choice((0, 2, 5)))]
        if rng.random() < 0.3:
            ops.append(("rearm", rng.randrange(HEAVY_TIMERS),
                        _delay(rng, horizon_ns), rng.choice(_SHIFTS), leaf()))
        if rng.random() < 0.2:
            ops.append(("timer", rng.randrange(HEAVY_TIMERS),
                        _delay(rng, horizon_ns), leaf()))
        counter[0] += 1
        return counter[0], ops

    segments = []
    for _ in range(3):
        setup = []
        for name in range(HEAVY_TIMERS):
            setup.append(("timer", name, _delay(rng, horizon_ns),
                          callback_ops()))
            if rng.random() < 0.2:
                setup.append(("schedule_after", _delay(rng, horizon_ns),
                              leaf()))
        names = list(range(HEAVY_TIMERS))
        rng.shuffle(names)
        for name in names[:HEAVY_TIMERS * 3 // 4]:
            setup.append(("cancel", name))
            if rng.random() < 0.15:
                setup.append(("rearm", rng.choice(names),
                              _delay(rng, horizon_ns), rng.choice(_SHIFTS),
                              callback_ops()))
        until_delay = _delay(rng, horizon_ns)
        max_events = None if rng.random() < 0.5 else rng.randrange(20, 200)
        segments.append((setup, until_delay, max_events))
    segments.append(([], None, None))
    return segments


def _cancel_heavy_differential():
    """Run the cancel-heavy scripts on :class:`EntryCheckedEngine` and
    the reference; returns the checker's counts summed and the number of
    callbacks fired."""
    removals = moved = in_running = fired = 0
    for seed in range(12):
        program = make_cancel_heavy_program(seed)
        expected = execute(NaiveEngine(), program)
        engine = EntryCheckedEngine()
        actual = execute(engine, program)
        for step, (want, got) in enumerate(zip(expected, actual)):
            assert got == want, (
                f"seed {seed}, step {step}: engine {got} != reference {want}")
        assert len(actual) == len(expected), seed
        removals += engine.removals
        moved += engine.moved
        in_running += engine.in_running
        fired += sum(1 for record in expected if record[0] == "fire")
    return removals, moved, in_running, fired


def test_cancel_heavy_scripts_compact_and_match_the_reference():
    removals, moved, in_running, fired = _cancel_heavy_differential()
    # The scripts must reach what they are for: cancels that remove an
    # entry, of timers moved in place and from the running bucket, and
    # timers that fire.
    assert removals >= 12 * 3 * HEAVY_TIMERS // 2, removals
    assert moved > 0 and in_running > 0, (moved, in_running)
    assert fired > 12 * 100, fired


def _cancel_leaves_the_entry(self, timer):
    if timer is not None and timer.entry is not None:
        timer.entry = None
        self._armed -= 1


def _re_push_keeps_the_old_entry(self):
    engine = self.engine
    if self.entry[1] == self.seq:
        self.entry = None
        engine._armed -= 1
        self.callback(*self.args)
    else:
        engine._push((self.deadline, self.seq, self, ()))
        engine._events_processed -= 1


def _moved_timer_fires_at_its_old_key(self):
    self.entry = None
    self.engine._armed -= 1
    self.callback(*self.args)


@pytest.mark.parametrize("target, mutant", [
    (Engine, ("cancel_timer", _cancel_leaves_the_entry)),
    (Timer, ("__call__", _re_push_keeps_the_old_entry)),
    (Timer, ("__call__", _moved_timer_fires_at_its_old_key)),
], ids=["cancel-leaves-the-entry", "re-push-keeps-the-old-entry",
        "moved-timer-fires-at-its-old-key"])
def test_cancel_heavy_scripts_catch_a_broken_timer(monkeypatch, target, mutant):
    """Each of three wrong timers fails the cancel-heavy differential:
    by its entry check or by a firing the reference does not make."""
    monkeypatch.setattr(target, *mutant)
    with pytest.raises(AssertionError):
        _cancel_heavy_differential()
