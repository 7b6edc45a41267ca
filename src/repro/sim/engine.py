"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: a binary heap of
``(time, sequence, callback, argument)`` tuples, an integer-nanosecond
clock, and a run loop.  Integer time avoids floating-point drift when
summing many small per-hop delays, which matters because the paper's
latency budget is built from 1 microsecond propagation delays and
sub-microsecond serialization times.

Cancellable timers (retransmission timeouts, health probes) live in a
hashed timer wheel beside the heap.  Transports re-arm their RTO on
every ACK; pushing each of those arms through the heap leaves a trail
of dead entries that the run loop must pop and discard one by one.  The
wheel gives O(1) arm and cancel, and cancelled timers are dropped in
bulk when their bucket is swept, so they never churn the main heap.
Live timers still fire in exact ``(time, sequence)`` order relative to
heap events, keeping runs bit-deterministic.

The two sides meet in one number, the *timer bound*: a lower bound on
the deadline of every live timer.  A heap event earlier than the bound
runs without looking at the wheel at all; only an event at or past it
makes the run loop sweep the wheel, and each sweep pushes the bound to
the next live timer or the next unswept slot.  The wheel therefore
costs one sweep per 65 us slot the clock crosses plus one per timer
that fires — not one per event.

The engine is deliberately minimal; all protocol behaviour lives in the
network objects (:mod:`repro.net`, :mod:`repro.vnet`, :mod:`repro.core`)
that schedule events on it.
"""

from __future__ import annotations

import gc
import heapq
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

# Unit helpers: all simulation timestamps are integers in nanoseconds.
NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

#: Timer-wheel geometry: 512 slots of ~65 us cover a 33 ms horizon in
#: one revolution, matching the RTO range (100 us .. 64 ms) so a timer
#: is examined at most a couple of times before it fires or dies.
_WHEEL_SLOT_NS = 1 << 16
_WHEEL_SLOTS = 512

#: "No such time": the timer bound while no timer is live, and the run
#: horizon / event budget when ``run`` is given none.
_NEVER = 1 << 62

#: A pending calendar event or live timer: ``(time, callback, args)``.
_Item = tuple[int, Callable[..., None], tuple]


def usec(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * MICROSECOND)


def msec(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * MILLISECOND)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector from running inside the block.

    For code whose objects all stay alive (building a network) or die
    by reference count (the event loop), where a scan frees nothing.
    Nests: a block re-enables only the collector it disabled itself, so
    a caller that runs with the collector off keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Timer:
    """A cancellable timer handle returned by :meth:`Engine.schedule_timer`.

    ``deadline``/``seq`` form the same ordering key heap events use, so
    a fired timer interleaves with same-time events exactly as if it had
    been pushed onto the heap.
    """

    __slots__ = ("deadline", "seq", "callback", "args", "alive")

    def __init__(self, deadline: int, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.args = args
        self.alive = True


class Engine:
    """An event-driven simulation engine with an integer nanosecond clock.

    Events are callbacks scheduled at absolute or relative times.  Ties
    are broken by insertion order, making runs fully deterministic for a
    fixed seed and fixed scheduling order.

    Invariant the run loop rests on: ``_timer_bound`` is never later
    than the deadline of any live timer, wherever it sits (a wheel
    bucket or the due heap); with no live timer it is ``_NEVER``.
    Anyone may lower it — :meth:`schedule_timer` for a new earliest
    deadline, :meth:`stop` and ``run(until=...)`` to end a run — and a
    bound that is too low only costs a sweep.  Only the slow path of
    :meth:`run` raises it, and only to what a sweep has just proved.
    A calendar event strictly earlier than the bound therefore precedes
    every timer and may run without consulting the wheel, the due heap
    or the live-timer count.

    Example:
        >>> engine = Engine()
        >>> fired = []
        >>> engine.schedule(10, fired.append, "a")
        >>> engine.schedule(5, fired.append, "b")
        >>> engine.run()
        >>> fired
        ['b', 'a']
    """

    def __init__(self, wheel_slots: int = _WHEEL_SLOTS) -> None:
        if wheel_slots < 1:
            raise SimulationError(f"wheel_slots must be positive, got {wheel_slots}")
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._now = 0
        self._events_processed = 0
        self._stopped = False
        # Hashed timer wheel (lazy deletion, swept in bucket order).
        # The slot count scales with expected concurrent timers — large
        # topologies pass a wider wheel so buckets stay short — without
        # affecting event order, which is always (deadline, seq).
        self._wheel_slots = wheel_slots
        self._wheel: list[list[Timer]] = [[] for _ in range(wheel_slots)]
        self._live_timers = 0
        #: Absolute slot index the next sweep starts at: every timer in
        #: a bucket has a deadline in this slot or a later one.
        self._wheel_cursor = 0
        #: Lower bound on every live timer's deadline (class docstring).
        self._timer_bound = _NEVER
        #: Heap of ``(deadline, seq, timer)`` for timers swept out of
        #: the wheel (or armed behind the cursor) and not yet fired.
        self._due: list[tuple[int, int, Timer]] = []

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (timer firings included)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still waiting (calendar + live timers)."""
        return len(self._queue) + self._live_timers

    @property
    def pending_timers(self) -> int:
        """Number of armed (not cancelled, not fired) timers."""
        return self._live_timers

    def iter_pending(self) -> Iterator[_Item]:
        """Yield ``(time, callback, args)`` for everything still waiting.

        Covers calendar events and live timers (:attr:`pending_events`
        items in all), in no particular order.  Read-only: meant for
        oracles and debugging that need to see what is in flight
        without depending on how the calendar is laid out.
        """
        for at, _seq, callback, args in self._queue:
            yield at, callback, args
        for bucket in self._wheel:
            for timer in bucket:
                if timer.alive:
                    yield timer.deadline, timer.callback, timer.args
        for deadline, _seq, timer in self._due:
            if timer.alive:
                yield deadline, timer.callback, timer.args

    def schedule(self, at: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``at``.

        Raises:
            SimulationError: if ``at`` is before the current time.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot schedule event at t={at} before current time t={self._now}"
            )
        heapq.heappush(self._queue, (at, self._sequence, callback, args))
        self._sequence += 1

    def schedule_after(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        A non-negative delay from ``now`` can never land in the past,
        so this pushes straight onto the heap without the past-time
        check :meth:`schedule` performs.  (Links and ``Switch.receive``,
        the per-packet hot path, push onto the heap themselves.)
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    # ------------------------------------------------------------------
    # cancellable timers (hashed timer wheel)
    # ------------------------------------------------------------------
    def schedule_timer(self, delay: int, callback: Callable[..., None],
                       *args: Any) -> Timer:
        """Arm a cancellable timer ``delay`` ns from now.

        Returns a :class:`Timer` handle for :meth:`cancel_timer`.  Use
        this for timers that are usually cancelled or re-armed before
        firing (retransmission timeouts, probe timers): arm and cancel
        are O(1) and dead timers never pass through the event heap.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        deadline = self._now + delay
        seq = self._sequence
        self._sequence = seq + 1
        timer = Timer(deadline, seq, callback, args)
        slot = deadline // _WHEEL_SLOT_NS
        if slot < self._wheel_cursor:
            # Behind the sweep cursor: no later sweep would visit its
            # bucket in time, so it joins the due heap directly.
            heapq.heappush(self._due, (deadline, seq, timer))
        else:
            self._wheel[slot % self._wheel_slots].append(timer)
        if deadline < self._timer_bound:
            self._timer_bound = deadline
        self._live_timers += 1
        return timer

    def cancel_timer(self, timer: Timer | None) -> None:
        """Disarm ``timer``; a no-op for None, fired or cancelled timers.

        The timer bound is left alone: it stays a valid (if no longer
        tight) lower bound, and the next sweep that reaches the dead
        timer drops it and re-tightens.
        """
        if timer is not None and timer.alive:
            timer.alive = False
            self._live_timers -= 1

    def _sweep_wheel(self, limit: int) -> int:
        """Move every live timer with ``deadline < limit`` to the due heap.

        Visits the buckets of the slots from the cursor up to ``limit``'s
        (at most one revolution, which is every bucket), dropping
        cancelled timers and leaving later ones — including later
        revolutions of a visited bucket — in place.

        Returns a lower bound, never below ``limit``, on every timer
        still in the wheel: the earliest timer kept in a visited bucket
        or the start of the first unvisited slot, whichever is earlier.
        An unvisited bucket can only hold timers of slots past the last
        one visited, so taking the kept minimum alone would be wrong.
        ``_NEVER`` if no live timer is left anywhere — what the buckets
        hold is then all cancelled, and is dropped here: with the bound
        at ``_NEVER`` no later sweep may come to visit it.  (The due
        heap needs no such care; the caller pops its dead top entries.)
        """
        if not self._live_timers:
            for bucket in self._wheel:
                if bucket:
                    bucket.clear()
            return _NEVER
        wheel = self._wheel
        due = self._due
        slots = self._wheel_slots
        heappush = heapq.heappush
        first = self._wheel_cursor
        last = max(first, limit // _WHEEL_SLOT_NS)
        if last - first + 1 >= slots:
            visited = range(slots)
            bound = _NEVER
        else:
            visited = range(first, last + 1)
            bound = (last + 1) * _WHEEL_SLOT_NS
        for slot in visited:
            bucket = wheel[slot % slots]
            if not bucket:
                continue
            keep = []
            for timer in bucket:
                if not timer.alive:
                    continue
                deadline = timer.deadline
                if deadline < limit:
                    heappush(due, (deadline, timer.seq, timer))
                else:
                    keep.append(timer)
                    if deadline < bound:
                        bound = deadline
            bucket[:] = keep
        self._wheel_cursor = last
        return bound

    def _pop_next(self, horizon: int) -> _Item | None:
        """Slow path of :meth:`run`: take the next item in global order.

        Compares the calendar head with the earliest live timer by the
        shared ``(time, seq)`` key, removes the winner and returns it as
        ``(time, callback, args)``; returns None when nothing is left at
        or before ``horizon``.  Either way it leaves ``_timer_bound`` as
        tight as what it just learned allows: the earliest of the due
        heap's top, the wheel bound the sweep returned, and just past
        the horizon — so that the fast path's one comparison also ends
        the run there.
        """
        queue = self._queue
        due = self._due
        heappop = heapq.heappop
        while True:
            # Timers matter up to the calendar head (ties included) or
            # the horizon.  With neither, look one revolution past the
            # bound: each pass finds the earliest timer or raises the
            # bound by a revolution, so the search terminates.
            if queue:
                limit = min(queue[0][0], horizon) + 1
            elif horizon != _NEVER:
                limit = horizon + 1
            elif self._live_timers:
                limit = self._timer_bound + self._wheel_slots * _WHEEL_SLOT_NS
            else:
                return None
            bound = self._timer_bound
            if bound < limit:
                bound = self._sweep_wheel(limit)
            while due and not due[0][2].alive:
                heappop(due)
            item: _Item | None = None
            if due and (not queue or due[0][:2] < queue[0][:2]):
                if due[0][0] <= horizon:
                    deadline, _seq, timer = heappop(due)
                    timer.alive = False
                    self._live_timers -= 1
                    item = deadline, timer.callback, timer.args
            elif queue and queue[0][0] <= horizon:
                at, _seq, callback, args = heappop(queue)
                item = at, callback, args
            self._timer_bound = min(bound, horizon + 1,
                                    due[0][0] if due else _NEVER)
            if item is not None or queue or horizon != _NEVER:
                return item

    def stop(self) -> None:
        """Stop the run loop after the current event finishes.

        Dropping the timer bound below every event time sends the next
        event down the run loop's slow path, which is where the flag is
        looked at; the first sweep of the next run restores the bound.
        """
        self._stopped = True
        self._timer_bound = -1

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events in time order.

        Args:
            until: stop once the next event is strictly later than this
                time (the clock is left at ``until``).
            max_events: safety valve; stop after this many events.

        Returns:
            The simulation time when the run loop exited.  With
            ``until`` that is ``until`` itself unless :meth:`stop` or
            ``max_events`` ended the run with something still pending.

        The fast path is one comparison per event: pop the calendar
        head and, if it is earlier than the timer bound, it precedes
        every live timer — set the clock and call it.  Everything else
        happens only when that test fails: the event is pushed back
        (its ``(time, seq)`` key is unique, so the heap order is
        restored exactly) and :meth:`_pop_next` merges calendar and
        timers.  ``stop()`` and ``until`` fail the test by lowering the
        bound, and ``max_events`` is the length of the loop's range, so
        none of the three costs anything per event.

        The loop runs under :func:`collector_paused`: per-event garbage
        (calendar tuples, expired packets) is reference-counted away at
        once, so the cyclic collector's scans would only add latency.
        """
        self._stopped = False
        # Bind the loop's hot names to locals: each lookup saved here is
        # saved once per simulated event.
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        horizon = _NEVER if until is None else until
        processed = self._events_processed
        budget_end = _NEVER if max_events is None else processed + max_events
        drained = False
        if self._timer_bound > horizon:
            self._timer_bound = horizon + 1
        with collector_paused():
            try:
                # One iteration per executed event; ``processed`` counts
                # the events executed before the current one.
                for processed in range(processed, budget_end):
                    if queue:
                        head = heappop(queue)
                        at = head[0]
                        if at < self._timer_bound:
                            self._now = at
                            head[2](*head[3])
                            continue
                        heappush(queue, head)
                    if self._stopped:
                        break
                    item = self._pop_next(horizon)
                    if item is None:
                        drained = True
                        break
                    self._now = item[0]
                    item[1](*item[2])
                else:
                    processed = budget_end
            finally:
                self._events_processed = processed
        if until is not None and self._now < until \
                and (drained or not self.pending_events):
            self._now = until
        return self._now
