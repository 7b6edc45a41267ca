"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: a binary heap of
``(time, sequence, callback, argument)`` tuples, an integer-nanosecond
clock, and a run loop.  Integer time avoids floating-point drift when
summing many small per-hop delays, which matters because the paper's
latency budget is built from 1 microsecond propagation delays and
sub-microsecond serialization times.

Cancellable timers (retransmission timeouts, health probes) sit on a
second heap beside the calendar, of ``(deadline, sequence, timer)``
entries, as ns-3 keeps a timer on its one scheduler: cancelling one
only clears its ``alive`` flag, and the dead entry is dropped when it
reaches the top, or sooner, when dead entries come to outnumber live
ones and the cancel rebuilds the heap from the live timers.  A
transport re-arms its RTO on every ACK, to a deadline no earlier than
the one armed; :meth:`Engine.rearm_timer` moves such a timer in place,
and its entry is re-pushed under the new key only if it comes to the
top first.  Live timers fire in exact ``(time, sequence)`` order
relative to calendar events, keeping runs bit-deterministic.

The two heaps meet in one number, the *timer bound*: a lower bound on
the deadline of every live timer (the key of the timer heap's top).  A
calendar event earlier than the bound runs without looking at the timer
heap at all; only an event at or past it takes the run loop's slow
path, which cleans the top of the timer heap and merges the two.

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

#: "No such time": the timer bound while the timer heap is empty, and
#: the run horizon / event budget when ``run`` is given none.
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

    ``deadline``/``seq`` form the same ordering key calendar events use,
    so a fired timer interleaves with same-time events exactly as if it
    had been a calendar event.  :meth:`Engine.rearm_timer` may move both
    forward while the timer's heap entry still carries the old key.
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

    Every live timer has exactly one entry on the timer heap, whose key
    is never later than the timer's own ``(deadline, seq)``: equal when
    armed, earlier once :meth:`rearm_timer` has moved the timer in place.
    Invariant the run loop rests on: ``_timer_bound`` is never later than
    the key of the timer heap's top entry, hence than the deadline of any
    live timer; with no entry it is ``_NEVER``.  Anyone may lower it —
    :meth:`schedule_timer` for a new earliest deadline, :meth:`stop` and
    ``run(until=...)`` to end a run — and a bound that is too low only
    costs a pass through the slow path.  Only the slow path of
    :meth:`run` raises it, to the key of the top entry it has just
    cleaned.  A calendar event strictly earlier than the bound therefore
    precedes every timer and may run without consulting the timer heap
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

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._now = 0
        self._events_processed = 0
        self._stopped = False
        #: Heap of ``(deadline, seq, timer)``, one entry per armed timer
        #: until it fires or its cancelled entry reaches the top or is
        #: compacted away by :meth:`cancel_timer`.
        self._timers: list[tuple[int, int, Timer]] = []
        self._live_timers = 0
        #: Lower bound on every live timer's deadline (class docstring).
        self._timer_bound = _NEVER

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
        for _key, _seq, timer in self._timers:
            if timer.alive:
                yield timer.deadline, timer.callback, timer.args

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

    def reserve(self, count: int) -> int:
        """Draw ``count`` consecutive sequence numbers; return the first.

        An entry ``(at, seq, callback, args)`` pushed onto the calendar
        later under a reserved ``seq`` (``at`` no earlier than the clock
        then) runs exactly where :meth:`schedule` would have run it,
        had that been called now: after the same-time events scheduled
        before this call, before those scheduled after it.  The traffic
        player feeds a batch's flow starts this way, one at a time.
        """
        seq = self._sequence
        self._sequence = seq + count
        return seq

    # ------------------------------------------------------------------
    # cancellable timers
    # ------------------------------------------------------------------
    def schedule_timer(self, delay: int, callback: Callable[..., None],
                       *args: Any) -> Timer:
        """Arm a cancellable timer ``delay`` ns from now.

        Returns a :class:`Timer` handle for :meth:`cancel_timer` and
        :meth:`rearm_timer`.  Use this for timers that are usually
        cancelled or re-armed before firing (retransmission timeouts,
        probe timers).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        deadline = self._now + delay
        seq = self._sequence
        self._sequence = seq + 1
        timer = Timer(deadline, seq, callback, args)
        heapq.heappush(self._timers, (deadline, seq, timer))
        if deadline < self._timer_bound:
            self._timer_bound = deadline
        self._live_timers += 1
        return timer

    def cancel_timer(self, timer: Timer | None) -> None:
        """Disarm ``timer``; a no-op for None, fired or cancelled timers.

        Its heap entry stays until it reaches the top, where the slow
        path of :meth:`run` drops it; the timer bound stays a valid (if
        no longer tight) lower bound meanwhile.  Once dead entries
        outnumber live ones (the heap holds more than ``2 * live + 64``),
        the heap is rebuilt in place from the live timers under their
        true keys: no key falls below the bound, so nothing fires in
        another order, and the rebuild is paid for by the cancels that
        filled the heap.
        """
        if timer is not None and timer.alive:
            timer.alive = False
            live = self._live_timers - 1
            self._live_timers = live
            timers = self._timers
            if len(timers) > 2 * live + 64:
                timers[:] = [(armed.deadline, armed.seq, armed)
                             for _key, _seq, armed in timers if armed.alive]
                heapq.heapify(timers)

    def rearm_timer(self, timer: Timer | None, delay: int,
                    callback: Callable[..., None], *args: Any) -> Timer:
        """``cancel_timer(timer)`` then ``schedule_timer(delay, ...)``.

        Same effect, same sequence number drawn, same handle semantics
        (use the one returned).  When ``timer`` is live and the new
        deadline is not earlier than its current one, it is moved in
        place: its heap entry keeps the old key, which is still a lower
        bound on the new one, and the slow path of :meth:`run` re-pushes
        it under the true key if it reaches the top before firing.  A
        transport's per-ACK RTO re-arm thus pushes nothing.
        """
        deadline = self._now + delay
        if timer is None or not timer.alive or deadline < timer.deadline:
            self.cancel_timer(timer)
            return self.schedule_timer(delay, callback, *args)
        timer.deadline = deadline
        timer.seq = self._sequence
        self._sequence += 1
        timer.callback = callback
        timer.args = args
        return timer

    def _pop_next(self, horizon: int) -> _Item | None:
        """Slow path of :meth:`run`: take the next item in global order.

        First cleans the top of the timer heap — drops cancelled
        entries and re-pushes moved ones under their timer's true key —
        then compares it with the calendar head by the shared
        ``(time, seq)`` key, removes the winner and returns it as
        ``(time, callback, args)``; returns None when nothing is left at
        or before ``horizon``.  Either way it leaves ``_timer_bound`` at
        the top entry's key or just past the horizon, whichever is
        earlier, so that the fast path's one comparison also ends the
        run there.
        """
        queue = self._queue
        timers = self._timers
        while timers:
            _key, seq, timer = timers[0]
            if not timer.alive:
                heapq.heappop(timers)
            elif seq != timer.seq:
                heapq.heapreplace(timers, (timer.deadline, timer.seq, timer))
            else:
                break
        item: _Item | None = None
        if timers and (not queue or timers[0][:2] < queue[0][:2]):
            if timers[0][0] <= horizon:
                deadline, _seq, timer = heapq.heappop(timers)
                timer.alive = False
                self._live_timers -= 1
                item = deadline, timer.callback, timer.args
        elif queue and queue[0][0] <= horizon:
            at, _seq, callback, args = heapq.heappop(queue)
            item = at, callback, args
        self._timer_bound = min(horizon + 1,
                                timers[0][0] if timers else _NEVER)
        return item

    def stop(self) -> None:
        """Stop the run loop after the current event finishes.

        Dropping the timer bound below every event time sends the next
        event down the run loop's slow path, which is where the flag is
        looked at; the next pass through the slow path restores the
        bound.
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
