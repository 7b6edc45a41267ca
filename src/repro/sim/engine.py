"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: a calendar of
``(time, sequence, callback, argument)`` tuples, an integer-nanosecond
clock, and a run loop.  Integer time avoids floating-point drift when
summing many small per-hop delays, which matters because the paper's
latency budget is built from 1 microsecond propagation delays and
sub-microsecond serialization times.

The calendar is a calendar queue (Brown, CACM 1988) with one fixed
bucket width, ``1 << BUCKET_SHIFT`` ns.  A dict maps a *slot*,
``time >> BUCKET_SHIFT``, to the unsorted list of the entries in it,
and a small heap holds the open slots; a push is one append.  The
earliest bucket is sorted once, by the unique ``(time, sequence)``
keys, when it becomes the *running* bucket, which the run loop reads
with a list iterator and drops when it is used up.  A push into the
running slot or an earlier one (after a timer fired before the running
bucket's head) is inserted in order into the running bucket, ahead of
the read position.  A bucket holds about one link propagation delay,
so nearly every hop lands in a later bucket than the one being run.

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

Calendar and timer heap meet in one number, the *timer bound*: a lower
bound on the deadline of every live timer (the key of the timer heap's
top).  A calendar event earlier than the bound runs without looking at
the timer heap at all; only an event at or past it takes the run loop's
slow path, which cleans the top of the timer heap and merges the two.

The engine is deliberately minimal; all protocol behaviour lives in the
network objects (:mod:`repro.net`, :mod:`repro.vnet`, :mod:`repro.core`)
that schedule events on it.
"""

from __future__ import annotations

import gc
import heapq
from bisect import insort
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter, length_hint
from typing import Any, Protocol, cast

# Unit helpers: all simulation timestamps are integers in nanoseconds.
NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

#: "No such time": the timer bound while the timer heap is empty, and
#: the run horizon when ``run`` is given none.
_NEVER = 1 << 62

#: log2 of the calendar's bucket width: a bucket holds 1 024 ns of
#: events, about one link propagation delay.
BUCKET_SHIFT = 10

#: A calendar entry, ``(time, seq, callback, args)``.  Its ``(time, seq)``
#: key is unique, so ordering entries never compares a callback.
_Entry = tuple[int, int, Callable[..., None], tuple]

#: Sort keys of a calendar entry.
_TIME = itemgetter(0)
_SEQ = itemgetter(1)

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


class _Running:
    """The running bucket: its entries, sorted, and its slot.

    Every slot up to :attr:`slot` belongs to it (the dict holds only
    later ones), so a push there lands here and :meth:`append` inserts
    it in order.  The pushed key is later than that of the event being
    run, so the entry lands ahead of the run loop's read position.
    """

    __slots__ = ("entries", "slot")

    def __init__(self) -> None:
        self.entries: list[_Entry] = []
        self.slot = -1

    def append(self, entry: _Entry) -> None:
        insort(self.entries, entry)


class _Buckets(dict[int, list[_Entry]]):
    """The calendar: the open buckets by slot, their slots as a heap,
    and the running bucket.

    ``buckets[at >> BUCKET_SHIFT].append(entry)`` is a whole push.  A
    slot with no bucket yet reaches :meth:`__missing__`, which opens one
    for a slot past the running one and otherwise hands back the running
    bucket, which inserts in order.
    """

    __slots__ = ("slots", "running")

    def __init__(self) -> None:
        super().__init__()
        self.slots: list[int] = []
        self.running = _Running()

    def __missing__(self, slot: int) -> list[_Entry] | _Running:
        running = self.running
        if slot <= running.slot:
            return running
        bucket: list[_Entry] = []
        self[slot] = bucket
        heapq.heappush(self.slots, slot)
        return bucket


class _Reader(Protocol):
    """A list iterator over the running bucket's entries: its read
    position.  ``length_hint`` gives the entries still to read (0 once
    it is exhausted) and ``__setstate__`` moves the position."""

    def __iter__(self) -> Iterator[_Entry]: ...

    def __next__(self) -> _Entry: ...

    def __setstate__(self, index: int) -> None: ...


def _reader(entries: list[_Entry]) -> _Reader:
    return cast(_Reader, iter(entries))


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

    The calendar (module docstring) is read through ``_reader``, a list
    iterator over the running bucket: the entries before its position
    have run, and the ones from it on are pending.  Between runs the
    entries already read are dropped, so the running bucket holds only
    pending ones.

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
        #: The calendar; the per-hop pushers index it themselves.
        self._buckets = _Buckets()
        self._reader = _reader(self._buckets.running.entries)
        self._sequence = 0
        self._now = 0
        #: Events run, less those the running bucket's reader has read
        #: (:attr:`events_processed` adds them).
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
        entries = self._buckets.running.entries
        return self._events_processed + len(entries) - length_hint(self._reader)

    @property
    def pending_events(self) -> int:
        """Number of events still waiting (calendar + live timers)."""
        return (length_hint(self._reader) + sum(map(len, self._buckets.values()))
                + self._live_timers)

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
        entries = self._buckets.running.entries
        pending = entries[len(entries) - length_hint(self._reader):]
        for bucket in (pending, *self._buckets.values()):
            for at, _seq, callback, args in bucket:
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
        self._buckets[at >> BUCKET_SHIFT].append(
            (at, self._sequence, callback, args))
        self._sequence += 1

    def schedule_after(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        A non-negative delay from ``now`` can never land in the past,
        so this pushes straight onto the calendar without the past-time
        check :meth:`schedule` performs.  (Links and ``Switch.receive``,
        the per-packet hot path, push onto the calendar themselves.)
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        at = self._now + delay
        self._buckets[at >> BUCKET_SHIFT].append(
            (at, self._sequence, callback, args))
        self._sequence += 1

    def _push(self, entry: _Entry) -> None:
        """Put ``entry``, ``(at, seq, callback, args)``, on the calendar.

        For callers that build the entry themselves: ``at`` no earlier
        than the clock, ``seq`` drawn from ``_sequence`` or
        :meth:`reserve` and later than that of the event being run.
        """
        self._buckets[entry[0] >> BUCKET_SHIFT].append(entry)

    def discard_events(self) -> None:
        """Drop every pending calendar event; live timers stay armed.

        For tests that drive one component at a time and read what it
        put on the calendar through :meth:`iter_pending`.
        """
        self._drop_read()
        buckets = self._buckets
        buckets.clear()
        buckets.slots.clear()
        buckets.running.entries.clear()

    def reserve(self, count: int) -> int:
        """Draw ``count`` consecutive sequence numbers; return the first.

        An entry ``(at, seq, callback, args)`` put on the calendar later
        (:meth:`_push`) under a reserved ``seq`` (``at`` no earlier than
        the clock then) runs exactly where :meth:`schedule` would have run it,
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

    def _open_next(self) -> bool:
        """Drop the used-up running bucket and make the earliest open
        bucket the running one, sorted; False when none is open.

        With no bucket open the dict is emptied, which also releases
        the table it grew to at its busiest.
        """
        buckets = self._buckets
        running = buckets.running
        self._events_processed += len(running.entries)
        slots = buckets.slots
        opened = bool(slots)
        if opened:
            slot = heapq.heappop(slots)
            entries = buckets.pop(slot)
            # By (time, seq) as two sorts on int keys, the second stable:
            # about half the cost of one sort comparing the tuples.
            entries.sort(key=_SEQ)
            entries.sort(key=_TIME)
            running.slot = slot
        else:
            entries = []
            buckets.clear()
        running.entries = entries
        self._reader = _reader(entries)
        return opened

    def _drop_read(self) -> None:
        """Delete the running bucket's entries already read, so that
        what they hold is released, and read the rest from the front."""
        entries = self._buckets.running.entries
        read = len(entries) - length_hint(self._reader)
        if read:
            self._events_processed += read
            del entries[:read]
            self._reader = _reader(entries)

    def _pop_next(self, horizon: int) -> _Item | None:
        """Slow path of :meth:`run`: take the next item in global order.

        First cleans the top of the timer heap — drops cancelled
        entries and re-pushes moved ones under their timer's true key —
        then compares it with the calendar head (the running bucket's
        next entry: :meth:`run` calls this with the head there or with
        no bucket open) by the shared ``(time, seq)`` key, takes the
        winner and returns it as ``(time, callback, args)``; returns
        None when nothing is left at or before ``horizon``.  Either way
        it leaves ``_timer_bound`` at the top entry's key or just past
        the horizon, whichever is earlier, so that the fast path's one
        comparison also ends the run there.
        """
        timers = self._timers
        while timers:
            _key, seq, timer = timers[0]
            if not timer.alive:
                heapq.heappop(timers)
            elif seq != timer.seq:
                heapq.heapreplace(timers, (timer.deadline, timer.seq, timer))
            else:
                break
        reader = self._reader
        ahead = length_hint(reader)
        head: _Entry | None = None
        if ahead:
            entries = self._buckets.running.entries
            head = entries[len(entries) - ahead]
        item: _Item | None = None
        if timers and (head is None or timers[0][:2] < head[:2]):
            if timers[0][0] <= horizon:
                deadline, _seq, timer = heapq.heappop(timers)
                timer.alive = False
                self._live_timers -= 1
                self._events_processed += 1
                item = deadline, timer.callback, timer.args
        elif head is not None and head[0] <= horizon:
            next(reader)
            item = head[0], head[2], head[3]
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

        The fast path is a ``for`` loop over the running bucket's
        reader and one comparison per event: an entry earlier than the
        timer bound precedes every live timer — set the clock and call
        it.  The reader sees the entries inserted ahead of it while the
        bucket runs.  When the bucket is used up the loop opens the next
        one and goes on.  Everything else happens only when the test
        fails: the entry is read again (the reader is moved back one)
        and :meth:`_pop_next` merges calendar and timers.  ``stop()``
        and ``until`` fail the test by lowering the bound, and
        ``max_events`` bounds the loop by ``islice`` (the reader alone
        otherwise), so none of the three costs anything per event.  The
        reader's position counts the events run.  An event whose
        callback raises has been read: it is not run again, nor counted.

        The loop runs under :func:`collector_paused`: per-event garbage
        (calendar tuples, expired packets) is reference-counted away at
        once, so the cyclic collector's scans would only add latency.
        """
        self._stopped = False
        horizon = _NEVER if until is None else until
        budget_end = 0 if max_events is None \
            else self.events_processed + max_events
        drained = False
        if self._timer_bound > horizon:
            self._timer_bound = horizon + 1
        with collector_paused():
            try:
                while True:
                    reader = self._reader
                    if max_events is None:
                        events: Iterator[_Entry] = reader
                    else:
                        left = budget_end - self.events_processed
                        if left <= 0:
                            break
                        events = islice(reader, left)
                    try:
                        for at, _seq, callback, args in events:
                            if at < self._timer_bound:
                                self._now = at
                                callback(*args)
                                continue
                            # Read it again on the slow path.
                            entries = self._buckets.running.entries
                            reader.__setstate__(
                                len(entries) - length_hint(reader) - 1)
                            break
                        else:
                            if length_hint(reader) or self._open_next():
                                continue  # max_events, or the next bucket
                    except BaseException:
                        # Raised by the callback of an event already read.
                        self._events_processed -= 1
                        raise
                    if self._stopped or (max_events is not None
                                         and self.events_processed >= budget_end):
                        break
                    item = self._pop_next(horizon)
                    if item is None:
                        drained = True
                        break
                    self._now = item[0]
                    try:
                        item[1](*item[2])
                    except BaseException:
                        self._events_processed -= 1
                        raise
            finally:
                self._drop_read()
        if until is not None and self._now < until \
                and (drained or not self.pending_events):
            self._now = until
        return self._now
