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
running slot or an earlier one (after a run that ended before the
running bucket's head) is inserted in order into the running bucket,
ahead of the read position.  A bucket holds about one link
propagation delay, so nearly every hop lands in a later bucket than
the one being run.

A cancellable timer (retransmission timeouts, health probes) is one
calendar entry, ``(deadline, sequence, timer, ())``, as ns-3 keeps a
timer as an ordinary event on its one scheduler: the :class:`Timer`
is the entry's callback.  Cancelling one removes its entry.  A
transport re-arms its RTO on every ACK, to a deadline no earlier than
the one armed; :meth:`Engine.rearm_timer` moves such a timer in place,
and when the run loop reaches its entry, still under the old key, the
timer re-pushes itself under the new one instead of firing.  Timers
thus fire in exact ``(time, sequence)`` order relative to other
events, keeping runs bit-deterministic, and the run loop knows nothing
of them.

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

#: "No such time": the run horizon when ``run`` is given none.
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
    it in order.  The pushed key is later than that of the entry being
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

    A live timer has exactly one calendar entry, :attr:`entry`, whose
    callback is the timer itself; a fired or cancelled one has none.
    ``deadline``/``seq`` form the same ordering key calendar events use,
    so a timer fires among same-time events exactly as if it had been a
    calendar event.  :meth:`Engine.rearm_timer` may move both later
    while the entry still carries the old key.
    """

    __slots__ = ("engine", "deadline", "seq", "callback", "args", "entry")

    entry: _Entry | None

    def __init__(self, engine: Engine, deadline: int, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.engine = engine
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.args = args
        self.entry = entry = (deadline, seq, self, ())
        engine._push(entry)

    def __call__(self) -> None:
        """Run as the entry's callback: fire, or, when the timer was
        moved in place, push its entry again under the true key.  The
        re-push is no event, so it is taken off the count."""
        engine = self.engine
        # Run only through its entry, so the entry is there.
        if self.entry[1] == self.seq:  # type: ignore[index]
            self.entry = None
            engine._armed -= 1
            self.callback(*self.args)
        else:
            self.entry = entry = (self.deadline, self.seq, self, ())
            engine._push(entry)
            engine._events_processed -= 1


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

    Every live timer has exactly one calendar entry and a cancelled or
    fired one has none.  The entry's key is never later than the timer's
    own ``(deadline, seq)``: equal when armed, earlier once
    :meth:`rearm_timer` has moved the timer in place.

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
        #: Live timers: armed, not yet fired or cancelled.
        self._armed = 0
        #: An entry at or past it ends the run: just past ``until``, or
        #: -1 once :meth:`stop` is called.
        self._bound = _NEVER

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
        """Number of events still waiting, live timers included."""
        return length_hint(self._reader) + sum(map(len, self._buckets.values()))

    @property
    def pending_timers(self) -> int:
        """Number of armed (not cancelled, not fired) timers."""
        return self._armed

    def iter_pending(self) -> Iterator[_Item]:
        """Yield ``(time, callback, args)`` for everything still waiting.

        Covers calendar events and live timers (:attr:`pending_events`
        items in all), in no particular order.  Read-only: meant for
        oracles and debugging that need to see what is in flight
        without depending on how the calendar is laid out.
        """
        for at, _seq, callback, args in self._pending():
            if isinstance(callback, Timer):
                yield callback.deadline, callback.callback, callback.args
            else:
                yield at, callback, args

    def _pending(self) -> Iterator[_Entry]:
        """Every pending calendar entry, in no particular order."""
        entries = self._buckets.running.entries
        yield from entries[len(entries) - length_hint(self._reader):]
        for bucket in self._buckets.values():
            yield from bucket

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
        timers = [entry for entry in self._pending()
                  if isinstance(entry[2], Timer)]
        self._drop_read()
        buckets = self._buckets
        buckets.clear()
        buckets.slots.clear()
        buckets.running.entries.clear()
        for entry in timers:
            self._push(entry)

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
        seq = self._sequence
        self._sequence = seq + 1
        self._armed += 1
        return Timer(self, self._now + delay, seq, callback, args)

    def cancel_timer(self, timer: Timer | None) -> None:
        """Disarm ``timer``; a no-op for None, fired or cancelled timers.

        Removes its calendar entry, from the bucket of its slot or, for
        a slot not past the running one, from the running bucket, ahead
        of the read position.  A cancelled timer holds nothing then, and
        leaves no entry behind to move the clock when it is reached.
        """
        if timer is not None and timer.entry is not None:
            entry = timer.entry
            timer.entry = None
            self._armed -= 1
            buckets = self._buckets
            buckets.get(entry[0] >> BUCKET_SHIFT,
                        buckets.running.entries).remove(entry)

    def rearm_timer(self, timer: Timer | None, delay: int,
                    callback: Callable[..., None], *args: Any) -> Timer:
        """``cancel_timer(timer)`` then ``schedule_timer(delay, ...)``.

        Same effect, same sequence number drawn, same handle semantics
        (use the one returned).  When ``timer`` is live and the new
        deadline is not earlier than its current one, it is moved in
        place: its calendar entry keeps the old key, which is still no
        later than the new one, and the timer re-pushes it under the
        true key when the run loop reaches it.  A transport's per-ACK
        RTO re-arm thus pushes nothing.
        """
        deadline = self._now + delay
        if timer is None or timer.entry is None or deadline < timer.deadline:
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

    def stop(self) -> None:
        """Stop the run loop after the current event finishes.

        Drops the bound below every time, so the run loop's one
        comparison fails at the next entry and ends the run there.
        """
        self._bound = -1

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

        The loop is a ``for`` over the running bucket's reader and one
        comparison per event: an entry earlier than ``_bound`` runs —
        set the clock and call it.  The reader sees the entries inserted
        ahead of it while the bucket runs.  When the bucket is used up
        the loop opens the next one and goes on.  An entry at or past
        the bound is read again (the reader is moved back one) and ends
        the run: ``until`` puts the bound just past itself and
        :meth:`stop` below every time, and ``max_events`` bounds the
        loop by ``islice`` (the reader alone otherwise), so none of the
        three costs anything per event.  The reader's position counts
        the events run.  An event whose callback raises has been read:
        it is not run again, nor counted.

        The loop runs under :func:`collector_paused`: per-event garbage
        (calendar tuples, expired packets) is reference-counted away at
        once, so the cyclic collector's scans would only add latency.
        """
        until_bound = _NEVER if until is None else until + 1
        self._bound = until_bound
        budget_end = 0 if max_events is None \
            else self.events_processed + max_events
        drained = False
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
                            if at < self._bound:
                                self._now = at
                                callback(*args)
                                continue
                            # Past ``until``, or stopped: leave it pending.
                            entries = self._buckets.running.entries
                            reader.__setstate__(
                                len(entries) - length_hint(reader) - 1)
                            drained = self._bound == until_bound
                            break
                        else:
                            if length_hint(reader) or self._open_next():
                                continue  # max_events, or the next bucket
                            drained = True
                    except BaseException:
                        # Raised by the callback of an event already read.
                        self._events_processed -= 1
                        raise
                    break
            finally:
                self._drop_read()
        if until is not None and self._now < until \
                and (drained or not self.pending_events):
            self._now = until
        return self._now
