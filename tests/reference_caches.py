"""Reference models for the cache differential tests.

These are the two cache implementations (and their hand-mirrored
``_Observed*`` twins) that ``repro.cache.core.SwitchCache`` replaced,
kept here verbatim: ``DirectMappedCache`` was ``repro/cache/
direct_mapped.py`` and ``SetAssociativeCache`` (``OrderedDict``-backed
LRU) was ``repro/cache/set_associative.py``.  ``tests/
test_cache_differential.py`` drives random operation sequences through
a reference and the core and compares every return value, the
contents, every counter and the sequence of observer firings.  Not
imported by anything under ``src/``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from typing import NamedTuple

_EMPTY = -1
_MIX = 2654435761  # Knuth multiplicative hash constant.


class InsertResult(NamedTuple):
    """Outcome of an insert attempt.

    Attributes:
        admitted: whether the entry now resides in the cache.
        evicted: the ``(vip, pip)`` pair displaced by the insert, if
            any — the spillover mechanism forwards it downstream.
    """

    admitted: bool
    evicted: tuple[int, int] | None


#: Shared results for the two allocation-free outcomes.  Inserts run on
#: every switch hop of every packet, and only evictions carry payload,
#: so the common paths reuse these singletons instead of allocating.
_ADMITTED = InsertResult(True, None)
_REJECTED = InsertResult(False, None)


class CacheStats:
    """Operation counters for one cache instance."""

    __slots__ = ("lookups", "hits", "insertions", "evictions", "rejections",
                 "invalidations")

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self.invalidations = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class DirectMappedCache:
    """A fixed-size direct-mapped VIP -> PIP cache with access bits.

    Args:
        num_slots: number of cache lines; 0 creates a degenerate cache
            where every lookup misses and every insert is rejected
            (used when a switch's share of the aggregate cache budget
            rounds to nothing).
        salt: per-switch hash salt so co-located caches don't all
            conflict on the same VIPs.
    """

    __slots__ = ("num_slots", "salt", "_keys", "_values", "_abits", "stats",
                 "on_mutate")

    def __init__(self, num_slots: int, salt: int = 0) -> None:
        if num_slots < 0:
            raise ValueError(f"negative cache size: {num_slots}")
        self.num_slots = num_slots
        self.salt = salt
        self._keys = [_EMPTY] * num_slots
        self._values = [0] * num_slots
        self._abits = [0] * num_slots
        self.stats = CacheStats()
        #: Zero-arg observer fired on every *state* change — insert of
        #: a new key, eviction, invalidation, conflict access-bit clear
        #: — but not on idempotent refreshes (hit, value refresh,
        #: rejection).  Installed via :meth:`attach_observer`, which
        #: swaps the instance to the observed subclass; this base class
        #: never fires it, so pure-packet runs pay zero dispatch cost.
        self.on_mutate: Callable[[], None] | None = None

    def attach_observer(self, cb: Callable[[], None]) -> None:
        """Install ``cb`` as the mutation observer (hybrid fidelity).

        Swaps the instance to :class:`_ObservedDirectMappedCache`,
        whose data-plane overrides fire the callback on every state
        change.  The unobserved base class carries no observer
        branches at all — observation costs nothing until a scheduler
        actually asks for it.
        """
        self.on_mutate = cb
        self.__class__ = _ObservedDirectMappedCache

    def _slot(self, vip: int) -> int:
        return (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots

    # ------------------------------------------------------------------
    # data-plane primitives
    # ------------------------------------------------------------------
    # ``lookup``/``insert`` inline the ``_slot`` hash: both run on every
    # switch hop of every packet, so the method-call overhead is one of
    # the simulator's largest single line items.  The observed subclass
    # below duplicates these bodies with the notification added; keep
    # the two in sync when changing cache semantics.
    def lookup(self, vip: int) -> int | None:
        """Look up ``vip``; maintains the access bit (hit=set, miss=clear)."""
        stats = self.stats
        stats.lookups += 1
        if self.num_slots == 0:
            return None
        slot = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots
        key = self._keys[slot]
        if key == vip:
            self._abits[slot] = 1
            stats.hits += 1
            return self._values[slot]
        if key != _EMPTY:
            # The line was consulted and did not help: age it.
            abits = self._abits
            if abits[slot]:
                abits[slot] = 0
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        """Install a mapping.

        Args:
            only_if_clear: conservative admission (spine/core policy) —
                refuse to evict a line whose access bit is set.
        """
        if self.num_slots == 0:
            self.stats.rejections += 1
            return _REJECTED
        slot = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots
        keys = self._keys
        values = self._values
        key = keys[slot]
        if key == vip:
            values[slot] = pip
            return _ADMITTED
        stats = self.stats
        if key != _EMPTY:
            if only_if_clear and self._abits[slot] == 1:
                stats.rejections += 1
                return _REJECTED
            evicted = (key, values[slot])
            keys[slot] = vip
            values[slot] = pip
            self._abits[slot] = 0
            stats.insertions += 1
            stats.evictions += 1
            return InsertResult(True, evicted)
        keys[slot] = vip
        values[slot] = pip
        self._abits[slot] = 0
        stats.insertions += 1
        return _ADMITTED

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        """Remove ``vip`` from the cache.

        Args:
            stale_pip: if given, invalidate only when the cached value
                equals it — a fresher mapping already learned is kept
                (paper §3.3 misdelivery-tag semantics).
        """
        if self.num_slots == 0:
            return False
        slot = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots
        if self._keys[slot] != vip:
            return False
        if stale_pip is not None and self._values[slot] != stale_pip:
            return False
        self._keys[slot] = _EMPTY
        self._abits[slot] = 0
        self.stats.invalidations += 1
        return True

    def corrupt_entry(self, ordinal: int, bit: int) -> tuple[int, int, int] | None:
        """Flip ``bit`` of the value in the ``ordinal``-th occupied line.

        Models an SRAM soft error in a live register array (fault
        injection, never the data plane).  ``ordinal`` indexes occupied
        lines in slot order, modulo occupancy, so fault schedules stay
        valid whatever the cache holds.  Fires ``on_mutate`` — a bitflip
        is a silent state change the fluid path must escalate for.

        Returns:
            ``(vip, old_pip, new_pip)`` for the corrupted line, or None
            when the cache is empty (logged no-op).
        """
        occupied = [slot for slot, key in enumerate(self._keys) if key != _EMPTY]
        if not occupied:
            return None
        slot = occupied[ordinal % len(occupied)]
        old = self._values[slot]
        new = old ^ (1 << bit)
        self._values[slot] = new
        cb = self.on_mutate
        if cb is not None:
            cb()
        return (self._keys[slot], old, new)

    # ------------------------------------------------------------------
    # introspection (control plane / tests; does not touch access bits)
    # ------------------------------------------------------------------
    def peek(self, vip: int) -> int | None:
        """Read the cached value for ``vip`` without side effects."""
        if self.num_slots == 0:
            return None
        slot = self._slot(vip)
        if self._keys[slot] == vip:
            return self._values[slot]
        return None

    def access_bit(self, vip: int) -> int | None:
        """The access bit of ``vip``'s line, or None if not cached."""
        if self.num_slots == 0:
            return None
        slot = self._slot(vip)
        if self._keys[slot] == vip:
            return self._abits[slot]
        return None

    def occupancy(self) -> int:
        """Number of occupied lines."""
        return sum(1 for key in self._keys if key != _EMPTY)

    def entries(self) -> list[tuple[int, int, int]]:
        """All ``(vip, pip, access_bit)`` triples currently cached."""
        return [(key, self._values[slot], self._abits[slot])
                for slot, key in enumerate(self._keys) if key != _EMPTY]

    def clear(self) -> None:
        """Empty the cache (control-plane reset; stats are preserved)."""
        for slot in range(self.num_slots):
            self._keys[slot] = _EMPTY
            self._abits[slot] = 0

    def __len__(self) -> int:
        return self.occupancy()


class _ObservedDirectMappedCache(DirectMappedCache):
    """A direct-mapped cache with mutation observation wired in.

    Instances are never constructed directly: :meth:`attach_observer`
    swaps a live cache's ``__class__`` here (the empty ``__slots__``
    keeps the layouts identical), so only runs that installed an
    observer — hybrid fidelity — pay the callback branches.  The
    method bodies mirror the base class exactly, plus the ``on_mutate``
    firing on each observable state change; the W402 whole-program
    lint holds these overrides (not the base class) to the escalation
    contract.
    """

    __slots__ = ()

    def lookup(self, vip: int) -> int | None:
        """Observed :meth:`DirectMappedCache.lookup`."""
        stats = self.stats
        stats.lookups += 1
        if self.num_slots == 0:
            return None
        slot = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots
        key = self._keys[slot]
        if key == vip:
            self._abits[slot] = 1
            stats.hits += 1
            return self._values[slot]
        if key != _EMPTY:
            # The line was consulted and did not help: age it.
            abits = self._abits
            if abits[slot]:
                abits[slot] = 0
                cb = self.on_mutate
                if cb is not None:
                    cb()
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        """Observed :meth:`DirectMappedCache.insert`."""
        if self.num_slots == 0:
            self.stats.rejections += 1
            return _REJECTED
        slot = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots
        keys = self._keys
        values = self._values
        key = keys[slot]
        if key == vip:
            values[slot] = pip
            return _ADMITTED
        stats = self.stats
        if key != _EMPTY:
            if only_if_clear and self._abits[slot] == 1:
                stats.rejections += 1
                return _REJECTED
            evicted = (key, values[slot])
            keys[slot] = vip
            values[slot] = pip
            self._abits[slot] = 0
            stats.insertions += 1
            stats.evictions += 1
            cb = self.on_mutate
            if cb is not None:
                cb()
            return InsertResult(True, evicted)
        keys[slot] = vip
        values[slot] = pip
        self._abits[slot] = 0
        stats.insertions += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return _ADMITTED

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        """Observed :meth:`DirectMappedCache.invalidate`."""
        if self.num_slots == 0:
            return False
        slot = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_slots
        if self._keys[slot] != vip:
            return False
        if stale_pip is not None and self._values[slot] != stale_pip:
            return False
        self._keys[slot] = _EMPTY
        self._abits[slot] = 0
        self.stats.invalidations += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return True


class SetAssociativeCache:
    """An N-way set-associative VIP -> PIP cache with per-entry A bits.

    Args:
        num_slots: total entries (sets = num_slots // ways; a remainder
            is dropped, matching how a hardware layout would round).
        ways: associativity; 1 behaves like a direct-mapped cache with
            LRU == the single line.
        salt: per-switch hash salt.
    """

    __slots__ = ("num_slots", "ways", "num_sets", "salt", "_sets", "stats",
                 "on_mutate")

    def __init__(self, num_slots: int, ways: int = 2, salt: int = 0) -> None:
        if num_slots < 0:
            raise ValueError(f"negative cache size: {num_slots}")
        if ways < 1:
            raise ValueError(f"associativity must be >= 1, got {ways}")
        self.ways = ways
        self.num_sets = num_slots // ways
        self.num_slots = self.num_sets * ways
        self.salt = salt
        # Each set maps vip -> [pip, abit] in LRU order (oldest first).
        self._sets: list[OrderedDict[int, list[int]]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()
        #: zero-argument observer fired on observable state changes
        #: (see the module docstring); installed via
        #: :meth:`attach_observer`, never fired by this base class.
        self.on_mutate: Callable[[], None] | None = None

    def attach_observer(self, cb: Callable[[], None]) -> None:
        """Install ``cb`` as the mutation observer (hybrid fidelity).

        Swaps the instance to :class:`_ObservedSetAssociativeCache`;
        the unobserved base class carries no observer branches.
        """
        self.on_mutate = cb
        self.__class__ = _ObservedSetAssociativeCache

    def _set_of(self, vip: int) -> OrderedDict[int, list[int]]:
        index = (((vip ^ self.salt) * _MIX) & 0xFFFFFFFF) % self.num_sets
        return self._sets[index]

    # ------------------------------------------------------------------
    # The observed subclass below duplicates these bodies with the
    # notification added; keep the two in sync.
    def lookup(self, vip: int) -> int | None:
        self.stats.lookups += 1
        if self.num_sets == 0:
            return None
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is not None:
            entry[1] = 1
            entries.move_to_end(vip)
            self.stats.hits += 1
            return entry[0]
        if len(entries) >= self.ways:
            # Age the LRU entry under conflict pressure.
            oldest = next(iter(entries))
            if entries[oldest][1]:
                entries[oldest][1] = 0
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        if self.num_sets == 0:
            self.stats.rejections += 1
            return InsertResult(False, None)
        entries = self._set_of(vip)
        if vip in entries:
            entries[vip][0] = pip
            entries.move_to_end(vip)
            return InsertResult(True, None)
        if len(entries) < self.ways:
            entries[vip] = [pip, 0]
            self.stats.insertions += 1
            return InsertResult(True, None)
        victim = self._pick_victim(entries, only_if_clear)
        if victim is None:
            self.stats.rejections += 1
            return InsertResult(False, None)
        evicted = (victim, entries[victim][0])
        del entries[victim]
        entries[vip] = [pip, 0]
        self.stats.insertions += 1
        self.stats.evictions += 1
        return InsertResult(True, evicted)

    def _pick_victim(self, entries: OrderedDict[int, list[int]],
                     only_if_clear: bool) -> int | None:
        if only_if_clear:
            for vip, entry in entries.items():  # LRU order
                if entry[1] == 0:
                    return vip
            return None
        return next(iter(entries))

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        if self.num_sets == 0:
            return False
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is None:
            return False
        if stale_pip is not None and entry[0] != stale_pip:
            return False
        del entries[vip]
        self.stats.invalidations += 1
        return True

    def corrupt_entry(self, ordinal: int, bit: int) -> tuple[int, int, int] | None:
        """Flip ``bit`` of the value in the ``ordinal``-th occupied entry.

        SRAM soft-error injection; see
        :meth:`repro.cache.direct_mapped.DirectMappedCache.corrupt_entry`.
        Entries are enumerated set by set (LRU order within a set),
        modulo occupancy.  Fires ``on_mutate`` when an observer is
        attached; does not touch LRU position or access bits.

        Returns:
            ``(vip, old_pip, new_pip)``, or None on an empty cache.
        """
        occupied = [(entries, vip) for entries in self._sets for vip in entries]
        if not occupied:
            return None
        entries, vip = occupied[ordinal % len(occupied)]
        entry = entries[vip]
        old = entry[0]
        new = old ^ (1 << bit)
        entry[0] = new
        cb = self.on_mutate
        if cb is not None:
            cb()
        return (vip, old, new)

    # ------------------------------------------------------------------
    def peek(self, vip: int) -> int | None:
        if self.num_sets == 0:
            return None
        entry = self._set_of(vip).get(vip)
        return None if entry is None else entry[0]

    def access_bit(self, vip: int) -> int | None:
        if self.num_sets == 0:
            return None
        entry = self._set_of(vip).get(vip)
        return None if entry is None else entry[1]

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def entries(self) -> list[tuple[int, int, int]]:
        out = []
        for entries in self._sets:
            for vip, (pip, abit) in entries.items():
                out.append((vip, pip, abit))
        return out

    def clear(self) -> None:
        for entries in self._sets:
            entries.clear()

    def __len__(self) -> int:
        return self.occupancy()


class _ObservedSetAssociativeCache(SetAssociativeCache):
    """A set-associative cache with mutation observation wired in.

    Never constructed directly: :meth:`attach_observer` swaps a live
    cache's ``__class__`` here (empty ``__slots__`` keeps the layouts
    identical).  The bodies mirror the base class plus the
    ``on_mutate`` firing; W402 holds these overrides to the
    escalation contract.
    """

    __slots__ = ()

    def lookup(self, vip: int) -> int | None:
        """Observed :meth:`SetAssociativeCache.lookup`."""
        self.stats.lookups += 1
        if self.num_sets == 0:
            return None
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is not None:
            entry[1] = 1
            entries.move_to_end(vip)
            self.stats.hits += 1
            return entry[0]
        if len(entries) >= self.ways:
            # Age the LRU entry under conflict pressure.
            oldest = next(iter(entries))
            if entries[oldest][1]:
                entries[oldest][1] = 0
                cb = self.on_mutate
                if cb is not None:
                    cb()
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        """Observed :meth:`SetAssociativeCache.insert`."""
        if self.num_sets == 0:
            self.stats.rejections += 1
            return InsertResult(False, None)
        entries = self._set_of(vip)
        if vip in entries:
            entries[vip][0] = pip
            entries.move_to_end(vip)
            return InsertResult(True, None)
        if len(entries) < self.ways:
            entries[vip] = [pip, 0]
            self.stats.insertions += 1
            cb = self.on_mutate
            if cb is not None:
                cb()
            return InsertResult(True, None)
        victim = self._pick_victim(entries, only_if_clear)
        if victim is None:
            self.stats.rejections += 1
            return InsertResult(False, None)
        evicted = (victim, entries[victim][0])
        del entries[victim]
        entries[vip] = [pip, 0]
        self.stats.insertions += 1
        self.stats.evictions += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return InsertResult(True, evicted)

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        """Observed :meth:`SetAssociativeCache.invalidate`."""
        if self.num_sets == 0:
            return False
        entries = self._set_of(vip)
        entry = entries.get(vip)
        if entry is None:
            return False
        if stale_pip is not None and entry[0] != stale_pip:
            return False
        del entries[vip]
        self.stats.invalidations += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return True
