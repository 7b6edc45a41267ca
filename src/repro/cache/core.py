"""The in-switch V2P cache: one set-indexed register-array core (paper §3.2).

Each switch holds parallel register arrays — keys (VIPs), values (PIPs)
and one *access bit* per line — the structure the P4 prototype
implements with three Tofino register arrays.  A ``ways``-way cache is
``ways`` such arrays read side by side (*Limited Associativity Caching
in the Data Plane*): a VIP hashes to one set of ``ways`` lines, laid
out here as one flat array indexed ``set * ways + way``.

* A hit sets the line's access bit and makes it the set's most
  recently used line.
* A miss that lands in a full set ages (clears the access bit of) the
  set's least recently used line — a one-bit recency signal without
  sketches.
* Conservative admission (``only_if_clear``) refuses to evict a line
  whose access bit is set, and an insert otherwise evicts the least
  recently used line it may.

``ways == 1`` is the paper's direct-mapped design (§3.2, citing Hill's
"A Case for Direct-Mapped Caches": one hash, one read-modify-write per
array, which is all a Tofino stage offers): the set is a single line,
so the scan, the recency stamps and the victim search all fall away.
That case is the simulator's per-hop hot path and gets its own three
method bodies (:class:`_DirectMapped`, picked at construction from
``ways`` and nothing else); every other method is shared.  ``ways > 1``
quantifies what the hardware constraint costs
(the ``ablation_cache_geometry`` entry of ``repro.experiments.artifacts``).

Admission is the caller's policy decision; the cache only exposes the
primitive operations.  Every *state* change — a new key, an eviction,
an invalidation, a conflict access-bit clear, ``clear`` and
``corrupt_entry`` — fires ``on_mutate`` when an observer is attached
(hybrid fidelity keys escalation on it); idempotent refreshes (hit,
value overwrite, rejection) stay silent.  The test sits on the
mutation branches only, so it is in these bodies rather than in a
second, observed copy of them; lint rule W402 holds each body that
writes ``_keys`` / ``_values`` / ``_abits`` to firing it itself.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

_EMPTY = -1
#: Knuth multiplicative hash constant of the line hash
#: ``((vip ^ salt) * HASH_MIX & 0xFFFFFFFF) % sets`` — public because
#: :meth:`SwitchCache.owner_lines` lets a holder compute it.  HASH_MIX %
#: 16 == 1: a power-of-two ``sets`` reads only the low log2 ``sets`` bits
#: of ``vip ^ salt``, and ``sets`` dividing 16 gives ``(vip ^ salt) % sets``.
HASH_MIX = 2654435761


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


class SwitchCache:
    """A fixed-size set-associative VIP -> PIP cache with access bits.

    Args:
        num_slots: total lines (sets = num_slots // ways; a remainder
            is dropped, matching how a hardware layout would round).
            0 creates a degenerate cache where every lookup misses and
            every insert is rejected (used when a switch's share of the
            aggregate cache budget rounds to nothing).
        ways: associativity; 1 is the direct-mapped hardware design
            and what every scheme builds.  The ``ways > 1`` path (flat
            arrays plus a recency stamp per line) costs ~45 % more per
            operation than the ``OrderedDict`` sets it replaced in PR 16,
            and only the ``ablation_cache_geometry`` artifact runs it.
        salt: per-switch hash salt so co-located caches don't all
            conflict on the same VIPs.
    """

    __slots__ = ("num_slots", "ways", "num_sets", "salt", "_keys", "_values",
                 "_abits", "_stamps", "_clock", "stats", "on_mutate")

    def __new__(cls, num_slots: int = 0, ways: int = 1, *,
                salt: int = 0) -> SwitchCache:
        if cls is SwitchCache and ways == 1:
            cls = _DirectMapped
        return super().__new__(cls)

    def __init__(self, num_slots: int, ways: int = 1, *,
                 salt: int = 0) -> None:
        if num_slots < 0:
            raise ValueError(f"negative cache size: {num_slots}")
        if ways < 1:
            raise ValueError(f"associativity must be >= 1, got {ways}")
        self.ways = ways
        self.num_sets = num_slots // ways
        self.num_slots = lines = self.num_sets * ways
        self.salt = salt
        # The arrays are never rebound (``clear`` empties them in
        # place): a switch hook may hold them, see ``owner_lines``.
        self._keys = [_EMPTY] * lines
        self._values = [0] * lines
        self._abits = [0] * lines
        #: Recency: the value of ``_clock`` when the line was last hit
        #: or written; a set's smallest stamp is its LRU line.  A
        #: one-line set has no order to keep.
        self._stamps = [] if isinstance(self, _DirectMapped) else [0] * lines
        self._clock = 0
        self.stats = CacheStats()
        #: Zero-arg observer fired on every state change (see the
        #: module docstring); None until :meth:`attach_observer`.
        self.on_mutate: Callable[[], None] | None = None

    def attach_observer(self, cb: Callable[[], None]) -> None:
        """Install ``cb`` as the mutation observer (hybrid fidelity)."""
        self.on_mutate = cb

    def _set_of(self, vip: int) -> int:
        """Index of the set ``vip`` hashes to (needs ``num_sets > 0``)."""
        return (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets

    def _find(self, vip: int) -> int:
        """The line holding ``vip``, or -1; no side effects."""
        if self.num_sets == 0:
            return -1
        ways = self.ways
        lo = (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets * ways
        window = self._keys[lo:lo + ways]
        return lo + window.index(vip) if vip in window else -1

    def _victim(self, lo: int, only_if_clear: bool) -> int:
        """The LRU line of the full set starting at ``lo``, or -1.

        Under conservative admission only lines with a clear access
        bit qualify.
        """
        hi = lo + self.ways
        stamps = self._stamps
        if not only_if_clear:
            window = stamps[lo:hi]
            return lo + window.index(min(window))
        abits = self._abits
        clear = [(stamps[slot], slot) for slot in range(lo, hi)
                 if not abits[slot]]
        return min(clear)[1] if clear else -1

    # ------------------------------------------------------------------
    # data-plane primitives (any ``ways``; ``_DirectMapped`` below
    # re-spells these three for a one-line set)
    # ------------------------------------------------------------------
    def lookup(self, vip: int) -> int | None:
        """Look up ``vip``; maintains the access bit (hit=set, miss=clear)."""
        stats = self.stats
        stats.lookups += 1
        if self.num_sets == 0:
            return None
        ways = self.ways
        lo = (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets * ways
        window = self._keys[lo:lo + ways]
        if vip in window:
            slot = lo + window.index(vip)
            self._abits[slot] = 1
            self._stamps[slot] = self._clock
            self._clock += 1
            stats.hits += 1
            return self._values[slot]
        if _EMPTY not in window:
            # The set was consulted and did not help: age its LRU line.
            oldest = self._victim(lo, False)
            if self._abits[oldest]:
                self._abits[oldest] = 0
                cb = self.on_mutate
                if cb is not None:
                    cb()
        return None

    def insert(self, vip: int, pip: int, only_if_clear: bool = False) -> InsertResult:
        """Install a mapping.

        Args:
            only_if_clear: conservative admission (spine/core policy) —
                refuse to evict a line whose access bit is set.
        """
        stats = self.stats
        if self.num_sets == 0:
            stats.rejections += 1
            return _REJECTED
        ways = self.ways
        lo = (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets * ways
        keys = self._keys
        values = self._values
        window = keys[lo:lo + ways]
        if vip in window:
            slot = lo + window.index(vip)
            values[slot] = pip
            self._stamps[slot] = self._clock
            self._clock += 1
            return _ADMITTED
        result = _ADMITTED
        if _EMPTY in window:
            slot = lo + window.index(_EMPTY)
        else:
            slot = self._victim(lo, only_if_clear)
            if slot < 0:
                stats.rejections += 1
                return _REJECTED
            result = InsertResult(True, (keys[slot], values[slot]))
            stats.evictions += 1
        keys[slot] = vip
        values[slot] = pip
        self._abits[slot] = 0
        self._stamps[slot] = self._clock
        self._clock += 1
        stats.insertions += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return result

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        """Remove ``vip`` from the cache.

        Args:
            stale_pip: if given, invalidate only when the cached value
                equals it — a fresher mapping already learned is kept
                (paper §3.3 misdelivery-tag semantics).
        """
        slot = self._find(vip)
        if slot < 0:
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

    # ------------------------------------------------------------------
    # control plane and fault injection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Empty the cache (control-plane reset; stats are preserved)."""
        if not self.occupancy():
            return
        self._keys[:] = [_EMPTY] * self.num_slots
        self._abits[:] = [0] * self.num_slots
        cb = self.on_mutate
        if cb is not None:
            cb()

    def corrupt_entry(self, ordinal: int, bit: int) -> tuple[int, int, int] | None:
        """Flip ``bit`` of the value in the ``ordinal``-th occupied line.

        Models an SRAM soft error in a live register array (fault
        injection, never the data plane).  ``ordinal`` indexes occupied
        lines in :meth:`entries` order, modulo occupancy, so fault
        schedules stay valid whatever the cache holds.  Fires
        ``on_mutate`` — a bitflip is a silent state change the fluid
        path must escalate for; recency and access bits are untouched.

        Returns:
            ``(vip, old_pip, new_pip)`` for the corrupted line, or None
            when the cache is empty (logged no-op).
        """
        occupied = self._occupied()
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
    def owner_lines(self) -> tuple[list[int], list[int], int, int] | None:
        """``(keys, values, salt, sets)`` where a line has one owner.

        In a direct-mapped cache "``vip`` already owns its line" is one
        compare at ``((vip ^ salt) * HASH_MIX & 0xFFFFFFFF) % sets``,
        and overwriting that line's value is all an insert would do —
        no counter, access bit or observer moves.  A switch hook bound
        to this cache may hold the arrays and settle that outcome
        itself, calling :meth:`insert` for every other.  None when
        there is no such line (``ways > 1`` keeps recency; no slots).

        This is the only way the arrays leave their owner, and the one
        place no lint follows them: W402 loses the alias at the
        caller's tuple unpack, so that a holder writes nothing but the
        value of a line its key already owns is checked by behaviour —
        ``tests/test_scheme_equivalences.py`` and
        ``tests/test_cache_differential.py`` against the code without
        the shortcut, and the packet == hybrid equalities of
        ``tests/test_hybrid_fidelity.py``.
        """
        return None

    def peek(self, vip: int) -> int | None:
        """Read the cached value for ``vip`` without side effects."""
        slot = self._find(vip)
        return None if slot < 0 else self._values[slot]

    def access_bit(self, vip: int) -> int | None:
        """The access bit of ``vip``'s line, or None if not cached."""
        slot = self._find(vip)
        return None if slot < 0 else self._abits[slot]

    def occupancy(self) -> int:
        """Number of occupied lines."""
        return self.num_slots - self._keys.count(_EMPTY)

    def _occupied(self) -> list[int]:
        """Occupied lines, set by set, least recently used first."""
        slots = [slot for slot, key in enumerate(self._keys) if key != _EMPTY]
        stamps = self._stamps
        if stamps:
            ways = self.ways
            slots.sort(key=lambda slot: (slot // ways, stamps[slot]))
        return slots

    def entries(self) -> list[tuple[int, int, int]]:
        """All ``(vip, pip, access_bit)`` triples currently cached."""
        return [(self._keys[slot], self._values[slot], self._abits[slot])
                for slot in self._occupied()]

    def __len__(self) -> int:
        return self.occupancy()


class _DirectMapped(SwitchCache):
    """``ways == 1``: the set is one line, the line is its own LRU.

    The three data-plane primitives run on every switch hop of every
    packet, so here they are spelled without the set scan, the stamps
    and the victim search, and with the hash inlined — the method-call
    overhead is one of the simulator's largest single line items.
    ``tests/test_cache_differential.py`` holds them to the general
    bodies' behaviour.
    """

    __slots__ = ()

    def owner_lines(self) -> tuple[list[int], list[int], int, int] | None:
        if self.num_sets == 0:
            return None
        return self._keys, self._values, self.salt, self.num_sets

    def lookup(self, vip: int) -> int | None:
        stats = self.stats
        stats.lookups += 1
        if self.num_sets == 0:
            return None
        slot = (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets
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
        if self.num_sets == 0:
            self.stats.rejections += 1
            return _REJECTED
        slot = (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets
        keys = self._keys
        values = self._values
        key = keys[slot]
        if key == vip:
            values[slot] = pip
            return _ADMITTED
        stats = self.stats
        result = _ADMITTED
        if key != _EMPTY:
            if only_if_clear and self._abits[slot] == 1:
                stats.rejections += 1
                return _REJECTED
            result = InsertResult(True, (key, values[slot]))
            stats.evictions += 1
        keys[slot] = vip
        values[slot] = pip
        self._abits[slot] = 0
        stats.insertions += 1
        cb = self.on_mutate
        if cb is not None:
            cb()
        return result

    def invalidate(self, vip: int, stale_pip: int | None = None) -> bool:
        if self.num_sets == 0:
            return False
        slot = (((vip ^ self.salt) * HASH_MIX) & 0xFFFFFFFF) % self.num_sets
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
