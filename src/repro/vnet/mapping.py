"""The authoritative V2P mapping database and its control plane.

The database is the single-writer state of the system (paper §1): the
network administrator (control plane) updates it on VM arrival and
migration, while gateways read it on every unresolved packet.  Caches
elsewhere (switches, hosts) are allowed to go stale; correctness is
restored lazily via misdelivery handling (§3.3).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import repeat

from repro.net.addresses import format_vip


class MappingError(KeyError):
    """Raised when a VIP has no mapping in the authoritative database."""


class MappingDatabase:
    """Authoritative VIP -> PIP mappings with update bookkeeping.

    VIPs are dense indexes ``0..n-1``: ``place_vms`` places
    ``range(count)`` and every trace draws its VIPs below ``num_vms``.
    So the table is a list indexed by VIP, and a VM costs one slot:
    entry ``v`` is the PIP of the host running VIP ``v``, or None when
    no VM has that VIP.  A VIP past the end, or a negative one, is
    unmapped; no read may let a negative VIP wrap to the last entry.

    Attributes:
        version: the number of writes so far; :meth:`load` and
            ``VirtualNetwork.place_vms`` read it to spot a fresh database.
    """

    def __init__(self) -> None:
        self._table: list[int | None] = []
        self._mapped = 0
        self.version = 0
        self._listeners: list[Callable[[int, int, int], None]] = []

    def __len__(self) -> int:
        """The number of VIPs mapped (not the length of the table)."""
        return self._mapped

    def __contains__(self, vip: int) -> bool:
        return self.get(vip) is not None

    def lookup(self, vip: int) -> int:
        """Resolve ``vip``; raises :class:`MappingError` if absent."""
        try:
            pip = self._table[vip]
        except IndexError:
            pip = None
        if pip is None or vip < 0:
            raise MappingError(f"no mapping for {format_vip(vip)}")
        return pip

    def get(self, vip: int) -> int | None:
        if vip < 0:
            return None
        try:
            return self._table[vip]
        except IndexError:
            return None

    def set(self, vip: int, pip: int) -> None:
        """Install or move a mapping (single-writer update).

        A VIP past the end of the table grows it, with the VIPs in
        between left unmapped.
        """
        if vip < 0:
            raise ValueError(f"negative VIP {vip}")
        table = self._table
        if vip >= len(table):
            table.extend(repeat(None, vip + 1 - len(table)))
        old = table[vip]
        if old is None:
            self._mapped += 1
            old = -1
        table[vip] = pip
        self.version += 1
        for listener in self._listeners:
            listener(vip, old, pip)

    def load(self, pips: Iterable[int]) -> None:
        """Map VIP ``i`` to the ``i``-th of ``pips``, in one step.

        Leaves what one :meth:`set` per VIP in order leaves in a
        database never written before (the only kind accepted), with
        no Python call per VM; listeners hear every ``(vip, -1, pip)``
        once the table is full.
        """
        if self.version:
            raise ValueError("load() needs a database that was never written")
        table = self._table
        table.extend(pips)
        self._mapped = self.version = len(table)
        listeners = self._listeners
        if listeners:
            for vip, pip in enumerate(table):
                for listener in listeners:
                    listener(vip, -1, pip)

    def items(self) -> Iterator[tuple[int, int]]:
        """``(vip, pip)`` for every mapped VIP, in VIP order."""
        return ((vip, pip) for vip, pip in enumerate(self._table)
                if pip is not None)

    @property
    def table(self) -> list[int | None]:
        """The live VIP-indexed table (entry ``v`` is VIP ``v``'s PIP, or
        None), which hosts and the transport read directly; only this
        class writes it, and never rebinds it."""
        return self._table

    def subscribe(self, listener: Callable[[int, int, int], None]) -> None:
        """Register ``listener(vip, old_pip, new_pip)`` for updates.

        Host-driven baselines use this to model proactive control-plane
        pushes to every hypervisor (the update-cost end of the paper's
        tradeoff, Figure 1).
        """
        self._listeners.append(listener)
