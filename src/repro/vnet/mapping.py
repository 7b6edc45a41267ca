"""The authoritative V2P mapping database and its control plane.

The database is the single-writer state of the system (paper §1): the
network administrator (control plane) updates it on VM arrival and
migration, while gateways read it on every unresolved packet.  Caches
elsewhere (switches, hosts) are allowed to go stale; correctness is
restored lazily via misdelivery handling (§3.3).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from repro.net.addresses import format_vip


class MappingError(KeyError):
    """Raised when a VIP has no mapping in the authoritative database."""


class MappingDatabase:
    """Authoritative VIP -> PIP mappings with update bookkeeping.

    Attributes:
        version: the number of writes so far; :meth:`load` and
            ``VirtualNetwork.place_vms`` read it to spot a fresh database.
    """

    def __init__(self) -> None:
        self._table: dict[int, int] = {}
        self.version = 0
        self._listeners: list[Callable[[int, int, int], None]] = []

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, vip: int) -> bool:
        return vip in self._table

    def lookup(self, vip: int) -> int:
        """Resolve ``vip``; raises :class:`MappingError` if absent."""
        try:
            return self._table[vip]
        except KeyError:
            raise MappingError(f"no mapping for {format_vip(vip)}") from None

    def get(self, vip: int) -> int | None:
        return self._table.get(vip)

    def set(self, vip: int, pip: int) -> None:
        """Install or move a mapping (single-writer update)."""
        old = self._table.get(vip, -1)
        self._table[vip] = pip
        self.version += 1
        for listener in self._listeners:
            listener(vip, old, pip)

    def load(self, mappings: Iterable[tuple[int, int]]) -> None:
        """Install ``(vip, pip)`` pairs of distinct VIPs in one step.

        Leaves what one :meth:`set` per pair leaves in a database never
        written before (the only kind accepted), without a call each;
        listeners hear every ``(vip, -1, pip)`` once the table is full.
        """
        if self.version:
            raise ValueError("load() needs a database that was never written")
        table = self._table
        table.update(mappings)
        self.version = len(table)
        listeners = self._listeners
        if listeners:
            for vip, pip in table.items():
                for listener in listeners:
                    listener(vip, -1, pip)

    def items(self):
        return self._table.items()

    @property
    def table(self) -> Mapping[int, int]:
        """The live VIP -> PIP dict, which every host reads to learn what
        it runs; only this class writes it."""
        return self._table

    def subscribe(self, listener: Callable[[int, int, int], None]) -> None:
        """Register ``listener(vip, old_pip, new_pip)`` for updates.

        Host-driven baselines use this to model proactive control-plane
        pushes to every hypervisor (the update-cost end of the paper's
        tradeoff, Figure 1).
        """
        self._listeners.append(listener)
