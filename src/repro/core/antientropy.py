"""Anti-entropy audit: reconcile switch caches against the database.

SwitchV2P's lazy invalidation (§3.3) repairs stale entries only when
traffic trips over them — a misdelivered packet triggers the targeted
invalidation.  Under gray failures that guarantee breaks down: a
bit-flipped SRAM line for an idle VIP, or a stale mapping on a path
that degraded links keep losing invalidations on, can persist
indefinitely.  The :class:`AntiEntropyAuditor` closes the gap with a
control-plane sweep, the standard anti-entropy pattern: every period
it walks each switch cache and invalidates any entry that disagrees
with the authoritative :class:`~repro.vnet.mapping.MappingDatabase`.

This yields the bounded-staleness guarantee the runtime oracle checks
(:meth:`repro.faults.oracles.OracleSuite.configure_staleness`): once an
entry goes bad — by migration or corruption — it survives
at most one full audit period, because the next sweep to observe it
removes it.  Sweeps go through the caches' normal ``invalidate``
primitive, so mutation observers fire and the hybrid-fidelity engine
escalates affected flows exactly as it does for data-plane changes.

The audit models a centralized control-plane job (the SDN controller
re-reading switch registers), so it costs no data-plane packets; its
realism knob is the period — production systems sweep slowly to bound
controller load, which is exactly the staleness/overhead tradeoff the
degradation experiment measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vnet.network import VirtualNetwork


class AntiEntropyAuditor:
    """Periodically repair switch-cache entries that contradict the DB.

    Args:
        network: the virtual network whose scheme's caches are audited.
        period_ns: sweep period; also the staleness bound the audit
            enforces (an entry that goes bad survives at most one full
            period before a sweep removes it).
        staleness_bound_ns: the bound this deployment advertises;
            informational (the oracle reads it), must be at least
            ``period_ns`` when nonzero — a sweep cannot promise less
            than its own period.
    """

    def __init__(self, network: VirtualNetwork, period_ns: int,
                 staleness_bound_ns: int = 0) -> None:
        if period_ns <= 0:
            raise ValueError(f"audit period must be positive, got {period_ns}")
        if staleness_bound_ns and staleness_bound_ns < period_ns:
            raise ValueError(
                f"staleness bound {staleness_bound_ns} is tighter than the "
                f"audit period {period_ns}; the sweep cannot enforce it")
        self.network = network
        self.period_ns = period_ns
        self.staleness_bound_ns = staleness_bound_ns
        self.sweeps = 0
        self.entries_checked = 0
        self.repairs = 0
        self._timer = None
        self._running = False

    def start(self) -> None:
        """Arm the periodic sweep (idempotent)."""
        if self._running:
            return
        self._running = True
        self._timer = self.network.engine.schedule_timer(
            self.period_ns, self._sweep)

    def stop(self) -> None:
        """Cancel the sweep timer."""
        if not self._running:
            return
        self._running = False
        if self._timer is not None:
            self.network.engine.cancel_timer(self._timer)
            self._timer = None

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        self.sweeps += 1
        self.audit_once()
        if self._running:
            self._timer = self.network.engine.schedule_timer(
                self.period_ns, self._sweep)

    def audit_once(self) -> int:
        """Run one full reconciliation pass; returns entries repaired.

        Exposed separately from the timer loop so tests and the
        degradation experiment can force a sweep at a known time.
        """
        cache_of = self.network.scheme.cache_of
        get = self.network.database.get
        repaired = 0
        for switch in self.network.fabric.switches:
            cache = cache_of(switch)
            if cache is None:
                continue
            # Snapshot first: ``invalidate`` mutates the structures
            # ``entries()`` iterates.
            for vip, pip, _abit in cache.entries():
                self.entries_checked += 1
                if get(vip) != pip and cache.invalidate(vip):
                    repaired += 1
        self.repairs += repaired
        return repaired
