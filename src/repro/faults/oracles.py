"""Runtime invariant oracles for chaos trials.

An :class:`OracleSuite` attaches to one :class:`VirtualNetwork` run and
watches the properties the paper's robustness story rests on — the
things a random fault schedule should *never* be able to break:

``misdelivery``
    A packet delivered to an endpoint is owned by that host *at
    delivery time* (the authoritative database maps its destination
    VIP to that host's PIP).  Stale caches may detour packets, but the
    lazy-invalidation protocol must never hand one to the wrong VM.
``forwarding-loop``
    No packet exceeds a hop bound.  Fat-tree up/down forwarding is
    structurally loop-free; the loop risk is misdelivery re-forwarding
    recirculating a packet forever, and every such cycle raises the
    hop count, so a generous bound catches it.
``conservation``
    Every packet a hypervisor sent is delivered, dropped with a
    recorded reason (switch/link/buffer drops, random loss, hard drops
    at unroutable hosts, crashed gateways, failed resolutions) or
    still in flight at the horizon.  A switch counts its failed
    transmits in its own drops, so link drops count on host and gateway
    uplinks only.  Switch-made invalidations are never sent but may be
    dropped or in flight: a lower bound, which one silent loss trips.
``cache-coherence``
    No switch cache serves a ``(vip, pip)`` pair the control plane
    never published, and entries for never-migrated VIPs match the
    authoritative mapping.  Bounded staleness for migrated VIPs is
    enforced indirectly: a stale entry that misbehaves trips the
    misdelivery, loop or liveness oracle instead.
``liveness``
    After the last schedule event plus a grace period, every flow is
    terminal — completed or failed.  No permanently hung flow.
``terminal-reason``
    Every failed flow carries an explicit ``failure_reason``.
``structural``
    :func:`repro.vnet.validation.check_invariants` holds after every
    fault event and at the horizon (degraded states included — e.g. a
    failed switch must have lost its cache SRAM).

Violations are collected, not raised: a chaos trial always runs to its
horizon so one schedule produces one deterministic verdict.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.addresses import format_pip
from repro.net.node import Switch
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule
    from repro.vnet.hypervisor import Host
    from repro.vnet.network import VirtualNetwork

#: Default per-packet hop ceiling.  The longest legitimate single pass
#: of a fat tree is 5 switches (ToR-spine-core-spine-ToR); a gateway
#: detour doubles it and each misdelivery re-forward adds another pass,
#: so 64 tolerates deep (legal) recirculation while still catching
#: unbounded loops within a millisecond of simulated time.
DEFAULT_HOP_BOUND = 64


@dataclass(frozen=True)
class OracleViolation:
    """One invariant breach: which oracle, when, and what happened."""

    oracle: str
    time_ns: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.oracle}] t={self.time_ns}ns {self.detail}"


class OracleSuite:
    """Invariant oracles hooked into one network for one run.

    A job run with ``ExperimentJob.run(oracles=...)`` gets one wired
    as below; build one by hand only for a network made by hand.
    Create the suite *after* VM placement (so the initial mappings are
    snapshot as published) and before traffic starts.  Then::

        suite = OracleSuite(network)
        schedule.apply(network)
        suite.watch_schedule(schedule)   # structural sweep per event
        network.run(until=horizon)
        suite.finish(horizon)            # end-of-run oracles
        assert not suite.violations

    Args:
        network: the network under test.
        hop_bound: per-packet hop ceiling for the loop oracle.
        max_violations: cap on recorded violations — a looping packet
            would otherwise grow the list once per cycle.
    """

    def __init__(self, network: VirtualNetwork,
                 hop_bound: int = DEFAULT_HOP_BOUND,
                 max_violations: int = 50) -> None:
        self.network = network
        self.hop_bound = hop_bound
        self.max_violations = max_violations
        self.violations: list[OracleViolation] = []
        #: Every (vip, pip) pair the control plane ever published —
        #: the initial placement snapshot plus all later updates.
        self._published: set[tuple[int, int]] = set(
            (vip, pip) for vip, pip in network.database.items())
        #: VIPs that moved at least once (their stale pairs stay legal
        #: in caches until lazily invalidated).
        self._migrated: set[int] = set()
        self._canary = False
        self._seen_structural: set[str] = set()
        self._seen_coherence: set[tuple] = set()
        self._finished = False
        #: The watched fault schedule (if any); its ``corruptions`` log
        #: tells the coherence oracle which unpublished (vip, pip)
        #: pairs are injected bit flips — those are the *staleness*
        #: oracle's to bound, not unpublished-mapping violations.
        self._schedule: FaultSchedule | None = None
        #: Bounded-staleness oracle state (off until configured).
        self._staleness_bound_ns = 0
        self._staleness_slack_ns = 0
        self._bad_first_seen: dict[tuple, int] = {}
        self._seen_stale: set[tuple] = set()
        network.database.subscribe(self._on_mapping_update)
        self._wrap_hosts()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _on_mapping_update(self, vip: int, old_pip: int, new_pip: int) -> None:
        self._published.add((vip, new_pip))
        if old_pip != -1 and old_pip != new_pip:
            self._migrated.add(vip)

    def _wrap_hosts(self) -> None:
        """Probe every server made so far, and each one made later."""
        network = self.network
        for host in network.host_by_pip.values():
            self._wrap_host(host)
        network.host_watchers.append(self._wrap_host)

    def _wrap_host(self, host: Host) -> None:
        host.on_deliver = self._make_deliver_probe(host, host.on_deliver)
        host.on_misdeliver = self._make_misdeliver_probe(host, host.on_misdeliver)

    def _make_deliver_probe(self, host: Host,
                            inner: Callable[[Packet], None] | None,
                            ) -> Callable[[Packet], None]:
        db_get = self.network.database.get
        engine = self.network.engine

        def probe(packet: Packet) -> None:
            hops = packet.hops
            vip = packet.dst_vip
            if hops > self.hop_bound:
                self._report("forwarding-loop", engine._now,
                             f"packet flow={packet.flow_id} seq={packet.seq} "
                             f"delivered at {host.name} after {hops} hops "
                             f"(bound {self.hop_bound})")
            owner_pip = db_get(vip)
            if owner_pip != host.pip:
                self._report(
                    "misdelivery", engine._now,
                    f"packet for vip {vip} delivered at {host.name} "
                    f"({format_pip(host.pip)}) but the database maps it to "
                    f"{format_pip(owner_pip) if owner_pip is not None else 'nothing'}")
            if inner is not None:
                inner(packet)
        return probe

    def _make_misdeliver_probe(self, host: Host,
                               inner: Callable[[Packet], None] | None,
                               ) -> Callable[[Packet], None]:
        engine = self.network.engine

        def probe(packet: Packet) -> None:
            hops = packet.hops
            if hops > self.hop_bound:
                self._report("forwarding-loop", engine._now,
                             f"packet flow={packet.flow_id} seq={packet.seq} "
                             f"still circulating at {host.name} after {hops} "
                             f"hops (bound {self.hop_bound})")
            if inner is not None:
                inner(packet)
        return probe

    def watch_schedule(self, schedule: FaultSchedule) -> None:
        """Schedule a structural invariant sweep right after each event.

        Call after ``schedule.apply(network)``: sweeps are scheduled at
        the same timestamps but later in insertion order, so each one
        observes the fabric with its fault applied.
        """
        self._schedule = schedule
        for event in schedule.events:
            self.network.engine.schedule(event.at_ns, self._structural_sweep)

    def configure_staleness(self, bound_ns: int, audit_period_ns: int = 0,
                            check_interval_ns: int = 0) -> None:
        """Arm the bounded-staleness oracle.

        A cache entry is *bad* the moment it disagrees with the
        authoritative database (migration or corruption).
        The oracle tracks when each bad entry was first observed and
        reports a violation if one is still being served more than
        ``bound_ns + audit_period_ns`` later — i.e. the anti-entropy
        audit had a full period to repair it and did not.

        Args:
            bound_ns: the advertised staleness bound.
            audit_period_ns: grace added on top of the bound (one full
                audit period, since a sweep that starts just before an
                entry goes bad cannot repair it).
            check_interval_ns: when positive, a recurring engine timer
                re-checks at this cadence so violations surface mid-run
                (chaos trials); otherwise the check runs only from
                :meth:`finish`.
        """
        if bound_ns <= 0:
            raise ValueError(f"staleness bound must be positive, got {bound_ns}")
        if audit_period_ns < 0 or check_interval_ns < 0:
            raise ValueError("staleness oracle periods must be non-negative")
        self._staleness_bound_ns = bound_ns
        self._staleness_slack_ns = audit_period_ns
        if check_interval_ns > 0:
            self.network.engine.schedule_timer(
                check_interval_ns, self._staleness_tick, check_interval_ns)

    def _staleness_tick(self, interval_ns: int) -> None:
        self._check_staleness(self.network.engine.now)
        self.network.engine.schedule_timer(
            interval_ns, self._staleness_tick, interval_ns)

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------
    def _report(self, oracle: str, time_ns: int, detail: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(OracleViolation(oracle, time_ns, detail))

    def _structural_sweep(self) -> None:
        from repro.vnet.validation import check_invariants
        now = self.network.engine._now
        for issue in check_invariants(self.network):
            # The same broken invariant would otherwise re-report on
            # every later sweep; keep the first occurrence only.
            if issue not in self._seen_structural:
                self._seen_structural.add(issue)
                self._report("structural", now, issue)

    def arm_canary(self) -> None:
        """Arm the synthetic always-failing oracle (harness self-test)."""
        self._canary = True

    def finish(self, horizon_ns: int) -> None:
        """Run the end-of-run oracles at ``horizon_ns``, the time the run
        was driven to (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._structural_sweep()
        self._check_conservation(horizon_ns)
        self._check_cache_coherence(horizon_ns)
        self._check_staleness(horizon_ns)
        self._check_liveness(horizon_ns)
        if self._canary:
            self._report("canary", horizon_ns,
                         "synthetic canary violation (harness self-test); "
                         "a run with the canary armed must fail")

    def _check_conservation(self, horizon_ns: int) -> None:
        network = self.network
        fabric = network.fabric
        hosts = network.host_by_pip.values()
        sent = sum(host.packets_sent for host in hosts)
        delivered = network.collector.deliveries
        switch_drops = sum(sw.stats.drops for sw in fabric.switches)
        link_drops = 0
        link_lost = 0
        for link in fabric.links():
            if not isinstance(link.src, Switch):
                link_drops += link.drops
            link_lost += link.lost
        host_drops = sum(host.unroutable_drops for host in hosts)
        gateway_drops = sum(gw.dropped_while_failed + gw.dropped_brownout
                            + gw.resolution_failures
                            for gw in network.gateways)
        in_flight = self._in_flight()
        accounted = (delivered + switch_drops + link_drops + link_lost
                     + host_drops + gateway_drops + in_flight)
        if accounted < sent:
            self._report(
                "conservation", horizon_ns,
                f"{sent} packets sent but only {accounted} accounted for "
                f"(delivered={delivered} switch_drops={switch_drops} "
                f"link_drops={link_drops} lost={link_lost} "
                f"host_drops={host_drops} gateway_drops={gateway_drops} "
                f"in_flight={in_flight}): {sent - accounted} vanished "
                "without a recorded reason")

    def _in_flight(self) -> int:
        """Packets referenced by pending events (still on the wire).

        Link deliveries, gateway pipelines and misdelivery re-forward
        delays all hold their packet in the event args; transport/probe
        timers hold none.
        """
        return sum(1 for _at, _callback, args
                   in self.network.engine.iter_pending()
                   if any(isinstance(arg, Packet) for arg in args))

    def _corruption_pairs(self) -> set[tuple[int, int]]:
        """(vip, pip) pairs injected by CACHE_BITFLIP events so far."""
        if self._schedule is None or not self._schedule.corruptions:
            return set()
        return {(vip, new_pip)
                for _switch_id, vip, _old_pip, new_pip
                in self._schedule.corruptions}

    def _check_cache_coherence(self, horizon_ns: int) -> None:
        cache_of = self.network.scheme.cache_of
        db_get = self.network.database.get
        corrupted = self._corruption_pairs()
        for switch in self.network.fabric.switches:
            cache = cache_of(switch)
            if cache is None:
                continue
            for vip, pip, _abit in cache.entries():
                if (vip, pip) in corrupted:
                    # A deliberately injected bit flip: unpublished by
                    # construction.  The staleness oracle bounds how
                    # long it may survive; re-flagging it here would
                    # fail every schedule containing the fault itself.
                    continue
                if (vip, pip) not in self._published:
                    key = (switch.name, vip, pip, "unpublished")
                    if key not in self._seen_coherence:
                        self._seen_coherence.add(key)
                        self._report(
                            "cache-coherence", horizon_ns,
                            f"{switch.name} caches vip {vip} -> "
                            f"{format_pip(pip)}, a mapping the control plane "
                            "never published")
                elif vip not in self._migrated and db_get(vip) != pip:
                    key = (switch.name, vip, pip, "mismatch")
                    if key not in self._seen_coherence:
                        self._seen_coherence.add(key)
                        self._report(
                            "cache-coherence", horizon_ns,
                            f"{switch.name} caches vip {vip} -> "
                            f"{format_pip(pip)} but the vip never migrated "
                            f"away from {format_pip(db_get(vip))}")

    def _check_staleness(self, now_ns: int) -> None:
        """Bounded staleness: no bad entry outlives bound + slack.

        Tracks the first time each disagreeing (switch, vip, pip)
        triple is observed; entries repaired between checks drop out of
        tracking.  Detection granularity is the check cadence, so run
        with ``check_interval_ns`` well under the bound.
        """
        bound = self._staleness_bound_ns
        if not bound:
            return
        cache_of = self.network.scheme.cache_of
        db_get = self.network.database.get
        limit = bound + self._staleness_slack_ns
        first_seen = self._bad_first_seen
        current_bad = set()
        for switch in self.network.fabric.switches:
            cache = cache_of(switch)
            if cache is None:
                continue
            for vip, pip, _abit in cache.entries():
                if db_get(vip) == pip:
                    continue
                key = (switch.name, vip, pip)
                current_bad.add(key)
                first = first_seen.setdefault(key, now_ns)
                if now_ns - first > limit and key not in self._seen_stale:
                    self._seen_stale.add(key)
                    self._report(
                        "bounded-staleness", now_ns,
                        f"{switch.name} still serves vip {vip} -> "
                        f"{format_pip(pip)} {now_ns - first}ns after it went "
                        f"bad (bound {bound}ns + audit slack "
                        f"{self._staleness_slack_ns}ns)")
        # Entries repaired since the last check leave tracking, so a
        # re-corruption later restarts its clock.
        if len(current_bad) != len(first_seen):
            self._bad_first_seen = {key: seen for key, seen in first_seen.items()
                                    if key in current_bad}

    def _check_liveness(self, horizon_ns: int) -> None:
        hung = [record for record in self.network.collector.flows.values()
                if not record.completed and not record.failed]
        if hung:
            ids = ", ".join(str(r.flow_id) for r in hung[:5])
            self._report(
                "liveness", horizon_ns,
                f"{len(hung)} flow(s) neither completed nor failed at the "
                f"horizon (e.g. flow ids {ids}) — a hung flow without a "
                "terminal state")
        for record in self.network.collector.flows.values():
            if record.failed and record.failure_reason is None:
                self._report(
                    "terminal-reason", horizon_ns,
                    f"flow {record.flow_id} failed without an explicit "
                    "failure_reason")
                break
