"""Hybrid-fidelity fluid fast path: analytic advance of warm flows.

Once a flow's mapping is resolved end-to-end — every on-path cache
entry warm, no pending misdelivery tags — its packets are perfectly
predictable: each one takes the same route, refreshes the same cache
entries idempotently, and contributes the same per-packet byte/latency
deltas.  The :class:`FluidScheduler` exploits this by *walking* one
real probe packet per round through the actual data plane (real links,
real switch hook, real cache code), recording every counter effect
the walk applied, and then — if and only if the walk was provably
side-effect-free beyond idempotent refreshes — closing it into a flat
replay plan that one calendar event applies ``round_size - 1`` times
instead of simulating each packet.

Exactness contract (see docs/simulator.md "Hybrid fidelity"):

* every per-round probe is a *real* packet: cache lookups, access-bit
  refreshes, learning-RNG draws, spillover pickups all execute in the
  production code paths;
* a round is replayed analytically only when the probe's walk was
  CLEAN: no cache insertion/eviction/invalidation, no scheme control
  traffic (learning/invalidation/promotion/spillover), no misdelivery
  tag, and delivery at the expected destination host;
* learning-RNG draws are the one stateful effect that *is* replayed
  rather than escalated: the probe diffs ``SwitchV2P.rng_draws``
  around every switch hook and records each hop that moved it as a
  draw site; a draw no hop accounts for escalates.  Each armed round
  enters the :class:`_DrawLedger` as ONE run-length record (first due
  time, interval, packet range, sites) standing for its ``packets x
  sites`` draws.  Every fluid boundary (adoption, round commit,
  escalation) at or past the earliest pending due time drains it: the
  due draws of *all* flows are counted by arithmetic and, up to the
  stream's next trigger (199 in 200 draws at the paper's ``p_learn``
  do nothing), consumed in one step.  Only a trigger makes it walk the
  exact global ``(due, arm order, packet, site)`` order up to it and
  fire it through ``replay_learning_draw``, so the shared RNG stream
  advances exactly as in packet mode and the trigger emits real
  learning traffic.  Cost: O(rounds + triggers), not O(packets x
  sites);
* a flow whose (src, dst) pair has walked clean twice in a row gets
  its path signature (the set of on-path switches) memoized; while
  the signature stays valid the flow may arm rounds *without*
  re-walking a probe (at least every ``probe_every``-th round still
  probes).  This is exact because every event that could dirty a
  clean path — cache mutation, fabric fault, link-loss configuration,
  VM migration, gateway change — is announced by the
  object that owns the changed state, from the function that changes
  it (lint rule W402 holds every writer of cache, mapping and
  gateway-pool state to that; ``Fabric.note_fault`` / ``impair_links``
  and ``Switch.set_slowdown`` ping ``on_fault`` themselves), arrives
  at the escalation entry points, and each of those wipes the memo
  wholesale;
* any cache mutation anywhere on an adopted flow's path — from its own
  probe or from *other* traffic — escalates the flow back to packet
  level before the mutation's effects could be misattributed
  (:meth:`FluidScheduler.escalate_switch`, reached from the
  ``on_mutate`` cache observer installed via
  ``CachingScheme.set_cache_observer``);
* VM migration, gateway failover/reinstatement, and fabric
  fault transitions and gray impairments escalate every adopted flow
  (:meth:`FluidScheduler.escalate_all`, from ``vnet.network``,
  ``Fabric.note_fault`` and ``Fabric.impair_links``).

Only warm reliable flows are adopted, each paced at its probe-measured
interval; a UDP flow runs at packet level.

Approximations (documented, bounded): fluid packets do not advance
link ``_busy_until`` (no queueing contribution, no tail drops), so
fluid flows that share a link do not slow each other;
queueing growth from packet-mode cross-traffic is only observed at
the next real probe (at most ``probe_every`` rounds of blindness),
and mid-round escalation rounds the analytically-delivered count to
the nearest whole packet.

Everything in this module that mutates simulator state (packets,
links, switches, caches, transports, collector counters) lives in
functions named ``_walk*`` / ``_commit*`` / ``_escalate*`` /
``_adopt*`` / ``_reinject*`` — static check D110
(``tests/source_rules.py``) holds this module to that.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from operator import attrgetter, sub
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.net.addresses import UNRESOLVED
from repro.net.node import Switch
from repro.net.packet import PacketKind
from repro.perf import BusyClock
from repro.vnet.hypervisor import Host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.vnet.network import VirtualNetwork

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK

# Walk results for a single packet.
_DELIVERED = 0
_CONSUMED = 1
_DIVERTED = 2

# Round-probe outcomes.
_ST_CLEAN = 0
_ST_MUTATED = 1
_ST_DATA_DIVERTED = 2
_ST_DATA_CONSUMED = 3
_ST_ACK_DIVERTED = 4
_ST_ACK_CONSUMED = 5

#: Forwarding-loop guard, mirroring the oracle hop bound.
_HOP_CAP = 32

#: ``_DrawLedger.next_due`` while nothing is pending: after any instant.
_NEVER = 1 << 62

#: The ``rng_draws`` a walk reads of a scheme that has none.
_NO_DRAWS = SimpleNamespace(rng_draws=0)

#: Collector counters a walk is diffed on.  The first five are what a
#: delivery moves, replayed; control traffic, gateway detours and
#: reordering move the rest, and a walk that does is not replayed.
_COLLECTOR_INTS = (
    "deliveries", "delivered_hops", "packet_latency_sum_ns",
    "packet_latency_count", "delivered_payload_bytes",
    "gateway_arrivals", "learning_packets", "invalidation_packets",
    "spillover_inserts", "promotions", "reorder_events",
    "gateway_unavailable_drops",
)
_DELIVERY_INTS = 5
_collector_counts = attrgetter(*_COLLECTOR_INTS)

#: Scheme counters whose movement marks a walk as stateful (control
#: traffic was emitted or an RNG draw happened): never replayed.
_SCHEME_DIRTY = (
    "learning_packets_sent",
    "invalidation_packets_sent",
    "spillovers_reinserted",
    "promotions_sent",
    "promotions_admitted",
    "rng_draws",
)

#: Cache stats, read in C: idempotent refreshes (replayed), then real
#: state changes (escalate, never replay).
_cache_counts = attrgetter("lookups", "hits", "rejections",
                           "insertions", "evictions", "invalidations")


class _ReplayPlan(NamedTuple):
    """Every counter one clean walk moved, flat: a commit replays it
    ``times`` over with one slot add per counter, nothing by name."""

    #: ``(link, packets, bytes)``, one entry per link crossed; a
    #: switch's own counts are read off the links into it.
    traffic: tuple[tuple[Link, int, int], ...]
    #: Each host that sent a packet (data, then ACK), once per packet.
    hosts: tuple[Host, ...]
    record: Any
    #: ``record.bytes_received`` per packet.
    payload: int
    #: The reliable receiver whose ``rcv_next`` moves.
    receiver: Any
    #: The collector's delivery counters, in ``_COLLECTOR_INTS`` order.
    deliveries: int
    hops: int
    latency_ns: int
    latencies: int
    goodput: int
    #: ``(cache stats, lookups, hits, rejections)`` per cache consulted.
    caches: tuple[tuple[Any, int, int, int], ...]
    #: ``(Counter, layer, hits)`` of the collector's per-layer hits.
    layer_hits: tuple[tuple[Any, Any, int], ...]


class _WalkContext:
    """Bookkeeping for one probe walk (data packet + ACK)."""

    __slots__ = (
        "traffic",
        "hosts",
        "plan",
        "switches",
        "bottleneck_ns",
        "collector_before",
        "hits_before",
        "first_hits_before",
        "scheme_before",
        "cache_before",
        "mutated",
        "draw_sites",
    )

    def __init__(self) -> None:
        #: Link -> ``(packets, bytes)`` the walk added.
        self.traffic: dict[Link, tuple[int, int]] = {}
        #: Hosts whose ``packets_sent`` the walk moved, once per packet.
        self.hosts: list[Host] = []
        self.plan: _ReplayPlan | None = None
        self.switches: set[int] = set()
        self.bottleneck_ns = 0
        self.collector_before: tuple[int, ...] = ()
        #: The per-layer hit Counters' items, in order.
        self.hits_before: tuple[tuple[Any, int], ...] = ()
        self.first_hits_before: tuple[tuple[Any, int], ...] = ()
        self.scheme_before: tuple[int, ...] = ()
        #: cache stats object -> 6-tuple snapshot taken before the
        #: first hook call at that switch.
        self.cache_before: dict[Any, tuple[int, ...]] = {}
        self.mutated = False
        #: ``(switch, template)`` learning-RNG draw sites the probe hit,
        #: in draw order; every analytic packet draws once at each.
        self.draw_sites: list[tuple[Any, Any]] = []


class _DrawTemplate(NamedTuple):
    """The packet fields a learning-RNG draw site reads, frozen: every
    packet of a warm flow presents the same at a given site, so one
    capture stands in for the round's replays (``replay_learning_draw``)."""

    outer_src: int
    dst_vip: int
    outer_dst: int


class _DrawRun:
    """The analytic learning draws of one armed round, run-length coded.

    Stands for the draws of packets ``k .. end-1`` at every site in
    ``sites``: packet ``i`` is due at ``t0 + i * interval`` and draws
    at each site in order.  ``(k, s)`` is the next unreplayed draw.
    """

    __slots__ = ("t0", "interval", "k", "s", "end", "due_k", "sites",
                 "width", "seq")

    def __init__(self, t0: int, interval: int, first: int, end: int,
                 sites: list[tuple[Any, Any]], seq: int) -> None:
        self.t0 = t0
        self.interval = interval
        self.k = first
        self.s = 0
        self.end = end
        #: Scratch of the drain in progress: packets below it are due.
        self.due_k = first
        self.sites = sites
        self.width = len(sites)
        #: Arm order; breaks ties between runs with equal due times.
        self.seq = seq

    def truncate(self, cutoff: int) -> None:
        """Drop the draws due after ``cutoff`` (the round was cancelled):
        packets credited by a mid-round escalation keep theirs."""
        self.end = min(self.end, (cutoff - self.t0) // self.interval + 1)


class _DrawLedger:
    """Pending analytic learning draws of all flows, one record per round,
    replayed in packet mode's order: due time, arm order, packet, site.
    No pending draw is due before ``next_due``."""

    __slots__ = ("scheme", "_runs", "seq", "next_due", "_draining")

    def __init__(self, scheme: Any) -> None:
        self.scheme = scheme
        self._runs: list[_DrawRun] = []
        self.seq = 0
        self.next_due = _NEVER
        self._draining = False

    def add_run(self, t0: int, interval: int, first: int, end: int,
                sites: list[tuple[Any, Any]]) -> _DrawRun | None:
        """Record a round's draws: packets ``first .. end-1`` at ``sites``;
        return the record to truncate, or None when it draws nothing."""
        if first >= end or not sites:
            return None
        self.seq += 1
        run = _DrawRun(t0, interval, first, end, sites, self.seq)
        self._runs.append(run)
        due = t0 + first * interval
        if due < self.next_due:
            self.next_due = due
        return run

    def commit_due(self, now: int) -> None:
        """Replay every pending draw due by ``now``, in global order: the
        due draws are counted per run and, up to the scheme's next
        trigger, consumed in one step, since draws that do nothing
        commute.  A trigger fires through the real scheme entry point (a
        nested drain is a no-op, an escalated run keeps the packets due
        by now, a round armed meanwhile is counted in)."""
        if self._draining or now < self.next_due:
            return
        self._draining = True
        try:
            runs = self._runs
            skip = self.scheme.skip_clean_learning_draws
            counted = -1
            while True:
                if counted != len(runs):
                    counted = len(runs)
                    total = 0
                    for run in runs:
                        due_k = (now - run.t0) // run.interval + 1
                        if due_k > run.end:
                            due_k = run.end
                        run.due_k = due_k
                        if due_k > run.k:
                            total += (due_k - run.k) * run.width - run.s
                if not total:
                    break
                clean = skip(total)
                if clean == total:
                    break
                self._commit_through_trigger(clean)
                total -= clean + 1
            # Whatever is still due triggers nothing and is consumed.
            next_due = _NEVER
            pending = []
            for run in runs:
                k = run.due_k
                if k > run.k:
                    run.k, run.s = k, 0
                if k < run.end:
                    pending.append(run)
                    due = run.t0 + k * run.interval
                    if due < next_due:
                        next_due = due
            self._runs = pending
            self.next_due = next_due
        finally:
            self._draining = False

    def _commit_through_trigger(self, clean: int) -> None:
        """Step the runs past the ``clean`` draws the scheme just consumed,
        in the exact merge of their ``(due, arm order)`` heads, and fire
        the next through ``replay_learning_draw``: its run and site make
        the packet."""
        heads = [(run.t0 + run.k * run.interval, run.seq, run)
                 for run in self._runs if run.due_k > run.k]
        heapify(heads)
        while True:
            # Whole packets of the earliest head first, then into one.
            run = heads[0][2]
            s = run.s + clean
            if s < run.width:
                break
            clean = s - run.width
            run.s = 0
            run.k += 1
            if run.k < run.due_k:
                heapreplace(heads, (run.t0 + run.k * run.interval, run.seq, run))
            else:
                heappop(heads)
        switch, template = run.sites[s]
        if s + 1 < run.width:
            run.s = s + 1
        else:
            run.s = 0
            run.k += 1
        self.scheme.replay_learning_draw(switch, template)


class _FluidFlow:
    """Per-flow fluid state while the scheduler owns the flow."""

    __slots__ = (
        "flow_id",
        "sender",
        "receiver",
        "record",
        "src_vip",
        "dst_vip",
        "payload",
        "base",
        "span",
        "window",
        "sent",
        "round_size",
        "interval",
        "iso_interval",
        "t0",
        "token",
        "probed",
        "skips_left",
        "sig",
        "round_run",
        "plan",
        "switch_ids",
        "draw_sites",
    )

    def __init__(self, flow_id: int, sender: Any, receiver: Any,
                 record: Any, src_vip: int, dst_vip: int, payload: int,
                 base: int, span: int, window: int) -> None:
        self.flow_id = flow_id
        self.sender = sender
        self.receiver = receiver
        self.record = record
        self.src_vip = src_vip
        self.dst_vip = dst_vip
        self.payload = payload
        #: First sequence number owned by the fluid scheduler.
        self.base = base
        #: Number of packets to advance analytically; the tail
        #: (``total - base - span``) always runs at packet level so
        #: completion, FCT, and the final partial payload stay exact.
        self.span = span
        self.window = window
        #: Packets accounted so far (probes + analytic replays).
        self.sent = 0
        self.round_size = 0
        self.interval = 1
        #: Probe-measured pacing: flows sharing a link do not slow
        #: each other.
        self.iso_interval = 1
        self.t0 = 0
        #: Names the armed round to its commit event; 0 while none is
        #: armed, so that a cancelled round's event finds no match.
        self.token = 0
        #: Whether the current round's first packet was a real probe
        #: (False for rounds armed from a memoized-clean signature).
        self.probed = True
        #: Probe-free rounds remaining before the next forced probe.
        self.skips_left = 0
        #: Path signature of the last clean walk (frozen switch set).
        self.sig: frozenset[int] | None = None
        #: Ledger record of the current round's queued draws, if any.
        self.round_run: _DrawRun | None = None
        #: Replay plan of the last clean walk.
        self.plan: _ReplayPlan | None = None
        self.switch_ids: set[int] = set()
        self.draw_sites: list[tuple[Any, Any]] = []


class FluidScheduler:
    """Advances warm flows analytically between cache-relevant events.

    Constructed by :class:`~repro.vnet.network.VirtualNetwork` when
    ``NetworkConfig.fidelity == "hybrid"``; ``network.fluid`` is None
    in pure-packet mode and nothing in this module runs.
    """

    #: Minimum analytically-advanceable packets beyond the window for a
    #: flow to be worth adopting.
    min_span = 32
    #: Adoption attempts per flow before giving up (flows whose path
    #: crosses a gateway ToR draw learning RNG per packet and can
    #: never walk clean; this caps the retry cost).
    max_attempts = 8
    #: Consecutive clean probes a (src, dst) VIP pair must produce
    #: before its path signature is memoized for probe skipping.
    warmup_clean_target = 2
    #: Real-packet windows batched between adoption retries while a
    #: pair is still warming up: cold caches mutate on most packets,
    #: so re-probing every other window just burns walks.  Warmup
    #: escalations do not charge the flow's adoption-attempt budget.
    warmup_batch_windows = 4
    #: Dirty warmup probes tolerated per pair before escalations start
    #: charging the adoption-attempt budget again (bounds pairs that
    #: never warm, e.g. under constant conflict eviction).
    warmup_probe_cap = 4
    #: A flow with a memoized-clean path signature re-walks a real
    #: probe at least every ``probe_every``-th round.
    probe_every = 8

    def __init__(self, network: VirtualNetwork) -> None:
        self.network = network
        self.engine = network.engine
        self.collector = network.collector
        self.scheme = network.scheme
        #: Host time spent in this module; the runner folds it into the
        #: caller's timer after the run, as phase "fluid".
        self.perf = BusyClock()
        #: What a walk snapshots, bound once: cache lookup, and scheme
        #: counters (baselines have none of them).
        self._cache_of = getattr(self.scheme, "cache_of", None)
        self._scheme_counts = (
            attrgetter(*_SCHEME_DIRTY)
            if any(hasattr(self.scheme, name) for name in _SCHEME_DIRTY)
            else None)
        #: Whose ``rng_draws`` a walk diffs around each switch hook; a
        #: scheme without a learning stream reads as one that never draws.
        self._drawer = (self.scheme if hasattr(self.scheme, "rng_draws")
                        else _NO_DRAWS)
        # Escalation bookkeeping (surfaced via RunResult and profile).
        self.adoptions = 0
        self.escalations = 0
        self.escalations_by_reason: dict[str, int] = {}
        self.rounds = 0
        #: Packets advanced analytically (never individually simulated).
        self.fluid_packets = 0
        self.adoption_rejects = 0
        #: Rounds armed without a probe walk (memoized-clean paths).
        self.probe_skips = 0
        self._flows: dict[int, _FluidFlow] = {}
        self._by_switch: dict[int, set[int]] = {}
        #: Warmup ledger: ``(src_vip, dst_vip) -> (clean_streak,
        #: dirty_probes)``; drives escalation batching and decides when
        #: a pair's path signature becomes memoizable.
        self._warmup: dict[tuple[int, int], tuple[int, int]] = {}
        #: Path signatures proven clean ``warmup_clean_target`` times
        #: in a row; wiped wholesale by every escalation entry point.
        self._clean_sigs: set[frozenset[int]] = set()
        #: Pending analytic learning draws of every flow.
        self._draws = _DrawLedger(self.scheme)
        self._walking = False
        self._walking_ctx: _WalkContext | None = None
        self._deferred: list[int] = []
        self._ready: bool | None = None
        self._install_hooks()

    # ------------------------------------------------------------------
    # readiness + hook installation
    # ------------------------------------------------------------------
    def _install_hooks(self) -> None:
        fabric = self.network.fabric
        fabric.on_fault = self._on_fabric_fault
        attach = getattr(self.scheme, "set_cache_observer", None)
        if attach is not None:
            attach(self._observer_for)

    def ready(self) -> bool:
        """Can this scheme's flows be adopted at all?

        Requires the scheme to declare ``fluid_compatible``: every
        state it mutates is observed (its caches through the observers
        :meth:`_install_hooks` attached).
        """
        if self._ready is None:
            self._ready = bool(getattr(self.scheme, "fluid_compatible", False))
        return self._ready

    def _observer_for(self, switch_id: int):
        def on_mutate() -> None:
            self._on_cache_mutation(switch_id)
        return on_mutate

    def _on_cache_mutation(self, switch_id: int) -> None:
        if self._walking:
            # A probe's own walk mutated a cache: mark the walk dirty
            # and defer escalating co-located flows until the walk
            # finishes (escalation re-enters the transports, which
            # must not interleave with walk bookkeeping).
            ctx = self._walking_ctx
            if ctx is not None:
                ctx.mutated = True
            self._deferred.append(switch_id)
            return
        self.escalate_switch(switch_id, "cache-mutation")

    def _on_fabric_fault(self) -> None:
        self.escalate_all("fault")

    # ------------------------------------------------------------------
    # escalation entry points (network/fault hooks)
    # ------------------------------------------------------------------
    # Every entry point wipes the clean-signature memo before anything
    # else: the triggering event may have dirtied any memoized path —
    # including paths of flows not currently registered — and probe
    # skipping is only exact while no such event occurred since the
    # last real probe.
    # ``sorted(flow_ids)``: a copy, because escalating unregisters the
    # flow from that very set, in an order that is a function of the
    # ids rather than of the set's insertion history.
    def escalate_switch(self, switch_id: int, reason: str) -> None:
        self._clean_sigs.clear()
        flow_ids = self._by_switch.get(switch_id)
        if not flow_ids:
            return
        for flow_id in sorted(flow_ids):
            flow = self._flows.get(flow_id)
            if flow is not None:
                self.perf.time(self._escalate, flow, reason)

    def escalate_all(self, reason: str) -> None:
        self._clean_sigs.clear()
        for flow in list(self._flows.values()):
            self.perf.time(self._escalate, flow, reason)

    def _process_deferred(self) -> None:
        while self._deferred:
            self.escalate_switch(self._deferred.pop(), "cache-mutation")

    # ------------------------------------------------------------------
    # adoption
    # ------------------------------------------------------------------
    def adopt_reliable(self, sender: Any) -> None:
        """Take over a drained, max-cwnd reliable flow.

        Called by ``ReliableSender.on_ack`` once the fluid-wait drain
        completes (``snd_una == snd_next`` and every sent packet has
        been acknowledged exactly once).  Either the flow is adopted
        (round armed, sender dormant) or the sender is restored
        and resumed before this returns — the caller does nothing
        either way.
        """
        self.perf.time(self._adopt_reliable, sender)

    def _adopt_reliable(self, sender: Any) -> None:
        record = sender.record
        receiver = sender.fluid_receiver
        window = int(sender.config.max_cwnd)
        base = sender.snd_next
        span = sender.total_packets - base - window
        if (not self.ready() or receiver is None
                or span < self.min_span
                or receiver.rcv_next != base):
            self._escalate_resume_reliable(sender, base, 0)
            return
        flow = _FluidFlow(
            record.flow_id, sender, receiver, record,
            record.src_vip, record.dst_vip, sender.config.mss_bytes,
            base, span, window,
        )
        sender._fluid_active = True
        self._draws.commit_due(self.engine._now)
        if self._begin_round(flow, adopting=True):
            self.adoptions += 1
        else:
            self.adoption_rejects += 1

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def _begin_round(self, flow: _FluidFlow, adopting: bool = False) -> bool:
        """Walk one probe and, if clean, arm an analytic round.

        Returns True when a round was armed; False when the probe was
        dirty and the flow was handed back to packet level (the
        transport is already restored and running on return).  The
        caller has drained the draw ledger at this instant.
        """
        status, ctx, rtt = self._walk_round(flow)
        if status == _ST_CLEAN:
            flow.plan = ctx.plan
            flow.draw_sites = ctx.draw_sites
            flow.sig = frozenset(ctx.switches)
            flow.iso_interval = max(1, rtt // flow.window, ctx.bottleneck_ns)
            if adopting:
                self._register(flow, ctx.switches)
            elif not ctx.switches <= flow.switch_ids:
                self._register_switches(flow, ctx.switches)
            key = (flow.src_vip, flow.dst_vip)
            streak, dirty = self._warmup.get(key, (0, 0))
            self._warmup[key] = (streak + 1, dirty)
            if streak + 1 >= self.warmup_clean_target:
                self._clean_sigs.add(flow.sig)
                flow.skips_left = self.probe_every - 1
            self._commit_arm(flow, probed=True)
            self._process_deferred()
            return True
        # Dirty probe: hand the flow back.  The probe packet is real
        # and already accounted (walked to completion, re-injected into
        # the live simulation, or consumed with drop accounting).
        if status == _ST_MUTATED:
            # Data (and ACK, for reliable) fully walked: the probe
            # behaved exactly like a packet-mode packet.
            flow.sent += 1
            inflight = 0
            reason = "probe-mutated"
        elif status == _ST_DATA_DIVERTED:
            inflight = 1
            reason = "probe-diverted"
        elif status == _ST_DATA_CONSUMED:
            inflight = 1
            reason = "probe-consumed"
        elif status == _ST_ACK_DIVERTED:
            inflight = 1
            reason = "ack-diverted"
        else:
            inflight = 1
            reason = "ack-consumed"
        warming = False
        if status == _ST_MUTATED:
            # Cold-start signature: the pair's caches are still
            # populating.  Reset the clean streak, and while the dirty-
            # probe cap holds, batch a wider stretch of real packets
            # before the next probe instead of charging the attempt
            # budget ("-warmup" escalations in the per-reason stats).
            key = (flow.src_vip, flow.dst_vip)
            streak, dirty = self._warmup.get(key, (0, 0))
            warming = (streak < self.warmup_clean_target
                       and dirty < self.warmup_probe_cap)
            self._warmup[key] = (0, dirty + 1)
            if warming:
                reason = "probe-mutated-warmup"
        if flow.sig is not None:
            self._clean_sigs.discard(flow.sig)
        self._escalate_finish(flow, reason, inflight,
                              registered=not adopting, warmup=warming)
        self._process_deferred()
        return False

    def _commit_arm(self, flow: _FluidFlow, probed: bool) -> None:
        """Arm the flow's next round: its commit event and its draws.

        Pushes the event onto the calendar itself, as links do (hence
        an audited name).  The pacing is the probe-measured interval.
        """
        n = flow.span - flow.sent
        if n > flow.window:
            n = flow.window
        interval = flow.iso_interval
        engine = self.engine
        now = engine._now
        flow.round_size = n
        flow.interval = interval
        flow.t0 = now
        flow.probed = probed
        # A calendar event, not a cancellable timer: nearly every round
        # runs to its end, so lazy cancellation is cheaper than a timer's
        # frame on every firing and entry removal on every cancel.
        self.rounds += 1
        flow.token = token = self.rounds
        engine._push((now + n * interval, engine._sequence, self._commit,
                      (flow, token)))
        engine._sequence += 1
        # The probe packet (when real) drew live during its walk, so a
        # probed round queues packets ``1..n-1``; a skipped round's
        # packets are all analytic (``0..n-1``).
        sites = flow.draw_sites
        flow.round_run = (self._draws.add_run(now, interval, 1 if probed else 0,
                                              n, sites) if sites else None)

    def _commit(self, flow: _FluidFlow, token: int) -> None:
        """Round event fired; that of a cancelled round names no round
        still armed (lazy deletion) and does nothing."""
        if token == flow.token:
            self.perf.time(self._commit_round, flow)

    def _commit_round(self, flow: _FluidFlow) -> None:
        """Replay the round's plan and begin the next round."""
        flow.token = 0
        n = flow.round_size
        # A skipped round's "probe" slot is analytic too: replay
        # the plan for all n packets instead of n - 1.
        self._commit_deltas(flow, n - 1 if flow.probed else n)
        flow.sent += n
        flow.round_run = None
        # This instant's drain; the next round arms after it.
        draws = self._draws
        now = self.engine._now
        if now >= draws.next_due:
            draws.commit_due(now)
        if flow.flow_id not in self._flows:
            # A replayed draw triggered a real cache insert and
            # the mutation observer escalated this very flow;
            # the transport is already restored at base + sent.
            return
        if flow.sent >= flow.span:
            # Tail handoff: the next send is due exactly now.
            self._escalate_finish(flow, "tail", 0, registered=True)
        elif flow.skips_left > 0 and flow.sig in self._clean_sigs:
            # Memoized-clean path: arm without a probe walk (at least
            # every ``probe_every``-th round still probes).
            flow.skips_left -= 1
            self.probe_skips += 1
            self._commit_arm(flow, probed=False)
        else:
            self._begin_round(flow)

    def _commit_deltas(self, flow: _FluidFlow, times: int) -> None:
        """Apply the flow's replay plan ``times`` more times.

        The plan was produced by a verified-idempotent walk, so
        replication is exact: ``times`` analytic packets would each
        have applied precisely these counter movements.
        """
        if times <= 0:
            return
        (traffic, hosts, record, payload, receiver, deliveries, hops,
         latency_ns, latencies, goodput, caches, layer_hits) = flow.plan
        for link, packets, size in traffic:
            link.packets += packets * times
            link.bytes += size * times
        for host in hosts:
            host.packets_sent += times
        record.bytes_received += payload * times
        receiver.rcv_next += times
        collector = self.collector
        collector.deliveries += deliveries * times
        collector.delivered_hops += hops * times
        collector.packet_latency_sum_ns += latency_ns * times
        collector.packet_latency_count += latencies * times
        collector.delivered_payload_bytes += goodput * times
        for stats, lookups, hits, rejections in caches:
            stats.lookups += lookups * times
            stats.hits += hits * times
            stats.rejections += rejections * times
        for counter, layer, amount in layer_hits:
            counter[layer] += amount * times
        self.fluid_packets += times

    # ------------------------------------------------------------------
    # escalation core
    # ------------------------------------------------------------------
    def _escalate(self, flow: _FluidFlow, reason: str) -> None:
        """External escalation: stop mid-round and restore the transport."""
        if flow.token:
            flow.token = 0
            # The probe (packet 1 of the round) is always through;
            # credit analytic packets for the elapsed fraction.
            elapsed = self.engine._now - flow.t0
            partial = 1 + elapsed // flow.interval
            n = flow.round_size
            if partial > n:
                partial = n
            elif partial < 1:
                partial = 1
            # A skipped round's "probe" slot is analytic too.
            self._commit_deltas(flow,
                                partial - 1 if flow.probed else partial)
            flow.sent += partial
        run = flow.round_run
        flow.round_run = None
        self._escalate_finish(flow, reason, 0, registered=True)
        # Credited packets' draws (those due by now) replay once the
        # flow is unregistered, here or in an enclosing drain, so a
        # trigger cannot re-enter it; the cancelled rest die.
        if run is not None:
            run.truncate(self.engine._now)
        self._draws.commit_due(self.engine._now)

    def _escalate_finish(self, flow: _FluidFlow, reason: str,
                         inflight: int, registered: bool,
                         warmup: bool = False) -> None:
        """Unregister + hand the transport back to packet level."""
        if registered:
            self._unregister(flow)
        self.escalations += 1
        by = self.escalations_by_reason
        by[reason] = by.get(reason, 0) + 1
        sender = flow.sender
        if reason != "tail":
            # Warmup escalations batch a wider stretch of real-packet
            # windows instead of charging the adoption-attempt budget:
            # the pair's caches are still populating, and the batch
            # both warms them and amortizes the next probe walk.
            if not warmup:
                sender._fluid_attempts += 1
            batch = self.warmup_batch_windows if warmup else 2
            sender._fluid_retry_seq = (flow.base + flow.sent
                                       + batch * flow.window)
        self._escalate_resume_reliable(sender, flow.base + flow.sent, inflight)

    def _escalate_resume_reliable(self, sender: Any, pos: int,
                                  inflight: int) -> None:
        """Point the sender at ``pos`` and let ack-clocking resume.

        ``inflight`` is 1 when the probe at ``pos`` is still alive in
        the real simulation (diverted data or ACK): the sender must
        treat it as outstanding so the eventual ACK — or a retransmit
        timeout — drives recovery through the normal transport paths.
        """
        sender._fluid_active = False
        sender._fluid_wait = False
        if sender.done:
            return
        sender.snd_una = pos
        sender.snd_next = pos + inflight
        sender.acks_received = pos
        sender.dup_acks = 0
        sender.rto_ns = sender.config.initial_rto_ns
        sender._send_window()
        sender._arm_timer()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(self, flow: _FluidFlow, switches: set[int]) -> None:
        self._flows[flow.flow_id] = flow
        self._register_switches(flow, switches)

    def _register_switches(self, flow: _FluidFlow,
                           switches: set[int]) -> None:
        for switch_id in switches:
            if switch_id not in flow.switch_ids:
                flow.switch_ids.add(switch_id)
                self._by_switch.setdefault(switch_id, set()).add(flow.flow_id)

    def _unregister(self, flow: _FluidFlow) -> None:
        self._flows.pop(flow.flow_id, None)
        for switch_id in flow.switch_ids:
            ids = self._by_switch.get(switch_id)
            if ids is not None:
                ids.discard(flow.flow_id)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _walk_round(self, flow: _FluidFlow):
        """Walk one data probe and its ACK.

        Returns ``(status, ctx, rtt_ns)``.  All effects the walk
        applies are real — on a CLEAN outcome they are exactly the
        effects one packet-mode packet (pair) would have applied, and
        ``ctx.plan`` replays them for the rest of the round.
        """
        ctx = self._walk_open()
        self._walking = True
        self._walking_ctx = ctx
        try:
            seq = flow.base + flow.sent
            sender = flow.sender
            src_host = sender.host
            data = src_host.new_packet(_DATA, flow.flow_id, seq,
                                       flow.payload, flow.src_vip,
                                       flow.dst_vip)
            result, d_data, dst_host = self._walk_packet(ctx, src_host, data)
            if result != _DELIVERED:
                status = (_ST_DATA_DIVERTED if result == _DIVERTED
                          else _ST_DATA_CONSUMED)
                return self._walk_close(flow, ctx, status, 0)
            # Delivered at the destination host: apply the receiver
            # bookkeeping the endpoint would have, *without* emitting a
            # real ACK (the ACK is walked below; ``_max_seen`` and
            # reorder accounting are deliberately left untouched so
            # straggler packets still in flight compare against
            # pre-adoption state).
            flow.record.bytes_received += flow.payload
            receiver = flow.receiver
            receiver.rcv_next += 1
            ack = dst_host.new_packet(_ACK, flow.flow_id, receiver.rcv_next,
                                      0, flow.dst_vip, flow.src_vip)
            result, d_ack, _ = self._walk_packet(ctx, dst_host, ack)
            if result != _DELIVERED:
                status = (_ST_ACK_DIVERTED if result == _DIVERTED
                          else _ST_ACK_CONSUMED)
                return self._walk_close(flow, ctx, status, d_data)
            return self._walk_close(flow, ctx, _ST_CLEAN, d_data + d_ack)
        finally:
            self._walking = False
            self._walking_ctx = None

    def _walk_packet(self, ctx: _WalkContext, origin: Host, packet: Packet):
        """Advance one real packet from ``origin`` to delivery, inline.

        Mirrors ``Host.send`` → ``Link.transmit`` → ``Switch.receive``
        hop by hop, applying the same counter effects by hand (traffic
        and senders recorded in ``ctx``, the rest diffed by
        :meth:`_walk_close`) and calling the real scheme hooks.  A hook
        that moved the scheme's ``rng_draws`` makes its switch a draw
        site, with the packet fields the draw read.
        The link/destination checks run *before* a link's effects are
        applied, so a packet handed back to the live simulation
        (``_DIVERTED``) is never double-counted: the real
        ``Link.transmit`` performs its own accounting on re-injection.

        Returns ``(result, elapsed_ns, delivery_host_or_None)``.
        """
        engine = self.engine
        traffic = ctx.traffic
        cache_of = self._cache_of
        cache_before = ctx.cache_before
        drawer = self._drawer
        packet.outer_src = origin.pip
        packet.created_at = engine._now
        handler = origin.handler
        if handler is not None:
            handler.on_host_send(origin, packet)
        origin.packets_sent += 1
        ctx.hosts.append(origin)
        if packet.outer_dst == UNRESOLVED:
            origin.unroutable_drops += 1
            ctx.mutated = True
            return _CONSUMED, 0, None
        link = origin.uplink
        if link is None:
            ctx.mutated = True
            return _CONSUMED, 0, None
        node: Any = origin
        elapsed = 0
        hops = 0
        vip = packet.dst_vip
        while True:
            if not link.up or link._loss_rng is not None:
                # Down or lossy link: give the packet back to the real
                # data plane at the time it would have reached here.
                self._reinject_transmit(elapsed, node, link, packet)
                return _DIVERTED, elapsed, None
            dst = link.dst
            is_switch = isinstance(dst, Switch)
            if not is_switch and not (isinstance(dst, Host)
                                      and 0 <= vip < len(dst.placement)
                                      and dst.placement[vip] == dst.pip):
                # Gateway, or a host that no longer holds the VM: the
                # real simulation handles translation/misdelivery.
                self._reinject_transmit(elapsed, node, link, packet)
                return _DIVERTED, elapsed, None
            if is_switch and dst._slow_ns:
                # Gray-slow switch: the held-then-forwarded pipeline
                # reorders against concurrent traffic, so replay the
                # hop (and everything after it) at packet level.
                self._reinject_transmit(elapsed, node, link, packet)
                return _DIVERTED, elapsed, None
            size = packet._wire_bytes
            ser = link.serialization_ns(size)
            link.packets += 1
            link.bytes += size
            packets, total = traffic.get(link, (0, 0))
            traffic[link] = (packets + 1, total + size)
            elapsed += ser + link.propagation_ns
            if ser > ctx.bottleneck_ns:
                ctx.bottleneck_ns = ser
            if not is_switch:
                # Final host: deliver through the real observer chain
                # (collector counters, oracle probes) with the packet
                # back-dated so its measured latency equals ``elapsed``.
                packet.created_at = engine._now - elapsed
                if dst.on_deliver is not None:
                    dst.on_deliver(packet)
                return _DELIVERED, elapsed, dst
            switch = dst
            if switch._failed:
                switch.stats.refuse(packet)
                ctx.mutated = True
                return _CONSUMED, elapsed, None
            packet.hops += 1
            ctx.switches.add(switch.switch_id)
            if cache_of is not None:
                # Snapshot the cache's stats before its hook runs.
                cache = cache_of(switch)
                if cache is not None and cache.stats not in cache_before:
                    cache_before[cache.stats] = _cache_counts(cache.stats)
            hook = switch.hook
            if hook is not None:
                drawn = drawer.rng_draws
                if not hook(packet, link):
                    ctx.mutated = True
                    return _CONSUMED, elapsed, None
                if drawer.rng_draws != drawn:
                    ctx.draw_sites.append((switch, _DrawTemplate(
                        packet.outer_src, packet.dst_vip, packet.outer_dst)))
            if packet._misdelivery_tag:
                self._reinject_forward(elapsed, switch, packet)
                return _DIVERTED, elapsed, None
            hops += 1
            if hops > _HOP_CAP:
                self._reinject_forward(elapsed, switch, packet)
                return _DIVERTED, elapsed, None
            egress = switch.next_hop(packet)
            if egress is None:
                switch.stats.drops += 1
                ctx.mutated = True
                return _CONSUMED, elapsed, None
            node = switch
            link = egress

    def _walk_open(self) -> _WalkContext:
        """Snapshot, in C, what the walk's opaque calls may move."""
        ctx = _WalkContext()
        collector = self.collector
        ctx.collector_before = _collector_counts(collector)
        ctx.hits_before = tuple(collector.hits_by_layer.items())
        ctx.first_hits_before = tuple(
            collector.first_packet_hits_by_layer.items())
        if self._scheme_counts is not None:
            ctx.scheme_before = self._scheme_counts(self.scheme)
        return ctx

    def _walk_close(self, flow: _FluidFlow, ctx: _WalkContext,
                    status: int, rtt: int):
        """Diff the opaque-call snapshots, detect mutation, and close a
        clean walk into its replay plan."""
        if status != _ST_CLEAN:
            return status, ctx, rtt
        collector = self.collector
        moved = tuple(map(sub, _collector_counts(collector),
                          ctx.collector_before))
        if any(moved[_DELIVERY_INTS:]):
            ctx.mutated = True
        counts = self._scheme_counts
        if counts is not None:
            after = counts(self.scheme)
            if after != ctx.scheme_before:
                for name, diff in zip(_SCHEME_DIRTY,
                                      map(sub, after, ctx.scheme_before)):
                    # Draws replay when each was a switch hook's, one per
                    # recorded site; one that *triggered* also moved
                    # learning_packets_sent (or fired on_mutate).
                    if diff and not (name == "rng_draws"
                                     and diff == len(ctx.draw_sites)):
                        ctx.mutated = True
        caches = []
        for stats, before in ctx.cache_before.items():
            after = _cache_counts(stats)
            if after != before:
                lookups, hits, rejections, *changes = map(sub, after, before)
                if any(changes):
                    ctx.mutated = True
                caches.append((stats, lookups, hits, rejections))
        if ctx.mutated:
            return _ST_MUTATED, ctx, rtt
        layer_hits: list[tuple[Any, Any, int]] = []
        self._walk_diff_counter(layer_hits, collector.hits_by_layer,
                                ctx.hits_before)
        self._walk_diff_counter(layer_hits,
                                collector.first_packet_hits_by_layer,
                                ctx.first_hits_before)
        traffic = ctx.traffic
        ctx.plan = _ReplayPlan(
            # ``(link, packets, bytes)`` triples, zipped in C.
            tuple(zip(traffic, *zip(*traffic.values()))),
            tuple(ctx.hosts), flow.record, flow.payload, flow.receiver,
            *moved[:_DELIVERY_INTS], tuple(caches), tuple(layer_hits))
        return status, ctx, rtt

    @staticmethod
    def _walk_diff_counter(entries: list[tuple[Any, Any, int]], counter: Any,
                           before: tuple[tuple[Any, int], ...]) -> None:
        if tuple(counter.items()) == before:
            return
        old = dict(before)
        for key, after in counter.items():
            diff = after - old.get(key, 0)
            if diff:
                entries.append((counter, key, diff))

    # ------------------------------------------------------------------
    # re-injection (diverted probes rejoin the live simulation)
    # ------------------------------------------------------------------
    def _reinject_transmit(self, elapsed: int, node: Any, link: Link,
                           packet: Packet) -> None:
        self.engine.schedule_after(elapsed, self._reinject_transmit_now,
                                   node, link, packet)

    def _reinject_transmit_now(self, node: Any, link: Link,
                               packet: Packet) -> None:
        if not link.transmit(packet) and isinstance(node, Switch):
            node.stats.drops += 1

    def _reinject_forward(self, elapsed: int, switch: Switch,
                          packet: Packet) -> None:
        self.engine.schedule_after(elapsed, switch.forward, packet)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict[str, Any]:
        return {
            "adoptions": self.adoptions,
            "adoption_rejects": self.adoption_rejects,
            "escalations": self.escalations,
            "escalations_by_reason": dict(
                sorted(self.escalations_by_reason.items())),
            "rounds": self.rounds,
            "fluid_packets": self.fluid_packets,
            "probe_skips": self.probe_skips,
            "warm_pairs": sum(
                1 for streak, _dirty in self._warmup.values()
                if streak >= self.warmup_clean_target),
            "active_flows": len(self._flows),
        }
