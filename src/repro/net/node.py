"""Network nodes: the common node interface and the switch data plane.

A :class:`Switch` implements scheme-agnostic forwarding over a fat-tree
(ToR / spine / core) fabric: ECMP up, deterministic down, host delivery
at ToRs.  All translation-scheme behaviour (cache lookups, learning,
invalidation...) is delegated to the scheme's per-switch hook so that
SwitchV2P and every baseline run on the *same* forwarding substrate,
mirroring the paper's methodology of comparing schemes inside one
simulator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from enum import IntEnum
from typing import TYPE_CHECKING

from repro.net.addresses import _HOST_BITS, _POD_BITS, _POD_SHIFT, _RACK_BITS, pip_pod, pip_rack
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import BUCKET_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import TranslationScheme
    from repro.net.link import Link
    from repro.net.topology import Fabric


class Layer(IntEnum):
    """Position of a switch in the fat-tree hierarchy."""

    TOR = 0
    SPINE = 1
    CORE = 2


# Pre-bound enum members for the per-hop fast path (one LOAD_GLOBAL
# instead of LOAD_GLOBAL + LOAD_ATTR at every switch hop).
_ACK = PacketKind.ACK
_INVALIDATION = PacketKind.INVALIDATION
_LEARNING = PacketKind.LEARNING
_TOR = Layer.TOR
_SPINE = Layer.SPINE

#: What a switch runs on each packet before forwarding it, bound to the
#: switch at scheme set-up: ``hook(packet, ingress)`` returns False to
#: consume the packet.  None means plain forwarding — no call at all.
SwitchHook = Callable[[Packet, "Link | None"], bool]


class Node:
    """Anything a link can deliver packets to."""

    __slots__ = ("name", "_receive")

    def __init__(self, name: str) -> None:
        self.name = name
        #: ``receive`` bound once: every link into this node delivers
        #: through this one object instead of binding its own.
        self._receive = self.receive

    def receive(self, packet: Packet, link: Link | None = None) -> None:
        """Deliver ``packet`` arriving over ``link`` (None for injection)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def ecmp_index(key: int, salt: int, n: int) -> int:
    """Deterministic ECMP hash: pick one of ``n`` equal-cost paths.

    2654435761 % 16 == 1: for a power-of-two ``n`` the pick reads only the
    low log2 ``n`` bits of ``key ^ salt``, and for ``n`` dividing 16 (every
    ECMP fan-out here: 2, 4, 16) it equals ``(key ^ salt) % n``, so
    consecutive flow ids cycle through the paths, unlike a switch hash."""
    mixed = ((key ^ salt) * 2654435761) & 0xFFFFFFFF
    return mixed % n


class SwitchStats:
    """Per-switch traffic counters used by the Figure 7/8 analyses.

    ``drops`` counts its drops, ``refused`` / ``refused_bytes`` those it
    refused while failed.  ``packets`` / ``bytes`` are what its ``ingress``
    links sent it, less what was lost on the wire, refused or is in flight.
    """

    __slots__ = ("drops", "refused", "refused_bytes", "ingress")

    def __init__(self) -> None:
        self.drops = self.refused = self.refused_bytes = 0
        self.ingress: tuple[Link, ...] = ()

    packets = property(lambda self: self._received()[0])
    bytes = property(lambda self: self._received()[1])

    def _received(self) -> tuple[int, int]:
        if not self.ingress:
            return 0, 0
        packets, size = -self.refused, -self.refused_bytes
        for link in self.ingress:
            packets += link.packets - link.lost
            size += link.bytes - link.lost_bytes
        # In flight: pending deliveries to the one receive all its links hold.
        if link.engine.pending_events:
            deliver = link._deliver
            for _at, callback, args in link.engine.iter_pending():
                if callback is deliver:
                    packets -= 1
                    size -= args[0]._wire_bytes
        return packets, size

    def refuse(self, packet: Packet) -> None:
        """Count an arrival refused by the failed switch."""
        self.drops += 1
        self.refused += 1
        self.refused_bytes += packet._wire_bytes


class Switch(Node):
    """A fat-tree switch: forwarding tables plus its scheme's hook.

    Link attachment is performed by the topology builder:

    * ToR: ``host_links`` (PIP -> link; a server's entry appears when
      :meth:`Fabric.host_port` makes the server) and ``up_links`` (to
      pod spines).
    * Spine: ``down_links`` (rack-indexed array of links to ToRs) and
      ``up_links`` (to this spine's core group).
    * Core: ``pod_links`` (pod-indexed array of links to peer spines).

    ``up_links``/``down_links``/``pod_links`` are flat lists sized when
    the fabric is constructed (the topology spec bounds the index
    domains, and valid PIPs can only encode in-range coordinates).  A
    port holds None until :meth:`Fabric.port` makes its link, the first
    time routing, a fault or a route computation asks for it.

    Attributes:
        switch_id: globally unique integer (also used as the identifier
            stamped into packets on cache hits, paper §3.3).
        layer: hierarchy level.
        pod: pod index (ToR and spine only; -1 for cores).
        rack: rack index (ToR only; for spines this is the spine index
            within its pod, for cores the core index).
    """

    __slots__ = (
        "switch_id",
        "layer",
        "pod",
        "rack",
        "host_links",
        "up_links",
        "down_links",
        "pod_links",
        "scheme",
        "hook",
        "stats",
        "fabric",
        "_failed",
        "_slow_ns",
        "_guarded",
        "_prefix_shift",
        "_prefix",
        "_route_memo",
    )

    def __init__(self, name: str, switch_id: int, layer: Layer, pod: int, rack: int) -> None:
        super().__init__(name)
        self.switch_id = switch_id
        self.layer = layer
        self.pod = pod
        self.rack = rack
        self.host_links: dict[int, Link] = {}
        self.up_links: list[Link | None] = []
        self.down_links: list[Link | None] = []
        self.pod_links: list[Link | None] = []
        #: The scheme this switch runs, and its per-packet function for
        #: this switch (see :data:`SwitchHook`): both assigned once, by
        #: :meth:`VirtualNetwork._wire_scheme`.  :meth:`receive`, the
        #: invalidation path and the fluid walk all call the hook and
        #: nothing else.
        self.scheme: TranslationScheme | None = None
        self.hook: SwitchHook | None = None
        self.stats = SwitchStats()
        #: Owning fabric (set at construction by the topology builder):
        #: it makes this switch's links on first use, and says whether
        #: any faults are active (see ``_guarded``).
        self.fabric: Fabric | None = None
        self._failed = False
        #: Gray SWITCH_SLOW state: extra per-packet forwarding delay in
        #: ns (0 = healthy; only the guarded body reads it).
        self._slow_ns = 0
        #: Which body :meth:`receive` runs (see :meth:`Fabric.guard`).
        self._guarded = False
        #: PIPs below this switch, shifted right by ``_prefix_shift``,
        #: equal ``_prefix``: its rack, its pod or, at a core, any PIP.
        self._prefix_shift, self._prefix = (
            (_HOST_BITS, (pod << _RACK_BITS) | rack) if layer == Layer.TOR
            else (_POD_SHIFT, pod) if layer == Layer.SPINE
            else (_POD_SHIFT + _POD_BITS, 0))
        #: Memoized exact routes: outer_dst -> the one link toward it
        #: (host port, rack down-link, pod link).  A pure function of
        #: the destination — liveness never enters it — written by
        #: :meth:`next_hop`; flushed on every fault transition all the
        #: same (see :meth:`Fabric.note_fault`).
        self._route_memo: dict[int, Link] = {}

    # ------------------------------------------------------------------
    # failure / recovery (control plane)
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """Failed switches drop everything; neighbours route around them."""
        return self._failed

    def fail(self) -> None:
        """Take the switch down: SRAM state (caches) is lost immediately."""
        if self._failed:
            return
        self._failed = True
        if self.fabric is not None:
            self.fabric.note_fault(1)
        self._flush_scheme_state()

    def recover(self) -> None:
        """Bring the switch back *cold*: it restarts with empty caches.

        The paper's opportunistic-cache model makes this safe — a
        recovered switch simply re-warms from passing traffic — but it
        must not resurrect pre-failure entries, which may be stale.
        """
        if not self._failed:
            return
        self._failed = False
        if self.fabric is not None:
            self.fabric.note_fault(-1)
        self._flush_scheme_state()

    def _flush_scheme_state(self) -> None:
        if self.scheme is not None:
            self.scheme.on_switch_reset(self)

    def set_slowdown(self, extra_ns: int) -> None:
        """Gray failure: hold every forwarded packet ``extra_ns`` (0 heals).

        Unlike :meth:`fail`, the switch stays up — caches keep serving,
        routing is unchanged — so this is *not* a fault-count
        transition but a gray one.  The hybrid engine must still
        observe it (an analytic walk cannot replicate the hold), hence
        the explicit ``on_fault`` ping that invalidates memoized-clean
        paths.
        """
        if extra_ns < 0:
            raise ValueError(f"negative slowdown: {extra_ns}")
        fabric = self.fabric
        if fabric is not None:
            fabric.note_gray((extra_ns > 0) - (self._slow_ns > 0))
        self._slow_ns = extra_ns
        if fabric is not None and fabric.on_fault is not None:
            fabric.on_fault()

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link | None = None) -> None:
        # Hot path: this body runs once per switch hop for every packet
        # in the simulation, on a fabric with no fault, gray fault or
        # routed data (else ``_guarded``).  ``wire_bytes`` is read
        # through its cache slot (computed at most once per hop, reused
        # by the egress link).
        if self._guarded:
            self._receive_guarded(packet, link)
            return
        packet.hops += 1
        if packet.kind > _ACK:
            self._receive_control(packet, link)
            return

        hook = self.hook
        if hook is not None and not hook(packet, link):
            return
        dst = packet.outer_dst
        egress = self._route_memo.get(dst)
        if egress is None:
            if dst >> self._prefix_shift != self._prefix:
                # Up: _ecmp_up's choice, live here; made on first use.
                ups = self.up_links
                egress = ups[(((packet.flow_id ^ dst ^ self.switch_id)
                               * 2654435761) & 0xFFFFFFFF) % len(ups)] \
                    or self.next_hop(packet)
            else:
                egress = self.next_hop(packet)
                if egress is None:
                    self.stats.drops += 1
                    return
        # Inlined Link.transmit() (see link.py) less its down and loss
        # tests.  The wire size is re-read because the hook may have
        # attached or stripped option words above.  The link is its own
        # stats.
        engine = egress.engine
        now = engine._now
        busy = egress._busy_until
        size = packet._wire_bytes
        pending_ns = busy - now
        backlog = int(pending_ns * egress._rate_bps / 8e9) if pending_ns > 0 else 0
        if backlog + size > egress.buffer_bytes:
            egress.drops += 1
            self.stats.drops += 1
            return
        start = busy if busy > now else now
        ser_ns = egress._ser_cache.get(size)
        if ser_ns is None:
            ser_ns = int(round(size * 8e9 / egress._rate_bps))
            egress._ser_cache[size] = ser_ns
        finish = start + ser_ns
        egress._busy_until = finish
        egress.packets += 1
        egress.bytes += size
        at = finish + egress.propagation_ns
        engine._buckets[at >> BUCKET_SHIFT].append(
            (at, engine._sequence, egress._deliver, (packet, egress)))
        engine._sequence += 1

    def _receive_guarded(self, packet: Packet, link: Link | None) -> None:
        """:meth:`receive` with every check; ``next_hop`` and
        ``Link.transmit`` test liveness, admission and loss."""
        if self._failed:
            self.stats.refuse(packet)
            return
        packet.hops += 1
        if packet.kind > _ACK:
            self._receive_control(packet, link)
            return
        if packet.route_path is not None:
            # Switch-addressed transit (e.g. the DHT design's detour to
            # a resolver switch, §2.4): no per-hop processing until the
            # target is reached.
            if packet.target_switch != self.switch_id:
                self._forward_along_route(packet)
                return
            packet.route_path = None
            packet.target_switch = None

        hook = self.hook
        if hook is not None and not hook(packet, link):
            return
        if self._slow_ns:
            # Gray SWITCH_SLOW holds the packet; it is routed on release,
            # so a fault landing inside the hold is still honoured.
            self.fabric.engine.schedule_after(self._slow_ns, self.forward, packet)
        else:
            self.forward(packet)

    def _forward_along_route(self, packet: Packet) -> None:
        route = packet.route_path
        index = packet.route_index + 1
        if route is None or index >= len(route):
            self.stats.drops += 1
            return
        packet.route_index = index
        if not route[index].transmit(packet):
            self.stats.drops += 1

    def _receive_control(self, packet: Packet, link: Link | None) -> None:
        """Learning and invalidation packets: rare, so spelled plainly."""
        hook = self.hook
        if packet.kind is not _INVALIDATION:
            # A learning packet routes like data, except that one the
            # scheme left unconsumed ends at its ToR (see next_hop),
            # which is why it may not read the exact-route memo.
            if hook is not None and not hook(packet, link):
                return
            if self._slow_ns:
                self.fabric.engine.schedule_after(self._slow_ns,
                                                  self.forward, packet)
            else:
                self.forward(packet)
            return
        # An invalidation: the hook runs at every hop of its route.
        if hook is not None:
            hook(packet, link)
        if packet.target_switch == self.switch_id:
            return
        route = packet.route_path
        if route is None:
            return
        index = packet.route_index + 1
        if index >= len(route):
            return
        packet.route_index = index
        if not route[index].transmit(packet):
            self.stats.drops += 1

    def forward(self, packet: Packet) -> None:
        """Route ``packet`` one hop toward its outer destination."""
        link = self.next_hop(packet)
        if link is None or not link.transmit(packet):
            self.stats.drops += 1

    def next_hop(self, packet: Packet) -> Link | None:
        """Select the egress link for ``packet`` (ECMP up, exact down).

        Equal-cost choices skip candidates whose *entire* deterministic
        remainder is unusable — a down link, a failed peer, or (when
        faults are active) a failed switch/link further along the
        committed down-path.  In real fabrics this liveness is known
        via the routing protocol; here the look-ahead walks the link
        objects directly, making any it reaches.  Packets drop only
        when no equal-cost sibling survives (e.g. the destination ToR
        itself is dead).
        """
        dst = packet.outer_dst
        if dst >> self._prefix_shift != self._prefix:
            return self._ecmp_up(packet, dst)
        layer = self.layer
        if layer == _TOR:
            if packet.kind == _LEARNING:
                # Learning packets terminate at the destination ToR
                # (handled by the scheme hook); reaching here means
                # the scheme left it unconsumed — drop quietly.
                return None
            try:
                link = self.host_links[dst]
            except KeyError:
                # A server nobody has asked for yet: made now, on this
                # route-memo miss, with its two links.
                link = self.fabric.host_port(self, dst)
        elif layer == _SPINE:
            link = self.fabric.port(self, self.down_links, pip_rack(dst))
        else:
            # Core: one link per pod.
            link = self.fabric.port(self, self.pod_links, pip_pod(dst))
        if link is not None:
            # Exact routes depend on the destination alone; receive()
            # reads them back without coming here.
            self._route_memo[dst] = link
        return link

    def _ecmp_up(self, packet: Packet, dst: int) -> Link | None:
        ups = self.up_links
        if not ups:
            return None
        key = packet.flow_id ^ dst
        index = (((key ^ self.switch_id) * 2654435761) & 0xFFFFFFFF) % len(ups)
        choice = ups[index] or self.fabric.port(self, ups, index)
        if self._up_path_usable(choice, dst):
            return choice
        usable = [link for link in _ports(self, ups)
                  if self._up_path_usable(link, dst)]
        if not usable:
            return None
        return usable[ecmp_index(key, self.switch_id, len(usable))]

    def _up_path_usable(self, link: Link, dst: int) -> bool:
        """Is ``link`` a viable equal-cost choice toward ``dst``?

        Checks the immediate hop always; when the fabric reports active
        faults it additionally walks the *deterministic* remainder of
        the path (the down-hops this up-choice commits to), so traffic
        is re-hashed around a failed far-side spine or a cut down-link
        instead of silently dropping on the way down.
        """
        if not link.up:
            return False
        peer = link.dst
        if not isinstance(peer, Switch):
            return True
        if peer._failed:
            return False
        fabric = self.fabric
        if fabric.fault_count == 0:
            return True
        dst_pod = pip_pod(dst)
        if self.layer == Layer.TOR:
            # peer is a pod spine.
            if dst_pod == self.pod:
                return _down_link_usable(fabric.port(peer, peer.down_links,
                                                     pip_rack(dst)))
            # Committing to spine j also commits to core group j and to
            # spine j of the destination pod: need one live core path.
            return any(_core_path_usable(core_link, dst)
                       for core_link in _ports(peer, peer.up_links))
        # Spine: peer is a core; its down-path to dst's pod is fixed.
        return _core_down_usable(peer, dst)

    def is_local_rack(self, pip: int) -> bool:
        """True if ``pip`` belongs to this ToR's rack."""
        return self.layer == Layer.TOR and pip >> self._prefix_shift == self._prefix

    def __repr__(self) -> str:
        return (
            f"Switch({self.name} id={self.switch_id} layer={self.layer.name} "
            f"pod={self.pod} idx={self.rack})"
        )


def _ports(switch: Switch, links: list[Link | None]) -> Iterator[Link]:
    """Every port of ``links``, a port table of ``switch``, in index
    order, each made as it is reached."""
    port = switch.fabric.port
    return (port(switch, links, index) for index in range(len(links)))


def _down_link_usable(link: Link | None) -> bool:
    """A deterministic down-link is usable if up and its peer is alive."""
    if link is None or not link.up:
        return False
    peer = link.dst
    return not (isinstance(peer, Switch) and peer._failed)


def _core_down_usable(core: Switch, dst: int) -> bool:
    """Can ``core`` still deliver toward ``dst``'s pod and rack?"""
    fabric = core.fabric
    pod_link = fabric.port(core, core.pod_links, pip_pod(dst))
    if pod_link is None or not pod_link.up:
        return False
    far_spine = pod_link.dst
    if isinstance(far_spine, Switch):
        if far_spine._failed:
            return False
        return _down_link_usable(fabric.port(far_spine, far_spine.down_links,
                                             pip_rack(dst)))
    return True


def _core_path_usable(core_link: Link, dst: int) -> bool:
    """Spine-to-core candidate: the core and its fixed down-path live?"""
    if not core_link.up:
        return False
    core = core_link.dst
    if not isinstance(core, Switch):
        return True
    if core._failed:
        return False
    return _core_down_usable(core, dst)


