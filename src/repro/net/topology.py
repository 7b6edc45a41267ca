"""Fat-tree fabric construction and switch-to-switch path computation.

The builder produces the two-level-pod + core fabric the paper
evaluates on (Table 3): each pod has ``racks_per_pod`` ToR switches and
``spines_per_pod`` spine switches in a full bipartite mesh; cores are
partitioned into one group per spine index, and core group *j* connects
spine *j* of every pod (the classic fat-tree wiring).  Gateways attach
to a designated *gateway ToR* (the last rack) in each gateway pod,
matching the paper's Figure 8 layout where pod 8's switch 8 is the
gateway ToR.

The fabric is purely physical: hosts and gateways are attached later by
the virtualization layer (:mod:`repro.vnet.network`), keeping the
layering identical to a real deployment where the overlay is built on
an existing underlay.  Like a switch-to-switch cable, a server and its
two links are made the first time something asks for them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.net.addresses import make_pip, pip_host
from repro.net.link import Link
from repro.net.node import Layer, Node, Switch, ecmp_index
from repro.sim.engine import Engine


@dataclass(frozen=True)
class FatTreeSpec:
    """Parameters of a fat-tree fabric.

    Defaults correspond to the paper's FT8-10K topology scaled by
    server count (8 pods x 4 racks x 4 servers = 128 servers, 32 ToRs,
    32 spines, 16 cores = 80 switches; gateways in pods 1,3,6,8 —
    zero-based 0,2,5,7).
    """

    pods: int = 8
    racks_per_pod: int = 4
    servers_per_rack: int = 4
    spines_per_pod: int = 4
    num_cores: int = 16
    gateway_pods: tuple[int, ...] = (0, 2, 5, 7)
    gateways_per_pod: int = 10
    host_link_bps: float = 100e9
    fabric_link_bps: float = 400e9
    propagation_ns: int = 1_000
    buffer_bytes: int = 32 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.pods < 1:
            raise ValueError("need at least one pod")
        if self.num_cores and self.num_cores % self.spines_per_pod != 0:
            raise ValueError(
                f"num_cores ({self.num_cores}) must be a multiple of "
                f"spines_per_pod ({self.spines_per_pod}) for group wiring"
            )
        for pod in self.gateway_pods:
            if not 0 <= pod < self.pods:
                raise ValueError(f"gateway pod {pod} outside [0, {self.pods})")

    @property
    def num_servers(self) -> int:
        return self.pods * self.racks_per_pod * self.servers_per_rack

    def server_pips(self) -> list[int]:
        """Every server's PIP, in ``(pod, rack, index)`` order."""
        return [make_pip(pod, rack, index)
                for pod in range(self.pods)
                for rack in range(self.racks_per_pod)
                for index in range(self.servers_per_rack)]

    @property
    def num_gateways(self) -> int:
        return len(self.gateway_pods) * self.gateways_per_pod

    @property
    def num_switches(self) -> int:
        return self.pods * (self.racks_per_pod + self.spines_per_pod) + self.num_cores

    @property
    def gateway_rack(self) -> int:
        """Rack index of the gateway ToR within gateway pods."""
        return self.racks_per_pod - 1


class Fabric:
    """A fat-tree switch fabric, cabled on first use, with host attachment
    points."""

    def __init__(self, engine: Engine, spec: FatTreeSpec) -> None:
        self.engine = engine
        self.spec = spec
        self.tors: dict[tuple[int, int], Switch] = {}
        self.spines: dict[tuple[int, int], Switch] = {}
        self.cores: list[Switch] = []
        self.switches: list[Switch] = []
        self.switch_by_id: dict[int, Switch] = {}
        #: Cores per spine index: spine *j* of every pod cables to cores
        #: ``j * group_size`` up to ``(j + 1) * group_size``.
        self.group_size = (spec.num_cores // spec.spines_per_pod
                           if spec.spines_per_pod else 0)
        #: Count of currently-active faults (failed switches, downed
        #: links).  While zero, ``next_hop`` skips the deeper down-path
        #: liveness checks.
        self.fault_count = 0
        #: Lossy links plus slowed switches: gray faults (see :meth:`guard`).
        self.gray_count = 0
        #: Set by a scheme whose data packets follow a ``route_path`` (DhtStore).
        self.routed_data = False
        #: Zero-arg observer fired on every fault transition (hybrid
        #: fidelity: path validity may have changed for any fluid flow).
        self.on_fault = None
        #: ``make_server(pip)`` attaches the server at ``pip`` (see
        #: :meth:`host_port`); set by the network that owns the servers.
        self.make_server: Callable[[int], object] | None = None
        self._build()

    def note_fault(self, delta: int) -> None:
        """Record a fault appearing (+1) or clearing (-1).

        Every transition sets the switches' guard (see :meth:`guard`)
        and flushes their exact-route memos.  Exact routes do not depend
        on liveness; they go anyway, so "a memo never outlives a fault
        transition" has no exception to remember.
        """
        self.fault_count += delta
        if self.fault_count < 0:  # defensive: unmatched recover calls
            self.fault_count = 0
        for switch in self.switches:
            if switch._route_memo:
                switch._route_memo.clear()
        self.guard()
        cb = self.on_fault
        if cb is not None:
            cb()

    def note_gray(self, delta: int) -> None:
        """Record a link turning lossy or a switch slowing (+1), one
        healing (-1), or neither (0)."""
        self.gray_count += delta
        self.guard()

    def guard(self) -> None:
        """Run every switch's guarded ``Switch.receive`` body while a
        fault, gray fault or routed data is live.  A flag, not a class
        swap: a packet in flight holds the switch's one bound ``receive``."""
        guarded = bool(self.fault_count or self.gray_count or self.routed_data)
        for switch in self.switches:
            switch._guarded = guarded

    def set_link_state(self, link: Link, up: bool) -> None:
        """Take a link down / bring it up, with fault accounting."""
        if link.up == up:
            return
        link.up = up
        self.note_fault(-1 if up else 1)

    def impair_links(self, links: list[Link], loss_rate: float, rng,
                     extra_ns: int | None = None) -> None:
        """Gray-degrade a cable: random loss on its links and, when
        ``extra_ns`` is given, inflated propagation delay (0 heals).

        The links stay up, so this is not a fault-count transition, but
        the hybrid engine must still observe it: a memoized-clean path
        over them is no longer replayable (loss diverts; latency is
        read live by the walk).  One ``on_fault`` ping per call.
        """
        for link in links:
            link.set_loss(loss_rate, rng)
            if extra_ns is not None:
                link.set_extra_latency(extra_ns)
        cb = self.on_fault
        if cb is not None:
            cb()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_switch(self, name: str, layer: Layer, pod: int, index: int) -> Switch:
        switch = Switch(name, len(self.switches), layer, pod, index)
        switch.fabric = self
        self.switches.append(switch)
        self.switch_by_id[switch.switch_id] = switch
        return switch

    def _build(self) -> None:
        """Create every switch and its port tables, and no cable.

        Switch port tables are flat lists (rack -> link at spines, pod
        -> link at cores): the index domains are bounded by the spec,
        so a list replaces the hash table on the per-hop forwarding
        path.  Each port holds None until :meth:`port` first makes its
        link: a k=32 run crosses a few per cent of its 32 768
        switch-to-switch links.
        """
        spec = self.spec
        for pod in range(spec.pods):
            for rack in range(spec.racks_per_pod):
                tor = self.tors[(pod, rack)] = self._new_switch(
                    f"tor-p{pod}r{rack}", Layer.TOR, pod, rack)
                tor.up_links = [None] * spec.spines_per_pod
            for j in range(spec.spines_per_pod):
                spine = self.spines[(pod, j)] = self._new_switch(
                    f"spine-p{pod}s{j}", Layer.SPINE, pod, j)
                spine.down_links = [None] * spec.racks_per_pod
                spine.up_links = [None] * self.group_size
        for c in range(spec.num_cores):
            core = self._new_switch(f"core-{c}", Layer.CORE, -1, c)
            core.pod_links = [None] * spec.pods
            self.cores.append(core)

    def peer(self, switch: Switch, links: list[Link | None], index: int) -> Switch:
        """The switch at the far end of port ``links[index]`` of ``switch``.

        ToR port *j* reaches spine *j* of its pod; spine *j*'s down port
        *r* reaches rack *r* and its up port *i* core *i* of group *j*;
        core *c*'s port *p* reaches pod *p*'s spine of the core's group.
        """
        layer = switch.layer
        if layer == Layer.TOR:
            return self.spines[(switch.pod, index)]
        if layer == Layer.CORE:
            return self.spines[(index, switch.rack // self.group_size)]
        if links is switch.down_links:
            return self.tors[(switch.pod, index)]
        return self.cores[switch.rack * self.group_size + index]

    def port(self, switch: Switch, links: list[Link | None], index: int) -> Link | None:
        """``links[index]``, a port table of ``switch``, with its link
        made on first use; None for an index past the table's end.
        ``index`` is never negative: PIP fields are masked, an ECMP
        choice is a modulo, and :meth:`link_between` checks its own.

        Every switch-to-switch link is made here.  Until then the port
        behaves as an idle link that is up, lossless and at base
        latency, which is what a made link starts as; faults reach a
        link only through :meth:`link_between`, which makes it.
        """
        try:
            link = links[index]
        except IndexError:
            return None
        if link is None:
            spec = self.spec
            peer = self.peer(switch, links, index)
            link = links[index] = Link(self.engine, switch, peer, spec.fabric_link_bps,
                                       spec.propagation_ns, spec.buffer_bytes)
            peer.stats.ingress += (link,)
        return link

    # ------------------------------------------------------------------
    # host / gateway attachment
    # ------------------------------------------------------------------
    def attach_host(self, node: Node, pod: int, rack: int, host_index: int,
                    rate_bps: float | None = None) -> tuple[int, Link]:
        """Attach ``node`` under ToR (pod, rack) at ``host_index``: make
        its uplink and the ToR's host port to it.  Gateways are attached
        when the network is built, a server when it is first asked for
        (see :meth:`host_port`).

        Returns:
            The assigned PIP and the node's uplink to its ToR.
        """
        spec = self.spec
        pip = make_pip(pod, rack, host_index)
        tor = self.tors[(pod, rack)]
        if pip in tor.host_links:
            raise ValueError(f"host slot already taken: pod={pod} rack={rack} "
                             f"host={host_index}")
        rate = rate_bps if rate_bps is not None else spec.host_link_bps
        uplink = Link(self.engine, node, tor, rate, spec.propagation_ns,
                      spec.buffer_bytes)
        tor.stats.ingress += (uplink,)
        downlink = Link(self.engine, tor, node, rate, spec.propagation_ns,
                        spec.buffer_bytes)
        tor.host_links[pip] = downlink
        return pip, uplink

    def host_port(self, tor: Switch, pip: int) -> Link | None:
        """``tor``'s port to the server at ``pip``, a PIP of its rack
        that has none yet: the server and its two links are made now.
        None if ``pip`` names no server (a slot past the rack's servers)
        or no network makes servers on this fabric.

        Until then the server behaves as an idle, healthy one, which is
        what a made server starts as: its links are up, lossless and at
        base latency, and it has sent and received nothing.
        """
        make = self.make_server
        if make is None or pip_host(pip) >= self.spec.servers_per_rack:
            return None
        make(pip)
        return tor.host_links[pip]

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def tor_of(self, pod: int, rack: int) -> Switch:
        return self.tors[(pod, rack)]

    def link_between(self, a: Node, b: Node) -> Link:
        """The directed link from switch ``a`` to switch ``b``: ``a``'s
        port at ``b``'s position (see :meth:`peer`), made on first use.

        Raises:
            KeyError: naming both ends, if ``a`` and ``b`` are not two
                switches of this fabric that share a cable; nothing is
                made then.
        """
        if isinstance(a, Switch) and isinstance(b, Switch) and a.fabric is self:
            if a.layer == Layer.TOR:
                links, index = a.up_links, b.rack
            elif a.layer == Layer.CORE:
                links, index = a.pod_links, b.pod
            elif b.layer == Layer.TOR:
                links, index = a.down_links, b.rack
            else:
                links, index = a.up_links, b.rack - a.rack * self.group_size
            if 0 <= index < len(links) and self.peer(a, links, index) is b:
                return self.port(a, links, index)
        ends = " to ".join(f"switch {node.switch_id}" if isinstance(node, Switch)
                           else repr(node) for node in (a, b))
        raise KeyError(f"no link from {ends}")

    def links(self) -> Iterator[Link]:
        """Every link that exists: each switch's ports made so far, each
        ToR's host ports (its gateways' and those of the servers made so
        far), and the uplink of the server or gateway at the other end
        of a host port."""
        for switch in self.switches:
            for down in switch.host_links.values():
                yield down
                uplink = getattr(down.dst, "uplink", None)
                if uplink is not None:
                    yield uplink
            for ports in (switch.up_links, switch.down_links, switch.pod_links):
                for link in ports:
                    if link is not None:
                        yield link

    def gateway_tor_ids(self) -> set[int]:
        """Switch ids of gateway ToRs (paper §3.2: role assignment)."""
        rack = self.spec.gateway_rack
        return {self.tors[(pod, rack)].switch_id for pod in self.spec.gateway_pods}

    def gateway_spine_ids(self) -> set[int]:
        """Switch ids of spines directly attached to a gateway ToR."""
        return {self.spines[(pod, j)].switch_id
                for pod in self.spec.gateway_pods
                for j in range(self.spec.spines_per_pod)}

    # ------------------------------------------------------------------
    # switch-to-switch paths (invalidation packet routing, §3.3)
    # ------------------------------------------------------------------
    def path_from_tor(self, tor: Switch, target: Switch, key: int) -> list[Link]:
        """Hop-by-hop links from ``tor`` to an arbitrary ``target`` switch.

        Invalidation packets are addressed to switches, not hosts, so
        the generating ToR computes the route explicitly (it can: PIPs
        and switch identifiers encode topology coordinates).
        """
        if tor.layer != Layer.TOR:
            raise ValueError(f"paths originate at ToRs, got {tor}")
        if target is tor:
            return []
        spec = self.spec
        group_size = self.group_size

        if target.layer == Layer.TOR:
            j = ecmp_index(key, 17, spec.spines_per_pod)
            first = self.spines[(tor.pod, j)]
            if target.pod == tor.pod:
                return [self.link_between(tor, first),
                        self.link_between(first, target)]
            core = self.cores[j * group_size + ecmp_index(key, 31, group_size)]
            far = self.spines[(target.pod, j)]
            return [self.link_between(tor, first),
                    self.link_between(first, core),
                    self.link_between(core, far),
                    self.link_between(far, target)]

        if target.layer == Layer.SPINE:
            j = target.rack
            local = self.spines[(tor.pod, j)]
            if target.pod == tor.pod:
                return [self.link_between(tor, local)]
            core = self.cores[j * group_size + ecmp_index(key, 31, group_size)]
            return [self.link_between(tor, local),
                    self.link_between(local, core),
                    self.link_between(core, target)]

        # Core target: reachable via this pod's spine of the core's group.
        j = target.rack // group_size
        local = self.spines[(tor.pod, j)]
        return [self.link_between(tor, local),
                self.link_between(local, target)]
