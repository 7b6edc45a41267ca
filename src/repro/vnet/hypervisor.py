"""End-host hypervisors (virtual switches).

The hypervisor encapsulates tenant packets into the IP-in-IP tunnel,
chooses the outer destination (directly, from a local cache, or a
gateway — scheme-dependent), and delivers arriving packets to the VMs
it hosts.  It also implements the two end-host behaviours the paper's
update protocol relies on (§3.3 and §5.2):

* *misdelivery handling*: a packet for a VM that no longer lives here
  is re-forwarded after a processing delay (10 us in the paper), either
  to the new location via a "follow-me" rule (Andromeda-style; used by
  the NoCache/OnDemand/Direct baselines) or to a gateway (SwitchV2P);
* *follow-me rules*: installed by the control plane at the old host
  just before a migration.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol

from repro.net.addresses import UNRESOLVED
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine, usec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link

DEFAULT_FORWARD_DELAY_NS = usec(10)

#: Pre-bound kind bound: DATA(0)/ACK(1) are deliverable, anything above
#: is control traffic a host ignores.
_ACK = PacketKind.ACK


class HostHandler(Protocol):
    """Scheme hooks executed at end hosts."""

    def on_host_send(self, host: Host, packet: Packet) -> None:
        """Choose the packet's outer destination before transmission."""
        ...  # pragma: no cover - protocol

    def on_misdelivery(self, host: Host, packet: Packet) -> None:
        """Re-forward a packet whose destination VM moved away."""
        ...  # pragma: no cover - protocol


class Endpoint(Protocol):
    """A packet consumer bound to a VIP (transport receiver/sender)."""

    def on_packet(self, packet: Packet) -> None:
        ...  # pragma: no cover - protocol


class Host(Node):
    """A physical server running a hypervisor and, per the database, VMs.

    It runs VIP ``v`` exactly when the mapping database maps ``v`` to
    its PIP.  ``placement`` and ``endpoints`` are the network's, only
    read here.

    Attributes:
        pip: physical address (assigned when attached to the fabric).
        placement: the mapping database's table, a list indexed by VIP
            (entry ``v`` is VIP ``v``'s PIP, or None), written by
            :class:`~repro.vnet.mapping.MappingDatabase` only.
        endpoints: the network's VIP -> transport receiver table; an
            endpoint follows its VIP, so a migration moves nothing here.
        follow_me: VIP -> new PIP redirection rules the control plane
            installs as VMs migrate away; None until the first one.
    """

    __slots__ = (
        "engine",
        "pip",
        "uplink",
        "placement",
        "endpoints",
        "follow_me",
        "handler",
        "forward_delay_ns",
        "on_deliver",
        "on_misdeliver",
        "misdeliveries",
        "packets_sent",
        "unroutable_drops",
    )

    def __init__(self, name: str, engine: Engine, placement: list[int | None],
                 endpoints: dict[int, Endpoint],
                 forward_delay_ns: int = DEFAULT_FORWARD_DELAY_NS) -> None:
        super().__init__(name)
        self.engine = engine
        self.pip = -1
        self.uplink: Link | None = None
        self.placement = placement
        self.endpoints = endpoints
        self.follow_me: dict[int, int] | None = None
        self.handler: HostHandler | None = None
        self.forward_delay_ns = forward_delay_ns
        #: Observer invoked on every successful local delivery (metrics).
        self.on_deliver: Callable[[Packet], None] | None = None
        #: Observer invoked when a packet arrives for a VM not present.
        self.on_misdeliver: Callable[[Packet], None] | None = None
        self.misdeliveries = 0
        self.packets_sent = 0
        #: Packets the scheme could not address at all (e.g. no
        #: surviving gateway): hard-dropped here instead of being
        #: garbage-routed into the fabric.
        self.unroutable_drops = 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def new_packet(self, kind: PacketKind, flow_id: int, seq: int,
                   payload_bytes: int, src_vip: int, dst_vip: int) -> Packet:
        """Make a DATA/ACK packet originating here."""
        return Packet(kind, flow_id, seq, payload_bytes, src_vip, dst_vip,
                      self.pip)

    def send(self, packet: Packet) -> None:
        """Encapsulate and transmit a packet originated by a local VM."""
        packet.outer_src = self.pip
        packet.created_at = self.engine._now
        if self.handler is not None:
            self.handler.on_host_send(self, packet)
        self.packets_sent += 1
        if packet.outer_dst == UNRESOLVED:
            self.unroutable_drops += 1
            return
        if self.uplink is not None:
            self.uplink.transmit(packet)

    def reforward(self, packet: Packet) -> None:
        """Put a re-forwarded (misdelivered) packet back on the wire.

        The outer source is deliberately left as the original sender's
        PIP: the ToR detects that the packet did not originate from the
        attached server and stamps the misdelivery tag (paper §3.3).
        """
        if packet.outer_dst == UNRESOLVED:
            self.unroutable_drops += 1
            return
        if self.uplink is not None:
            self.uplink.transmit(packet)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link=None) -> None:
        if packet.kind > _ACK:
            return
        vip = packet.dst_vip
        try:
            # A negative VIP would wrap to the last entry; one past the
            # end raises.  Either runs nowhere.
            here = vip >= 0 and self.placement[vip] == self.pip
        except IndexError:
            here = False
        if here:
            if self.on_deliver is not None:
                self.on_deliver(packet)
            endpoint = self.endpoints.get(vip)
            if endpoint is not None:
                endpoint.on_packet(packet)
            return
        # The destination VM is not (or no longer) here: hypervisor
        # re-forwards after its processing delay.
        self.misdeliveries += 1
        if self.on_misdeliver is not None:
            self.on_misdeliver(packet)
        self.engine.schedule_after(self.forward_delay_ns, self._handle_misdelivery,
                                   packet)

    def _handle_misdelivery(self, packet: Packet) -> None:
        if self.handler is not None:
            self.handler.on_misdelivery(self, packet)
