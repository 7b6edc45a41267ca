"""The translation-scheme interface.

A *scheme* decides where V2P mappings live and how packets get
translated: at the sender (Direct/OnDemand), at gateways (NoCache), at
gateway ToRs (GwCache), at every switch greedily (LocalLearning), in
the ToR control plane (Bluebird), by an omniscient controller
(Controller), or collaboratively in the network (SwitchV2P).

All schemes plug into the same three hook points:

* ``on_host_send`` — the sender's hypervisor chooses the outer header;
* ``bind_hook`` — builds the function each switch runs before
  forwarding, once per switch at set-up (None where there is nothing
  to do);
* ``on_misdelivery`` — the old host re-forwards packets for moved VMs.

The base class implements the common gateway-driven behaviour so
subclasses override only what differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.addresses import UNRESOLVED
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.core import SwitchCache
    from repro.net.node import Switch, SwitchHook
    from repro.vnet.hypervisor import Host
    from repro.vnet.network import VirtualNetwork


class TranslationScheme:
    """Base scheme: pure gateway forwarding, follow-me on misdelivery."""

    name = "abstract"

    #: Whether the hybrid-fidelity fluid fast path may adopt flows under
    #: this scheme.  Requires that every piece of per-packet state the
    #: scheme mutates is observable by the fluid scheduler (cache
    #: ``on_mutate`` observers + the dirty counters it snapshots), so
    #: replayed packets provably repeat the probe's effects.  Schemes
    #: with unobservable state keep the default False and hybrid mode
    #: silently degrades to pure packet simulation.
    fluid_compatible = False

    def __init__(self) -> None:
        self.network: VirtualNetwork | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self, network: VirtualNetwork) -> None:
        """Bind to a network; subclasses build caches and roles here."""
        self.network = network

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_host_send(self, host: Host, packet: Packet) -> None:
        """Default: unresolved packets head to a per-flow gateway.

        This is the body of :meth:`send_via_gateway`, inlined: it runs
        once per packet sent, and the extra frame is measurable.
        """
        network = self.network
        gateway = network.gateway_for(packet.flow_id)
        if gateway is None:
            packet.outer_dst = UNRESOLVED
            packet.resolved = False
            network.collector.gateway_unavailable_drops += 1
            return
        packet.outer_dst = gateway.pip
        packet.resolved = False

    def bind_hook(self, switch: Switch) -> SwitchHook | None:
        """The function ``switch`` runs on every packet, or None.

        Asked once per switch, when the network wires the scheme in
        (after :meth:`setup`); the hook may close over whatever set-up
        built for the switch.  None — nothing to do here, the switch
        makes no call at all — is the default: plain forwarding.
        """
        return None

    def on_switch_reset(self, switch: Switch) -> None:
        """A failed or recovered ``switch`` lost its SRAM state.

        Called by :meth:`Switch.fail`/:meth:`Switch.recover`; a scheme
        with per-switch state empties it *in place*, so the hook bound
        at set-up stays valid.  Default: no switch state, nothing to do.
        """

    def cache_of(self, switch: Switch) -> SwitchCache | None:
        """``switch``'s mapping cache, or None (default: no caches)."""
        return None

    def on_misdelivery(self, host: Host, packet: Packet) -> None:
        """Default: Andromeda-style follow-me redirection at the old host."""
        rules = host.follow_me
        new_pip = rules.get(packet.dst_vip) if rules is not None else None
        if new_pip is not None:
            packet.outer_dst = new_pip
            packet.resolved = True
            host.reforward(packet)
            return
        # No rule (e.g. VM gone entirely): fall back to the gateway.
        self.send_misdelivered_via_gateway(host, packet)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def send_via_gateway(self, packet: Packet) -> None:
        """Address ``packet`` to its flow's gateway, unresolved.

        If every gateway has been failed out of the pool the packet is
        left unroutable (``outer_dst`` stays UNRESOLVED); the
        hypervisor hard-drops it and the event is counted, so
        experiments can report availability instead of hanging.
        """
        assert self.network is not None, "scheme not attached to a network"
        gateway = self.network.gateway_for(packet.flow_id)
        if gateway is None:
            packet.outer_dst = UNRESOLVED
            packet.resolved = False
            self.network.collector.gateway_unavailable_drops += 1
            return
        packet.outer_dst = gateway.pip
        packet.resolved = False

    def send_misdelivered_via_gateway(self, host: Host, packet: Packet) -> None:
        """Re-forward a misdelivered packet toward a gateway.

        The stale ``(vip, old_pip)`` pair is carried in-band so caches
        en route can distinguish their entry being stale from having
        already learned the new mapping (paper §3.3).

        The misdelivery tag is reset: each re-forward starts a new
        misdelivery episode, so the ToR re-tags the packet and sends a
        targeted invalidation to ``hit_switch`` — the switch whose
        stale entry just caused *this* bounce.  Without the reset only
        the first episode invalidates, and with two generations of
        stale entries in the fabric (a VM that migrated twice) a packet
        can ping-pong between the two old hosts indefinitely: each old
        host's re-forward is served by a cache holding the *other*
        stale value, which never matches the carried pair.
        """
        packet.carried_mapping = (packet.dst_vip, host.pip)
        packet.misdelivery_tag = False
        self.send_via_gateway(packet)
        host.reforward(packet)

    def resolve(self, packet: Packet, pip: int) -> None:
        """Rewrite the outer destination with a known mapping."""
        packet.outer_dst = pip
        packet.resolved = True

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
