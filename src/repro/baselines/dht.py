"""DhtStore: the in-switch distributed hash table the paper rejected (§2.4).

Before settling on caching, the authors explored storing the *entire*
V2P database across switch memory as a DHT (SEATTLE-style): each VIP's
mapping lives on exactly one resolver switch chosen by hash, kept fresh
by the control plane.  Updates are cheap (one switch per mapping), but:

* every unresolved packet detours through its resolver switch, paying
  extra hops (no "en route" property);
* a resolver failure black-holes its share of the address space until
  the control plane re-replicates (we model the failure window: no
  recovery);
* hot VIPs concentrate load on single switches.

Implementing the rejected design makes §2.4's comparison measurable
(the ``ablation_dht`` entry of ``repro.experiments.artifacts``, and
``tests/test_dht.py``).
"""

from __future__ import annotations

from repro.baselines.base import TranslationScheme
from repro.net.node import Layer, Switch, SwitchHook, ecmp_index
from repro.net.packet import Packet, PacketKind
from repro.vnet.hypervisor import Host
from repro.vnet.network import VirtualNetwork


class DhtStore(TranslationScheme):
    """Whole-database in-switch DHT with per-VIP resolver switches."""

    name = "DhtStore"

    def __init__(self) -> None:
        super().__init__()
        self._switches: list[Switch] = []
        #: Control-plane messages needed per mapping update: exactly one
        #: (the resolver switch) — the design's update-cost advantage.
        self.update_messages = 0
        self.detour_packets = 0

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        self._switches = list(network.fabric.switches)
        network.fabric.routed_data = True  # detours carry a route_path
        network.fabric.guard()
        network.database.subscribe(self._on_mapping_update)

    def _on_mapping_update(self, vip: int, old_pip: int, new_pip: int) -> None:
        self.update_messages += 1

    def resolver_of(self, vip: int) -> Switch:
        """The switch storing ``vip``'s mapping."""
        index = ecmp_index(vip, 0x5bd1e995, len(self._switches))
        return self._switches[index]

    # ------------------------------------------------------------------
    def on_host_send(self, host: Host, packet: Packet) -> None:
        # Mark unresolved and address to the host itself; the sender's
        # ToR computes the detour to the resolver switch.
        packet.outer_dst = host.pip
        packet.resolved = False

    def bind_hook(self, switch: Switch) -> SwitchHook:
        """Every switch may resolve a share of the VIPs; ToRs also send
        unresolved packets on their detour to the resolver."""
        is_tor = switch.layer == Layer.TOR
        assert self.network is not None
        fabric = self.network.fabric

        def hook(packet: Packet, ingress) -> bool:
            if packet.kind not in (PacketKind.DATA, PacketKind.ACK):
                return True
            if packet.resolved:
                return True
            resolver = self.resolver_of(packet.dst_vip)
            if resolver is switch:
                return self._resolve_here(switch, packet)
            if not is_tor:
                # Mid-route without a resolver: should not happen (routes
                # are precomputed at the ToR); drop defensively.
                return True
            if resolver.failed:
                switch.stats.drops += 1
                return False
            route = fabric.path_from_tor(switch, resolver,
                                         key=packet.flow_id)
            if not route:
                return self._resolve_here(switch, packet)
            packet.route_path = route
            packet.route_index = 0
            packet.target_switch = resolver.switch_id
            self.detour_packets += 1
            if not route[0].transmit(packet):
                switch.stats.drops += 1
            return False
        return hook

    def _resolve_here(self, switch: Switch, packet: Packet) -> bool:
        """The resolver switch translates from its (fresh) DHT shard."""
        assert self.network is not None
        pip = self.network.database.get(packet.dst_vip)
        if pip is None:
            switch.stats.drops += 1
            return False
        self.resolve(packet, pip)
        packet.hit_switch = switch.switch_id
        self.network.collector.record_hit(switch.layer,
                                          packet.kind == PacketKind.DATA
                                          and packet.seq == 0)
        return True
