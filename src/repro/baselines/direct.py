"""Direct: the pure host-driven baseline (paper §5).

Every hypervisor is pre-programmed with all V2P mappings (the NVP-style
preprogrammed model), so packets always travel the shortest path.  It
bounds the best achievable network performance while ignoring the cost
of keeping ~all-hosts replicas up to date — the other end of the
paper's Figure 1 tradeoff.

To make that ignored cost measurable, the scheme counts the
control-plane push fan-out it would have required (one update per host
per mapping change).
"""

from __future__ import annotations

from repro.baselines.base import TranslationScheme
from repro.net.packet import Packet
from repro.vnet.hypervisor import Host
from repro.vnet.network import VirtualNetwork


class Direct(TranslationScheme):
    """Hosts resolve every destination locally from a full replica."""

    name = "Direct"

    #: No in-network state at all — every per-packet effect is a pure
    #: function of the mapping database, and database changes reach the
    #: fluid scheduler through the network's migrate hook.
    fluid_compatible = True

    def __init__(self) -> None:
        super().__init__()
        #: Updates the control plane would have pushed to hypervisors
        #: (#hosts per mapping change) — the hidden cost of this design.
        self.control_plane_pushes = 0

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        network.database.subscribe(self._on_mapping_update)

    def _on_mapping_update(self, vip: int, old_pip: int, new_pip: int) -> None:
        assert self.network is not None
        self.control_plane_pushes += self.network.config.spec.num_servers

    def on_host_send(self, host: Host, packet: Packet) -> None:
        assert self.network is not None
        pip = self.network.database.get(packet.dst_vip)
        if pip is None:
            self.send_via_gateway(packet)
            return
        self.resolve(packet, pip)
