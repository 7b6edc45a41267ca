"""OnDemand: host-driven with a first lookup in the gateway (paper §5).

Resembles VL2's on-demand resolution, the Hoverboard model with an
immediate rule-offloading policy, and Achelous' ALM: the first packet
to an unknown destination detours through a gateway (paying the ~40 us
miss penalty), after which the mapping is installed in the sender's
hypervisor and all subsequent packets go direct.  Host caches are
effectively infinite and are *not* proactively updated on migration —
the controller-side rule push takes milliseconds (Zeta/Achelous), so
within the simulated window stale host entries persist and misrouted
packets rely on follow-me rules (paper §5.2).
"""

from __future__ import annotations

from repro.baselines.base import TranslationScheme
from repro.net.packet import Packet
from repro.sim.engine import usec
from repro.vnet.hypervisor import Host
from repro.vnet.network import VirtualNetwork

#: Delay from the miss until the mapping is usable at the host: the
#: gateway round trip (processing plus base RTT), after which the
#: hypervisor's flow-cache rule is active.
DEFAULT_INSTALL_DELAY_NS = usec(52)


class OnDemand(TranslationScheme):
    """Per-host lazy mapping caches filled on first use."""

    name = "OnDemand"

    def __init__(self, install_delay_ns: int = DEFAULT_INSTALL_DELAY_NS) -> None:
        super().__init__()
        self.install_delay_ns = install_delay_ns
        self._host_caches: dict[int, dict[int, int]] = {}
        self._pending: set[tuple[int, int]] = set()
        self.host_cache_installs = 0

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        self._host_caches = {}
        self._pending.clear()

    def on_host_send(self, host: Host, packet: Packet) -> None:
        try:
            cache = self._host_caches[host.pip]
        except KeyError:  # the host's first send
            cache = self._host_caches[host.pip] = {}
        pip = cache.get(packet.dst_vip)
        if pip is not None:
            self.resolve(packet, pip)
            return
        self.send_via_gateway(packet)
        key = (host.pip, packet.dst_vip)
        if key not in self._pending:
            self._pending.add(key)
            assert self.network is not None
            self.network.engine.schedule_after(
                self.install_delay_ns, self._install, host.pip, packet.dst_vip)

    def _install(self, host_pip: int, vip: int) -> None:
        """Install the mapping as it is known at install time.

        The install models the answer of a gateway round trip, so it
        only succeeds while some gateway is healthy; during a total
        gateway outage the lookup is lost and the next packet to the
        destination retries it.
        """
        assert self.network is not None
        self._pending.discard((host_pip, vip))
        if not any(not gateway.failed for gateway in self.network.gateways):
            return
        pip = self.network.database.get(vip)
        if pip is not None:
            self._host_caches[host_pip][vip] = pip
            self.host_cache_installs += 1

    def cached_mappings(self, host: Host) -> dict[int, int]:
        """The host's current mapping cache (read-only view for tests)."""
        return dict(self._host_caches.get(host.pip, {}))
