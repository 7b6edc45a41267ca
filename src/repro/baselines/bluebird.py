"""Bluebird: ToR data-plane route cache + control-plane slow path (paper §5).

Bluebird (NSDI'22) keeps V2P state in ToR switches: hits are resolved
in the data plane; misses are punted to the switch control plane (the
SFE), which knows the full table, forwards the packet itself and
installs the mapping back into the data plane.  Per the paper's setup
we model a 20 Gbps data-to-control channel, 8.5 us control-plane
forwarding latency and 2 ms cache-insertion latency.  The scheme never
uses gateways; its weakness under bursty traffic is the bandwidth-
limited punt channel, which drops packets when saturated.
"""

from __future__ import annotations

from repro.baselines.caching import CachingScheme
from repro.net.node import Layer, Switch, SwitchHook
from repro.net.packet import Packet
from repro.sim.engine import msec, usec
from repro.vnet.hypervisor import Host
from repro.vnet.network import VirtualNetwork

DEFAULT_PUNT_BPS = 20e9
DEFAULT_CPU_LATENCY_NS = usec(8.5)
DEFAULT_INSERT_LATENCY_NS = msec(2)
DEFAULT_PUNT_BUFFER_BYTES = 1024 * 1024


class Bluebird(CachingScheme):
    """ToR route caches with a rate-limited control-plane slow path."""

    name = "Bluebird"

    def __init__(
        self,
        total_cache_slots: int,
        punt_bps: float = DEFAULT_PUNT_BPS,
        cpu_latency_ns: int = DEFAULT_CPU_LATENCY_NS,
        insert_latency_ns: int = DEFAULT_INSERT_LATENCY_NS,
        punt_buffer_bytes: int = DEFAULT_PUNT_BUFFER_BYTES,
    ) -> None:
        super().__init__(total_cache_slots)
        self.punt_bps = punt_bps
        self.cpu_latency_ns = cpu_latency_ns
        self.insert_latency_ns = insert_latency_ns
        self.punt_buffer_bytes = punt_buffer_bytes
        self._punt_busy_until: dict[int, int] = {}
        self.punted_packets = 0
        self.punt_drops = 0

    def caching_switch_ids(self, network: VirtualNetwork):
        return [switch.switch_id for switch in network.fabric.switches
                if switch.layer == Layer.TOR]

    def setup(self, network: VirtualNetwork) -> None:
        super().setup(network)
        self._punt_busy_until = {switch_id: 0 for switch_id in self.caches}

    def on_host_send(self, host: Host, packet: Packet) -> None:
        # The sender's ToR resolves everything; no gateway involved.
        # The outer destination stays at the sender until the ToR
        # rewrites it (self-address keeps routing well-defined).
        packet.outer_dst = host.pip
        packet.resolved = False

    def bind_hook(self, switch: Switch) -> SwitchHook | None:
        """ToRs serve hits and punt misses; other switches only forward."""
        cache = self.caches.get(switch.switch_id)
        if cache is None:
            return None

        def hook(packet: Packet, ingress) -> bool:
            if not self.is_traffic(packet) or packet.resolved \
                    or self.try_resolve(switch, packet, cache):
                return True
            return self._punt(switch, packet)
        return hook

    def _punt(self, switch: Switch, packet: Packet) -> bool:
        """Send a missing packet through the data-to-control channel."""
        assert self.network is not None
        engine = self.network.engine
        now = engine.now
        busy = self._punt_busy_until.get(switch.switch_id, 0)
        backlog_ns = max(0, busy - now)
        backlog_bytes = backlog_ns * self.punt_bps / 8e9
        size = packet.wire_bytes
        if backlog_bytes + size > self.punt_buffer_bytes:
            self.punt_drops += 1
            switch.stats.drops += 1
            return False
        start = busy if busy > now else now
        finish = start + int(round(size * 8e9 / self.punt_bps))
        self._punt_busy_until[switch.switch_id] = finish
        self.punted_packets += 1
        engine.schedule(finish + self.cpu_latency_ns, self._cpu_forward,
                        switch, packet)
        return False

    def _cpu_forward(self, switch: Switch, packet: Packet) -> None:
        """Control plane resolves, forwards, and installs the mapping."""
        assert self.network is not None
        pip = self.network.database.get(packet.dst_vip)
        if pip is None:
            return
        self.resolve(packet, pip)
        switch.forward(packet)
        self.network.engine.schedule_after(
            self.insert_latency_ns, self._install, switch.switch_id, packet.dst_vip)

    def _install(self, switch_id: int, vip: int) -> None:
        """Install the mapping into the route cache after the SFE delay."""
        assert self.network is not None
        pip = self.network.database.get(vip)
        cache = self.caches.get(switch_id)
        if pip is not None and cache is not None:
            cache.insert(vip, pip)
