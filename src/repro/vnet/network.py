"""The assembled virtual network: fabric + hosts + gateways + mappings.

:class:`VirtualNetwork` is the top-level simulation object.  It builds
the physical fabric from a :class:`~repro.net.topology.FatTreeSpec`,
attaches the configured gateways and, the first time something asks
for it, one :class:`~repro.vnet.hypervisor.Host` per server, owns the
authoritative mapping database, and wires a *translation scheme*
(SwitchV2P or any baseline) into every node's hooks.  Transports and
trace players then drive traffic through it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import cycle, islice
from types import SimpleNamespace

from repro.metrics.collector import Collector
from repro.net.addresses import split_pip
from repro.net.node import ecmp_index
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Fabric, FatTreeSpec
from repro.sim.engine import Engine, collector_paused, usec
from repro.sim.randomness import RandomStreams
from repro.vnet.failover import GatewayFailureDetector
from repro.vnet.gateway import Gateway
from repro.vnet.hypervisor import Endpoint, Host
from repro.vnet.mapping import MappingDatabase

_DATA = PacketKind.DATA


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to instantiate a simulated virtual network."""

    spec: FatTreeSpec = field(default_factory=FatTreeSpec)
    gateway_processing_ns: int = usec(40)
    host_forward_delay_ns: int = usec(10)
    seed: int = 0
    #: Simulation fidelity: ``"packet"`` simulates every packet
    #: discretely (bit-identical to historical behaviour); ``"hybrid"``
    #: lets the fluid scheduler advance warm reliable flows
    #: analytically, escalating back to packet level on cache-relevant
    #: events (see :mod:`repro.sim.fluid`).
    fidelity: str = "packet"

    def __post_init__(self) -> None:
        if self.fidelity not in ("packet", "hybrid"):
            raise ValueError(
                f"fidelity must be 'packet' or 'hybrid', got {self.fidelity!r}")


class VirtualNetwork:
    """A simulated data center running one V2P translation scheme.

    Args:
        config: topology and latency parameters.
        scheme: a translation scheme implementing the host/switch hooks
            (see :class:`repro.baselines.base.TranslationScheme`).
        collector: metrics sink; a fresh one is created if omitted.
    """

    def __init__(self, config: NetworkConfig, scheme, collector: Collector | None = None):
        self.config = config
        self.scheme = scheme
        self.collector = collector if collector is not None else Collector()
        self.streams = RandomStreams(config.seed)
        self.database = MappingDatabase()
        #: VIP -> transport endpoint (see ``TrafficPlayer``): an
        #: endpoint follows its VIP, so every host reads this one table.
        self.endpoints: dict[int, Endpoint] = {}
        #: Stand-in for the deleted PacketPool, read by
        #: ``bench/layers.py::network_counts`` only (its
        #: ``packet.pool_recycle_rate`` row, which now reads 0); no
        #: packet touches it.  It goes when a benchmark PR drops the row.
        self.packet_pool = SimpleNamespace(allocated=0, recycled=0)
        #: The servers made so far, by PIP, in the order they were
        #: made.  A server is made the first time something asks for it
        #: (:meth:`host`); until then it is an idle, healthy server.
        self.host_by_pip: dict[int, Host] = {}
        #: ``watcher(host)`` runs for each server as it is made (the
        #: oracles probe every server's deliveries).
        self.host_watchers: list[Callable[[Host], None]] = []
        self.gateways: list[Gateway] = []
        #: Gateways the hypervisors currently believe are healthy (the
        #: load-balancing pool).  Failure detection moves gateways out
        #: and back in; with no detector the pool never changes.
        self.live_gateways: list[Gateway] = []
        self.failure_detector: GatewayFailureDetector | None = None
        self.gateway_failovers = 0
        #: Anti-entropy auditor reconciling switch caches against the
        #: authoritative database; None until enabled.
        self.anti_entropy = None
        self._gateway_salt = int(self.streams.stream("gateway-lb").integers(0, 2**31))
        #: Per-flow gateway choice memo; ``gateway_for`` is a pure
        #: function of (flow_id, salt, pool), so entries stay valid
        #: until the live pool changes (failover/reinstatement), which
        #: clears the memo.
        self._gateway_memo: dict[int, Gateway] = {}
        #: Hybrid-fidelity fluid scheduler; None in pure-packet mode so
        #: every hot-path hook reduces to one attribute test.
        self.fluid = None
        # All of this lives as long as the network: a collector scan
        # in between frees nothing, and at k=32 rescans 200 000 objects.
        with collector_paused():
            self.engine = Engine()
            self.fabric = Fabric(self.engine, config.spec)
            self.fabric.make_server = self.host
            self._build_gateways()
            self.live_gateways = list(self.gateways)
            self._wire_scheme()
            if config.fidelity == "hybrid":
                from repro.sim.fluid import FluidScheduler
                self.fluid = FluidScheduler(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def host(self, pip: int) -> Host:
        """The server at ``pip``, made, attached and wired the first
        time it is asked for.

        Raises:
            KeyError: if ``pip`` names no server of the spec.
        """
        host = self.host_by_pip.get(pip)
        if host is not None:
            return host
        spec = self.config.spec
        pod, rack, index = split_pip(pip)
        if not (pip >= 0 and pod < spec.pods and rack < spec.racks_per_pod
                and index < spec.servers_per_rack):
            raise KeyError(f"no server has pip {pip}")
        host = Host(f"host-p{pod}r{rack}h{index}", self.engine,
                    self.database.table, self.endpoints,
                    self.config.host_forward_delay_ns)
        host.pip, host.uplink = self.fabric.attach_host(host, pod, rack, index)
        host.uplink._src_is_host = True
        host.handler = self.scheme
        host.on_deliver = self._on_host_deliver
        host.on_misdeliver = self._on_host_misdeliver
        self.host_by_pip[host.pip] = host
        for watcher in self.host_watchers:
            watcher(host)
        return host

    @property
    def hosts(self) -> list[Host]:
        """Every server, in ``(pod, rack, index)`` order: reading this
        makes each one not made yet."""
        return [self.host(pip) for pip in self.config.spec.server_pips()]

    def _build_gateways(self) -> None:
        spec = self.config.spec
        rack = spec.gateway_rack
        for pod in spec.gateway_pods:
            for index in range(spec.gateways_per_pod):
                self._attach_gateway(f"gw-p{pod}g{index}", pod, rack,
                                     spec.servers_per_rack + index)
        if not self.gateways:
            raise ValueError("topology has no gateways; every scheme needs at "
                             "least one translation gateway")

    def _attach_gateway(self, name: str, pod: int, rack: int,
                        host_index: int) -> Gateway:
        gateway = Gateway(name, self.engine, self.database,
                          self.config.gateway_processing_ns)
        gateway.pip, gateway.uplink = self.fabric.attach_host(
            gateway, pod, rack, host_index)
        gateway.on_packet = self.collector.record_gateway_arrival
        self.gateways.append(gateway)
        return gateway

    def _wire_scheme(self) -> None:
        # Set-up first: assigning a switch its handler binds the
        # switch's hook, which closes over what set-up built (caches,
        # roles).
        self.scheme.setup(self)
        for switch in self.fabric.switches:
            switch.handler = self.scheme

    def _on_host_deliver(self, packet: Packet) -> None:
        collector = self.collector
        collector.deliveries += 1
        collector.delivered_hops += packet.hops
        if packet.kind is _DATA:
            collector.packet_latency_sum_ns += self.engine._now - packet.created_at
            collector.packet_latency_count += 1
            collector.delivered_payload_bytes += packet.payload_bytes

    def _on_host_misdeliver(self, packet: Packet) -> None:
        self.collector.record_misdelivery(self.engine._now)

    # ------------------------------------------------------------------
    # VM placement and migration (control plane)
    # ------------------------------------------------------------------
    def place_vms(self, count: int) -> None:
        """Place ``count`` VMs round-robin across all servers.

        VIP ``v`` lands on server ``v % num_servers`` (in ``(pod, rack,
        index)`` order), which yields the uniform VMs-per-server
        placement the paper's trace setup uses.  A host runs what the
        database maps to it, so placement writes PIPs and makes no
        server, and the first placement is one
        :meth:`MappingDatabase.load`, with no call per VM.
        """
        pips = self.config.spec.server_pips()
        if count and not pips:
            raise ValueError("topology has no servers to place VMs on")
        database = self.database
        if database.version:
            for vip in range(count):
                database.set(vip, pips[vip % len(pips)])
            return
        with collector_paused():
            database.load(islice(cycle(pips), count))

    def place_vm(self, vip: int, host: Host) -> None:
        self.database.set(vip, host.pip)

    def host_of(self, vip: int) -> Host:
        """The host currently running ``vip`` (authoritative view)."""
        try:
            return self.host_by_pip[self.database.lookup(vip)]
        except KeyError:  # not made yet
            return self.host(self.database.lookup(vip))

    def migrate(self, vip: int, target: Host) -> None:
        """Move a VM: follow-me at the old host, then update the DB.

        Matches the Andromeda-style migration the paper assumes (§3.3):
        the follow-me rule is installed before the mapping update so
        packets are never black-holed.
        """
        old_host = self.host_of(vip)
        if old_host is target:
            return
        if self.fluid is not None:
            self.fluid.escalate_all("vm-migration")
        if old_host.follow_me is None:
            old_host.follow_me = {}
        old_host.follow_me[vip] = target.pip
        self.database.set(vip, target.pip)

    # ------------------------------------------------------------------
    # gateway fault tolerance (hypervisor-side failover, §2.4)
    # ------------------------------------------------------------------
    def enable_gateway_failover(self, **detector_kwargs) -> GatewayFailureDetector:
        """Start hypervisor-side gateway health probing (idempotent).

        Without this, a crashed gateway silently black-holes its share
        of traffic forever; with it, hypervisors detect the crash after
        a few missed probes (exponential backoff) and re-balance flows
        over the surviving gateways.
        """
        if self.failure_detector is None:
            self.failure_detector = GatewayFailureDetector(
                self, **detector_kwargs)
            self.failure_detector.start()
        return self.failure_detector

    def set_gateway_brownout(self, gateway: Gateway, drop_rate: float,
                             extra_ns: int) -> None:
        """Put ``gateway`` into (or, with zeros, out of) a brownout.

        The shed decision draws from the named ``gateway-brownout``
        stream so runs are reproducible for a fixed seed.  The fluid
        path already diverts every gateway-bound packet, so no extra
        escalation is needed for RNG parity; flows are still escalated
        because their steady-state service latency changed.
        """
        rng = self.streams.stream("gateway-brownout") if drop_rate > 0.0 else None
        gateway.set_brownout(drop_rate, extra_ns, rng)
        if self.fluid is not None:
            self.fluid.escalate_all("gateway-brownout")

    def enable_anti_entropy(self, period_ns: int, staleness_bound_ns: int = 0):
        """Start the periodic cache-vs-database reconciliation audit.

        Idempotent; returns the :class:`repro.core.AntiEntropyAuditor`.
        See that class for the bounded-staleness argument.
        """
        if self.anti_entropy is None:
            from repro.core.antientropy import AntiEntropyAuditor
            self.anti_entropy = AntiEntropyAuditor(
                self, period_ns, staleness_bound_ns=staleness_bound_ns)
            self.anti_entropy.start()
        return self.anti_entropy

    def mark_gateway_down(self, gateway: Gateway) -> None:
        """Remove a gateway from the load-balancing pool (failover)."""
        if gateway in self.live_gateways:
            self.live_gateways.remove(gateway)
            self._gateway_memo.clear()
            self.gateway_failovers += 1
            if self.fluid is not None:
                self.fluid.escalate_all("gateway-change")

    def mark_gateway_up(self, gateway: Gateway) -> None:
        """Reinstate a recovered gateway into the pool."""
        if gateway in self.gateways and gateway not in self.live_gateways:
            self.live_gateways.append(gateway)
            self._gateway_memo.clear()
            if self.fluid is not None:
                self.fluid.escalate_all("gateway-change")

    # ------------------------------------------------------------------
    # gateway selection
    # ------------------------------------------------------------------
    def gateway_for(self, flow_id: int) -> Gateway | None:
        """Per-flow gateway load balancing, as done by each server (§5).

        Selects among the gateways the hypervisors believe are alive;
        returns None when none survive (callers must hard-drop, the
        packet has nowhere to resolve).
        """
        gateway = self._gateway_memo.get(flow_id)
        if gateway is not None:
            return gateway
        pool = self.live_gateways
        if not pool:
            return None
        gateway = pool[ecmp_index(flow_id, self._gateway_salt, len(pool))]
        self._gateway_memo[flow_id] = gateway
        return gateway

    # ------------------------------------------------------------------
    # running and finalizing
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run the simulation, then fold node counters into the collector."""
        end = self.engine.run(until=until, max_events=max_events)
        self.finalize()
        return end

    def finalize(self) -> None:
        """Aggregate per-node counters into the metrics collector (a
        server not made yet has sent and misdelivered nothing)."""
        collector = self.collector
        hosts = self.host_by_pip.values()
        collector.packets_sent = sum(host.packets_sent for host in hosts)
        collector.misdeliveries = sum(host.misdeliveries for host in hosts)
        collector.drops = sum(switch.stats.drops for switch in self.fabric.switches)
        collector.gateway_crash_drops = sum(
            gateway.dropped_while_failed for gateway in self.gateways)
        collector.gateway_brownout_drops = sum(
            gateway.dropped_brownout for gateway in self.gateways)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def pod_switch_bytes(self) -> list[dict[str, int]]:
        """Bytes processed by each switch of each pod, spines then ToRs
        (Figures 7 and 8)."""
        spec = self.config.spec
        fabric = self.fabric
        # One label string per position, shared by every pod's dict.
        spines = [f"spine-{j}" for j in range(spec.spines_per_pod)]
        tors = [f"tor-{rack}" for rack in range(spec.racks_per_pod)]
        pods = []
        for pod in range(spec.pods):
            by_switch = {label: fabric.spines[(pod, j)].stats.bytes
                         for j, label in enumerate(spines)}
            for rack, label in enumerate(tors):
                if pod in spec.gateway_pods and rack == spec.gateway_rack:
                    label = "gateway-tor"
                by_switch[label] = fabric.tors[(pod, rack)].stats.bytes
            pods.append(by_switch)
        return pods

    def total_switch_bytes(self) -> int:
        """Bytes processed by all switches (bandwidth-overhead metric)."""
        return sum(switch.stats.bytes for switch in self.fabric.switches)

    def gateway_pip_set(self) -> set[int]:
        return {gateway.pip for gateway in self.gateways}
