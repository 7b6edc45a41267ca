"""Translation gateways.

A gateway is a dedicated server that holds the full, always-fresh V2P
table (via :class:`repro.vnet.mapping.MappingDatabase`) and resolves
packets the network could not.  Following Sailfish's measurements, each
packet spends a fixed *processing latency* (40 us by default) inside
the gateway; throughput is bounded by the gateway's NIC, which the
simulator models as the gateway's access link.  Optionally a serial
service rate can be set to model CPU-bound software gateways.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Engine, usec
from repro.vnet.mapping import MappingDatabase, MappingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link

DEFAULT_PROCESSING_NS = usec(40)


class Gateway(Node):
    """A V2P translation gateway attached under a gateway ToR.

    Attributes:
        pip: the gateway's physical address (assigned at attachment).
        processing_ns: per-packet translation latency.
        service_ns: if nonzero, packets are additionally serialized
            through a single server with this per-packet service time
            (models a CPU-bound gateway); 0 means line-rate pipelining.
    """

    __slots__ = (
        "engine",
        "database",
        "pip",
        "uplink",
        "processing_ns",
        "service_ns",
        "_busy_until",
        "packets_processed",
        "resolution_failures",
        "dropped_while_failed",
        "dropped_brownout",
        "failed",
        "brownout_drop_rate",
        "brownout_extra_ns",
        "_brownout_rng",
        "on_packet",
    )

    def __init__(
        self,
        name: str,
        engine: Engine,
        database: MappingDatabase,
        processing_ns: int = DEFAULT_PROCESSING_NS,
        service_ns: int = 0,
    ) -> None:
        super().__init__(name)
        self.engine = engine
        self.database = database
        self.pip = -1
        self.uplink: Link | None = None
        self.processing_ns = processing_ns
        self.service_ns = service_ns
        self._busy_until = 0
        self.packets_processed = 0
        self.resolution_failures = 0
        #: Packets that arrived while the gateway was crashed (black-
        #: holed until hypervisor-side failover kicks in, §2.4).
        self.dropped_while_failed = 0
        #: Packets shed while browned out (overflowing software queue;
        #: distinct from crash drops so the conservation oracle can
        #: account for them separately).
        self.dropped_brownout = 0
        #: A crashed gateway black-holes everything it receives; the
        #: mapping database itself is external and stays authoritative,
        #: so a restarted gateway resumes immediately.
        self.failed = False
        #: Gray brownout state (overload, not crash): a browned-out
        #: gateway sheds a fraction of arrivals and serves the rest
        #: with inflated processing latency.  Both default off.
        self.brownout_drop_rate = 0.0
        self.brownout_extra_ns = 0
        self._brownout_rng = None
        #: Observer hook invoked for every packet the gateway handles
        #: (schemes/metrics subscribe to count gateway load).
        self.on_packet: Callable[[Packet], None] | None = None

    # ------------------------------------------------------------------
    # failure / recovery (control plane)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the gateway: arriving and in-flight packets are lost."""
        self.failed = True

    def recover(self) -> None:
        """Restart the gateway process (fresh pipeline, same database)."""
        self.failed = False
        self._busy_until = 0

    def set_brownout(self, drop_rate: float, extra_ns: int, rng=None) -> None:
        """Enter (or leave, with zeros) a brownout episode.

        Args:
            drop_rate: fraction of arrivals shed by the overflowing
                software queue, in [0, 1].
            extra_ns: extra per-packet processing latency while the
                gateway is saturated.
            rng: ``random()``-bearing generator for the shed decision;
                required when ``drop_rate`` is positive so drops are
                reproducible for a fixed seed.
        """
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {drop_rate}")
        if extra_ns < 0:
            raise ValueError(f"negative latency inflation: {extra_ns}")
        if drop_rate > 0.0 and rng is None:
            raise ValueError("brownout with positive drop rate needs an rng")
        self.brownout_drop_rate = drop_rate
        self.brownout_extra_ns = extra_ns
        self._brownout_rng = rng if drop_rate > 0.0 else None

    def receive(self, packet: Packet, link=None) -> None:
        packet.gateway_visits += 1
        if self.on_packet is not None:
            # Arrivals are counted even when crashed: the packet did
            # reach the gateway (it is not an in-network hit), it just
            # gets no service.
            self.on_packet(packet)
        if self.failed:
            self.dropped_while_failed += 1
            return
        if self._brownout_rng is not None \
                and self._brownout_rng.random() < self.brownout_drop_rate:
            # Shed by the overflowing software queue; senders see a
            # timeout, not an error, exactly like a crash drop.
            self.dropped_brownout += 1
            return
        self.packets_processed += 1
        # Translation happens on arrival; packets then sit in the
        # processing pipeline for ``processing_ns``.  Resolving up
        # front matters for fidelity: packets buffered inside the
        # gateway during a migration leave with the *old* mapping and
        # are misdelivered, exactly the NoCache behaviour the paper's
        # migration experiment reports (§5.2).
        try:
            true_pip = self.database.lookup(packet.dst_vip)
        except MappingError:
            self.resolution_failures += 1
            return
        packet.outer_dst = true_pip
        packet.resolved = True
        # A packet leaving the gateway has been authoritatively
        # translated, so any stale-mapping protection is moot.  Most
        # carry neither option: read the slots, call a setter only to
        # clear one.
        if packet._misdelivery_tag:
            packet.misdelivery_tag = False
        if packet._carried_mapping is not None:
            packet.carried_mapping = None
        delay = self.processing_ns + self.brownout_extra_ns
        if self.service_ns:
            now = self.engine.now
            start = self._busy_until if self._busy_until > now else now
            self._busy_until = start + self.service_ns
            delay += self._busy_until - now
        self.engine.schedule_after(delay, self._emit, packet)

    def _emit(self, packet: Packet) -> None:
        """Forward after the processing delay."""
        if self.failed:
            # Crashed mid-processing: the buffered packet dies with it.
            self.dropped_while_failed += 1
            return
        if self.uplink is not None:
            self.uplink.transmit(packet)
