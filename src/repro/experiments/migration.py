"""The VM-migration experiment (paper §5.2, Table 4).

A synthetic incast — many UDP senders on distinct servers targeting one
VM — with the destination migrated to a different rack mid-trace.  The
experiment compares NoCache, OnDemand, and three SwitchV2P variants
(without invalidations, without the timestamp vector, and the full
protocol), reporting gateway load, packet latency, the arrival time of
the last misdelivered packet, misdelivery counts and invalidation
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import SwitchV2PConfig
from repro.experiments.runner import SCHEME_FACTORIES, build_network
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec
from repro.traces.incast import IncastTraceParams, generate
from repro.transport.player import TrafficPlayer
from repro.transport.reliable import TransportConfig

#: The Table 4 variant ladder: scheme name + SwitchV2P feature config.
MIGRATION_VARIANTS: tuple[tuple[str, str, dict], ...] = (
    ("NoCache", "NoCache", {}),
    ("OnDemand", "OnDemand", {}),
    ("SwitchV2P w/o invalidations", "SwitchV2P",
     {"config": SwitchV2PConfig(enable_invalidation=False)}),
    ("SwitchV2P w/o timestamp vector", "SwitchV2P",
     {"config": SwitchV2PConfig(enable_timestamp_vector=False)}),
    ("SwitchV2P w/ timestamp vector", "SwitchV2P", {}),
)


@dataclass
class MigrationResult:
    """Table 4 row (absolute values; normalize against the NoCache row)."""

    label: str
    gateway_packet_fraction: float
    avg_packet_latency_ns: float
    last_misdelivered_arrival_ns: int | None
    misdelivered_packets: int
    invalidation_packets: int
    packets_sent: int


def run_migration_variant(label: str, scheme_name: str, scheme_kwargs: dict,
                          params: IncastTraceParams,
                          spec: FatTreeSpec | None = None,
                          slots_per_switch: int = 32,
                          seed: int = 0) -> MigrationResult:
    """Run one Table 4 variant and return its absolute metrics.

    The incast's address space is tiny (one destination plus the
    senders), so caches are sized in absolute slots per switch rather
    than relative to the address space.
    """
    if spec is None:
        spec = FatTreeSpec()
    num_vms = params.num_senders + 2
    total_slots = slots_per_switch * spec.num_switches
    scheme = SCHEME_FACTORIES[scheme_name](total_slots, **scheme_kwargs)
    network = build_network(spec, scheme, num_vms, seed)

    # Sender VIPs 1..n land on distinct servers via round-robin
    # placement; VIP 0 is the incast destination.
    sender_vips = list(range(1, params.num_senders + 1))
    rng = network.streams.stream("incast")
    flows = generate(params, rng, sender_vips)

    # Migrate the destination VM to a different rack at the midpoint.
    source_host = network.host_of(params.destination_vip)
    target_host = _host_in_other_rack(network, source_host)
    network.engine.schedule(params.migration_time_ns, network.migrate,
                            params.destination_vip, target_host)

    # Packets are exactly ``packet_bytes`` so the trace totals
    # num_senders * packets_per_sender packets, as in §5.2.
    player = TrafficPlayer(network,
                           TransportConfig(mss_bytes=params.packet_bytes))
    player.add_flows(flows)
    network.run(until=params.duration_ns + msec(2))
    collector = network.collector
    fraction = (collector.gateway_arrivals / collector.packets_sent
                if collector.packets_sent else 0.0)
    return MigrationResult(
        label=label,
        gateway_packet_fraction=fraction,
        avg_packet_latency_ns=collector.average_packet_latency_ns(),
        last_misdelivered_arrival_ns=collector.last_misdelivered_arrival_ns,
        misdelivered_packets=collector.misdeliveries,
        invalidation_packets=collector.invalidation_packets,
        packets_sent=collector.packets_sent,
    )


def run_migration_table(params: IncastTraceParams | None = None,
                        spec: FatTreeSpec | None = None,
                        slots_per_switch: int = 32,
                        seed: int = 0) -> list[MigrationResult]:
    """Run all Table 4 variants in order."""
    if params is None:
        params = IncastTraceParams()
    return [
        run_migration_variant(label, scheme, dict(kwargs), params, spec,
                              slots_per_switch, seed)
        for label, scheme, kwargs in MIGRATION_VARIANTS
    ]


def _host_in_other_rack(network, source_host):
    """Pick a migration target on a different rack than ``source_host``."""
    from repro.net.addresses import pip_pod, pip_rack

    src_key = (pip_pod(source_host.pip), pip_rack(source_host.pip))
    for pip in network.config.spec.server_pips():
        if (pip_pod(pip), pip_rack(pip)) != src_key:
            return network.host(pip)
    raise RuntimeError("topology has a single rack; cannot migrate across racks")
