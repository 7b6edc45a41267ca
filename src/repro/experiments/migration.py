"""The VM-migration experiment (paper §5.2, Table 4).

A synthetic incast — many UDP senders on distinct servers targeting one
VM — with the destination migrated to a different rack mid-trace.  The
experiment compares NoCache, OnDemand, and three SwitchV2P variants
(without invalidations, without the timestamp vector, and the full
protocol), reporting gateway load, packet latency, the arrival time of
the last misdelivered packet, misdelivery counts and invalidation
traffic.  Each variant is one pool job (:func:`migration_jobs`) whose
migration is one ``VM_MIGRATE`` fault event.
"""

from __future__ import annotations

from repro.core import SwitchV2PConfig
from repro.experiments.parallel import ExperimentJob
from repro.faults import FaultSchedule
from repro.net.addresses import pip_pod, pip_rack, split_pip
from repro.net.topology import FatTreeSpec
from repro.sim.engine import msec
from repro.sim.randomness import RandomStreams
from repro.traces.incast import IncastTraceParams, generate
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

#: The incast's address space is tiny (one destination plus the
#: senders), so caches are sized in absolute slots per switch rather
#: than relative to the address space.
SLOTS_PER_SWITCH = 32


def migration_jobs(params: IncastTraceParams,
                   spec: FatTreeSpec | None = None,
                   ) -> dict[str, ExperimentJob]:
    """``{variant label: job}`` of the Table 4 ladder, in order.

    Sender VIPs 1..n land on distinct servers by round-robin placement;
    the destination VM moves, at ``params.migration_time_ns``, to the
    first server outside its rack.  Packets are exactly
    ``packet_bytes``, so the trace totals ``num_senders *
    packets_per_sender`` packets, as in §5.2.
    """
    if spec is None:
        spec = FatTreeSpec()
    num_vms = params.num_senders + 2
    pips = spec.server_pips()
    source = pips[params.destination_vip % len(pips)]
    rack = (pip_pod(source), pip_rack(source))
    target = next((pip for pip in pips
                   if (pip_pod(pip), pip_rack(pip)) != rack), None)
    if target is None:
        raise ValueError(
            "topology has a single rack; cannot migrate across racks")
    migration = FaultSchedule().migrate_vm(
        params.migration_time_ns, params.destination_vip, *split_pip(target))
    flows = generate(params, RandomStreams(0).stream("incast"),
                     list(range(1, params.num_senders + 1)))
    return {label: ExperimentJob(
        spec=spec, scheme_name=scheme, flows=tuple(flows), num_vms=num_vms,
        cache_ratio=SLOTS_PER_SWITCH * spec.num_switches / num_vms,
        transport=TransportConfig(mss_bytes=params.packet_bytes),
        horizon_ns=params.duration_ns + msec(2), scheme_kwargs=kwargs,
        faults=tuple(migration.events))
        for label, scheme, kwargs in MIGRATION_VARIANTS}
