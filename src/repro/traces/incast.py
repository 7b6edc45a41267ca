"""Incast workload for the VM-migration experiment (paper §5.2).

64 UDP senders on distinct physical servers all target one destination
VM; halfway through the 1 ms trace the VM migrates to a different rack.
The experiment measures gateway load, packet latency, misdelivered
packets and invalidation-packet counts across scheme variants
(Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.transport.flow import FlowSpec


@dataclass(frozen=True)
class IncastTraceParams:
    """Parameters for the migration incast.

    Defaults reproduce Table 4: 64 senders, 64K packets over 1 ms
    (i.e. 1K packets per sender), migration at 500 us.  ``num_senders``
    and ``packets_per_sender`` shrink for benchmark scale.
    """

    num_senders: int = 64
    packets_per_sender: int = 1000
    packet_bytes: int = 1_000
    duration_ns: int = 1_000_000
    migration_time_ns: int = 500_000
    destination_vip: int = 0

    @property
    def total_packets(self) -> int:
        return self.num_senders * self.packets_per_sender

    def __post_init__(self) -> None:
        # Senders are VIPs 1..n of the n + 2 placed.
        if self.destination_vip not in (0, self.num_senders + 1):
            raise ValueError(
                f"destination_vip must be 0 or num_senders + 1 "
                f"({self.num_senders + 1}), a placed VM that is no "
                f"sender; got {self.destination_vip}")


def generate(params: IncastTraceParams, rng: np.random.Generator,
             sender_vips: list[int]) -> list[FlowSpec]:
    """Generate one UDP flow per sender, paced to span the duration.

    Args:
        sender_vips: VIPs of the senders — the experiment places each
            on a distinct physical server, so the caller supplies VIPs
            with that placement.
    """
    if len(sender_vips) < params.num_senders:
        raise ValueError("not enough sender VIPs for the requested fan-in")
    flow_bytes = params.packets_per_sender * params.packet_bytes
    # Rate so each sender's packets exactly span the trace duration.
    rate_bps = flow_bytes * 8e9 / params.duration_ns
    flows = []
    for s in range(params.num_senders):
        flows.append(FlowSpec(
            src_vip=int(sender_vips[s]),
            dst_vip=params.destination_vip,
            size_bytes=flow_bytes,
            start_ns=int(rng.integers(0, 1_000)),
            transport="udp",
            udp_rate_bps=rate_bps,
        ))
    return flows
