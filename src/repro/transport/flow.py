"""Flow specifications consumed by the traffic player."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """One application-level flow to inject into the simulation.

    Attributes:
        src_vip / dst_vip: endpoints in the virtual address space.
        size_bytes: application bytes to transfer.
        start_ns: injection time (absolute simulation time).
        transport: ``"tcp"`` (reliable windowed) or ``"udp"``
            (constant rate, unreliable).
        udp_rate_bps: send rate for UDP flows.
        response_bytes: if positive, the destination sends back a
            response flow of this size when the request completes —
            the RPC pattern of the Alibaba trace (§5 "Datasets").
        flow_id: optional explicit id; the player assigns one if None.
    """

    src_vip: int
    dst_vip: int
    size_bytes: int
    start_ns: int
    transport: str = "tcp"
    udp_rate_bps: float = 1e9
    response_bytes: int = 0
    flow_id: int | None = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {self.size_bytes}")
        if self.start_ns < 0:
            raise ValueError(f"negative start time: {self.start_ns}")
        if self.transport not in ("tcp", "udp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "udp" and self.udp_rate_bps <= 0:
            raise ValueError("UDP flows need a positive rate")
