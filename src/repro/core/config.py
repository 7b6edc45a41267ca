"""SwitchV2P protocol configuration.

Defaults follow the paper's evaluation setup (§5): learning packets at
0.5% of gateway-ToR traffic, and every protocol feature enabled.  The
feature switches exist for the ablation studies (Table 4 variants and
the topology-aware-caching ablation in Table 2's summary).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import usec


@dataclass(frozen=True)
class SwitchV2PConfig:
    """Tunable knobs of the SwitchV2P data-plane protocol.

    Attributes:
        p_learn: probability that a gateway ToR emits a learning packet
            for a translated packet it processes (§3.2.2), newly learned
            mapping or not, as in the evaluation (§5); bounds the
            learning-packet bandwidth at ``100 * p_learn`` percent of
            switch traffic.
        enable_learning_packets: gateway-ToR mapping dissemination.
        enable_spillover: append evicted entries to packets so
            downstream switches can re-admit them.
        enable_promotion: spines promote hot entries to core switches.
        enable_invalidation: ToRs emit targeted invalidation packets
            for stale caches on misdelivery (§3.3).
        enable_timestamp_vector: rate-limit invalidation packets per
            target switch to one per base RTT (§3.3).
        role_aware: use per-role admission policies (Table 1); when
            False every switch behaves greedily (admit-all destination
            learning) — the ablation showing why topology-awareness
            matters.
        invalidation_gap_ns: minimum spacing between invalidations to
            the same switch (the base RTT in the paper's topologies).
    """

    p_learn: float = 0.005
    enable_learning_packets: bool = True
    enable_spillover: bool = True
    enable_promotion: bool = True
    enable_invalidation: bool = True
    enable_timestamp_vector: bool = True
    role_aware: bool = True
    invalidation_gap_ns: int = usec(12)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_learn <= 1.0:
            raise ValueError(f"p_learn must be a probability, got {self.p_learn}")
        if self.invalidation_gap_ns < 0:
            raise ValueError("invalidation_gap_ns must be non-negative")
