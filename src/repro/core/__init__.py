"""SwitchV2P: the paper's in-network address-caching protocol."""

from repro.core.allocation import (
    CORE_HEAVY,
    EDGE_HEAVY,
    NAMED_POLICIES,
    TOR_ONLY,
    UNIFORM,
    AllocationPolicy,
    distribute_slots,
)
from repro.core.antientropy import AntiEntropyAuditor
from repro.core.config import SwitchV2PConfig
from repro.core.protocol import SwitchV2P
from repro.core.roles import Role, assign_roles

__all__ = [
    "AntiEntropyAuditor",
    "SwitchV2P",
    "SwitchV2PConfig",
    "Role",
    "assign_roles",
    "AllocationPolicy",
    "distribute_slots",
    "UNIFORM",
    "TOR_ONLY",
    "EDGE_HEAVY",
    "CORE_HEAVY",
    "NAMED_POLICIES",
]
