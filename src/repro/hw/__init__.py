"""Hardware feasibility models (Tofino pipeline accounting, Table 6)."""

from repro.hw.pipeline import (
    SWITCHV2P_OPERATIONS,
    Pipeline,
    PipelineError,
    RegisterArray,
    build_switchv2p_pipeline,
    max_entries_per_stage,
    validate_feasibility,
)
from repro.hw.tofino import (
    TABLE6_ENTRIES_PER_SWITCH,
    TOFINO_RESOURCES,
    ResourceModel,
    estimate_utilization,
    max_entries,
)

__all__ = [
    "ResourceModel",
    "TOFINO_RESOURCES",
    "TABLE6_ENTRIES_PER_SWITCH",
    "estimate_utilization",
    "max_entries",
    "Pipeline",
    "PipelineError",
    "RegisterArray",
    "SWITCHV2P_OPERATIONS",
    "build_switchv2p_pipeline",
    "validate_feasibility",
    "max_entries_per_stage",
]
