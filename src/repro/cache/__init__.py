"""In-switch cache structures and sizing conventions."""

from repro.cache.core import CacheStats, InsertResult, SwitchCache
from repro.cache.sizing import aggregate_slots, per_switch_slots

__all__ = [
    "SwitchCache",
    "InsertResult",
    "CacheStats",
    "aggregate_slots",
    "per_switch_slots",
]
