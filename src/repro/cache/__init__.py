"""In-switch cache structures and sizing conventions."""

from repro.cache.core import CacheStats, InsertResult, SwitchCache
from repro.cache.sizing import aggregate_slots, per_switch_slots

#: The names the two geometries had while they were separate classes;
#: both construct the one core (``ways`` defaults to 1).
DirectMappedCache = SetAssociativeCache = SwitchCache

__all__ = [
    "SwitchCache",
    "DirectMappedCache",
    "SetAssociativeCache",
    "InsertResult",
    "CacheStats",
    "aggregate_slots",
    "per_switch_slots",
]
