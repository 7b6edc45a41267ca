"""Behavioral model of the SwitchV2P Tofino pipeline (paper §3.4).

The paper validates feasibility with a P4 prototype: the cache is three
register arrays (keys, values, access bits), and the implementation
"does not require packet recirculation, mirroring, or multicast",
except that mirroring generates invalidation and learning packets.
This module makes those claims checkable: it lays the prototype's
tables and register arrays onto a Tofino-like staged pipeline and
executes packet *operation descriptors* through it, enforcing the
architectural constraints a real RMT switch imposes:

* a register array lives entirely in one stage;
* a packet performs at most one read-modify-write per array;
* stage order is one-directional — an operation sequence that needs an
  earlier stage after a later one would require recirculation;
* per-stage stateful-ALU and SRAM budgets are bounded.

`build_switchv2p_pipeline` encodes the actual protocol datapath (tag
check -> spill pickup -> key lookup -> value access -> access bit ->
promotion/learning decisions) and the tests verify every SwitchV2P
operation completes in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.tofino import STAMP_BITS

#: Tofino-1-like envelope: 12 match-action stages, 4 stateful ALUs per
#: stage, ~128 KB of register-usable SRAM per stage per pipe.
DEFAULT_STAGES = 12
DEFAULT_ALUS_PER_STAGE = 4
DEFAULT_REGISTER_KB_PER_STAGE = 128


class PipelineError(ValueError):
    """Raised when a layout or an execution violates RMT constraints."""


@dataclass(frozen=True)
class RegisterArray:
    """A stateful register array pinned to one pipeline stage."""

    name: str
    stage: int
    entries: int
    bits_per_entry: int

    @property
    def kilobytes(self) -> float:
        return self.entries * self.bits_per_entry / 8 / 1024


@dataclass
class Pipeline:
    """A staged pipeline holding register arrays under Tofino limits."""

    stages: int = DEFAULT_STAGES
    alus_per_stage: int = DEFAULT_ALUS_PER_STAGE
    register_kb_per_stage: float = DEFAULT_REGISTER_KB_PER_STAGE
    arrays: dict[str, RegisterArray] = field(default_factory=dict)

    def add_array(self, array: RegisterArray) -> None:
        if array.name in self.arrays:
            raise PipelineError(f"duplicate array {array.name!r}")
        if not 0 <= array.stage < self.stages:
            raise PipelineError(
                f"array {array.name!r} placed on stage {array.stage}, "
                f"pipeline has {self.stages}")
        self.arrays[array.name] = array
        self._check_stage(array.stage)

    def _check_stage(self, stage: int) -> None:
        residents = [a for a in self.arrays.values() if a.stage == stage]
        if len(residents) > self.alus_per_stage:
            raise PipelineError(
                f"stage {stage} hosts {len(residents)} register arrays, "
                f"limit is {self.alus_per_stage} stateful ALUs")
        total_kb = sum(a.kilobytes for a in residents)
        if total_kb > self.register_kb_per_stage:
            raise PipelineError(
                f"stage {stage} register SRAM {total_kb:.1f} KB exceeds "
                f"{self.register_kb_per_stage} KB")

    # ------------------------------------------------------------------
    def execute(self, accesses: list[str]) -> list[tuple[int, str]]:
        """Run one packet's register-access sequence through the pipe.

        Args:
            accesses: array names in the order the program touches them.

        Returns:
            The ``(stage, array)`` trace.

        Raises:
            PipelineError: if an array is touched twice (one RMW per
                array per pass) or out of stage order (would require
                recirculation).
        """
        trace: list[tuple[int, str]] = []
        current_stage = -1
        touched: set[str] = set()
        for name in accesses:
            array = self.arrays.get(name)
            if array is None:
                raise PipelineError(f"unknown register array {name!r}")
            if name in touched:
                raise PipelineError(
                    f"array {name!r} accessed twice in one pass "
                    "(registers allow one read-modify-write per packet)")
            if array.stage < current_stage:
                raise PipelineError(
                    f"array {name!r} on stage {array.stage} needed after "
                    f"stage {current_stage}: requires recirculation")
            touched.add(name)
            current_stage = array.stage
            trace.append((array.stage, name))
        return trace


# ----------------------------------------------------------------------
# The SwitchV2P prototype layout
# ----------------------------------------------------------------------
#: Register-access sequences for each protocol operation.  Every list
#: must execute in a single pipeline pass (asserted by tests) — the
#: paper's "no recirculation" claim.  Learning/invalidation *packet
#: generation* is not listed: it uses the mirroring engine (§3.4).
SWITCHV2P_OPERATIONS: dict[str, list[str]] = {
    # Unresolved packet: check the line, read value, update A bit.
    "lookup_hit": ["cache_keys", "cache_values", "cache_abits"],
    "lookup_miss": ["cache_keys", "cache_abits"],
    # Learning writes key+value and clears the A bit.
    "destination_learn": ["cache_keys", "cache_values", "cache_abits"],
    "source_learn": ["cache_keys", "cache_values", "cache_abits"],
    # Spill pickup behaves like a learn on the carried entry.
    "spill_pickup": ["cache_keys", "cache_values", "cache_abits"],
    # Promotion admission at cores: conditional learn.
    "promotion_admit": ["cache_keys", "cache_values", "cache_abits"],
    # Invalidation: compare key, clear it.
    "invalidate": ["cache_keys", "cache_abits"],
    # ToR timestamp vector check before generating an invalidation.
    "timestamp_gate": ["timestamp_vector"],
}


def _way_arrays(name: str, ways: int) -> list[str]:
    """The ``ways`` parallel copies of one cache array."""
    return [name] if ways == 1 else [f"{name}_w{way}" for way in range(ways)]


def operation_accesses(operation: str, ways: int = 1) -> list[str]:
    """One operation's register accesses on a ``ways``-way layout.

    Every way's copy of an array is read side by side in that array's
    stage.  Above one way, whatever reaches the access bits first reads
    the recency stamps — a hit or a learn to refresh its line's, a miss
    to find the set's LRU line; an invalidation touches no stamp.
    """
    accesses: list[str] = []
    for name in SWITCHV2P_OPERATIONS[operation]:
        if name == "cache_abits" and ways > 1 and operation != "invalidate":
            accesses += _way_arrays("cache_stamps", ways)
        accesses += (_way_arrays(name, ways) if name.startswith("cache_")
                     else [name])
    return accesses


def build_switchv2p_pipeline(entries_per_switch: int,
                             num_switches_in_topology: int = 80,
                             ways: int = 1) -> Pipeline:
    """Lay the SwitchV2P prototype onto a Tofino-like pipeline.

    The three cache arrays occupy consecutive stages (the value and
    access-bit arrays must come at or after the key compare); the
    timestamp vector (one 32-bit slot per switch in the topology, §3.3)
    sits in a later stage, after the role/tag logic has decided whether
    an invalidation is needed.  A ``ways``-way cache is ``ways``
    parallel copies of each array in that array's stage — one stateful
    ALU apiece, which is what bounds the associativity — plus a stage
    of recency stamps ahead of the access bits.
    """
    if entries_per_switch < 0:
        raise PipelineError("negative cache size")
    if ways < 1:
        raise PipelineError(f"associativity must be >= 1, got {ways}")
    layout = [("cache_keys", 32), ("cache_values", 32)]
    if ways > 1:
        layout.append(("cache_stamps", STAMP_BITS))
    layout.append(("cache_abits", 1))
    pipeline = Pipeline()
    for stage, (name, bits) in enumerate(layout, start=2):
        for array in _way_arrays(name, ways):
            pipeline.add_array(RegisterArray(
                array, stage=stage, entries=entries_per_switch // ways,
                bits_per_entry=bits))
    pipeline.add_array(RegisterArray("timestamp_vector", stage=stage + 1,
                                     entries=num_switches_in_topology,
                                     bits_per_entry=32))
    return pipeline


def validate_feasibility(entries_per_switch: int,
                         num_switches_in_topology: int = 80,
                         ways: int = 1) -> dict[str, list]:
    """Check every SwitchV2P operation fits in one pipeline pass.

    Returns:
        Operation name -> (stage, array) trace.

    Raises:
        PipelineError: if the configuration does not fit.
    """
    pipeline = build_switchv2p_pipeline(entries_per_switch,
                                        num_switches_in_topology, ways)
    return {operation: pipeline.execute(operation_accesses(operation, ways))
            for operation in SWITCHV2P_OPERATIONS}


def max_entries_per_stage(register_kb_per_stage: float = DEFAULT_REGISTER_KB_PER_STAGE,
                          bits_per_entry: int = 32) -> int:
    """Entries one stage can hold — bounds the per-switch cache size."""
    return int(register_kb_per_stage * 1024 * 8 // bits_per_entry)
