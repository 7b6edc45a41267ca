"""Tests for the P4 pipeline feasibility model (paper §3.4)."""

import pytest

from repro.hw.pipeline import (
    SWITCHV2P_OPERATIONS,
    Pipeline,
    PipelineError,
    RegisterArray,
    build_switchv2p_pipeline,
    max_entries_per_stage,
    validate_feasibility,
)


def test_every_operation_fits_in_one_pass():
    """The paper's claim: no recirculation for any protocol operation."""
    traces = validate_feasibility(entries_per_switch=5_120)
    assert set(traces) == set(SWITCHV2P_OPERATIONS)
    for operation, trace in traces.items():
        stages = [stage for stage, _array in trace]
        assert stages == sorted(stages), operation


def test_three_register_arrays_plus_timestamp_vector():
    pipeline = build_switchv2p_pipeline(1024, num_switches_in_topology=80)
    assert set(pipeline.arrays) == {"cache_keys", "cache_values",
                                    "cache_abits", "timestamp_vector"}
    assert pipeline.arrays["timestamp_vector"].entries == 80


def test_double_access_requires_recirculation():
    pipeline = build_switchv2p_pipeline(64)
    with pytest.raises(PipelineError, match="twice"):
        pipeline.execute(["cache_keys", "cache_keys"])


def test_backwards_stage_order_rejected():
    pipeline = build_switchv2p_pipeline(64)
    with pytest.raises(PipelineError, match="recirculation"):
        pipeline.execute(["cache_values", "cache_keys"])


def test_unknown_array_rejected():
    pipeline = build_switchv2p_pipeline(64)
    with pytest.raises(PipelineError, match="unknown"):
        pipeline.execute(["bloom_filter"])


def test_stage_sram_budget_enforced():
    pipeline = Pipeline(register_kb_per_stage=1.0)
    with pytest.raises(PipelineError, match="SRAM"):
        pipeline.add_array(RegisterArray("big", stage=0, entries=10_000,
                                         bits_per_entry=32))


def test_stateful_alu_budget_enforced():
    pipeline = Pipeline(alus_per_stage=1)
    pipeline.add_array(RegisterArray("a", stage=0, entries=8,
                                     bits_per_entry=32))
    with pytest.raises(PipelineError, match="ALU"):
        pipeline.add_array(RegisterArray("b", stage=0, entries=8,
                                         bits_per_entry=32))


def test_stage_bounds_enforced():
    pipeline = Pipeline(stages=4)
    with pytest.raises(PipelineError, match="stage"):
        pipeline.add_array(RegisterArray("far", stage=9, entries=8,
                                         bits_per_entry=32))


def test_duplicate_array_rejected():
    pipeline = Pipeline()
    pipeline.add_array(RegisterArray("x", stage=0, entries=8,
                                     bits_per_entry=32))
    with pytest.raises(PipelineError, match="duplicate"):
        pipeline.add_array(RegisterArray("x", stage=1, entries=8,
                                         bits_per_entry=32))


def test_oversized_cache_rejected_at_build():
    too_big = max_entries_per_stage() + 1
    with pytest.raises(PipelineError):
        validate_feasibility(entries_per_switch=too_big)


def test_bluebird_scale_fits():
    """192K x 32-bit entries need multiple stages in reality; our single
    -stage budget bounds the per-stage share — the Bluebird figure
    divided over a few stages fits comfortably."""
    per_stage = max_entries_per_stage()
    assert per_stage * 8 > 192_000  # 8 stages could hold the full table


def test_negative_entries_rejected():
    with pytest.raises(PipelineError):
        build_switchv2p_pipeline(-1)


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_every_geometry_of_the_ablation_is_priced(ways):
    """The ``ablation_cache_geometry`` table runs 1, 2 and 4 ways:
    each is k parallel copies of the arrays, one stateful ALU apiece,
    and every operation still makes one pass."""
    pipeline = build_switchv2p_pipeline(5_120, ways=ways)
    copies = [name for name in pipeline.arrays if name.startswith("cache_keys")]
    assert len(copies) == ways
    assert {pipeline.arrays[name].entries for name in copies} == {5_120 // ways}
    assert ("cache_stamps_w0" in pipeline.arrays) == (ways > 1)
    traces = validate_feasibility(5_120, ways=ways)
    for operation, trace in traces.items():
        stages = [stage for stage, _array in trace]
        assert stages == sorted(stages), operation
    assert len(traces["lookup_hit"]) == (3 if ways == 1 else 4 * ways)
    assert len(traces["invalidate"]) == 2 * ways


def test_associativity_is_bounded_by_the_stateful_alus():
    with pytest.raises(PipelineError, match="ALU"):
        build_switchv2p_pipeline(5_120, ways=8)
    with pytest.raises(PipelineError, match="associativity"):
        build_switchv2p_pipeline(5_120, ways=0)
