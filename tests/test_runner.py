"""Tests for the experiment runner's summary fields and scheme factory."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.experiments.runner import (
    SCHEME_FACTORIES,
    RunResult,
    build_network,
    make_scheme,
    run_flows,
)
from repro.baselines import NoCache
from repro.core import SwitchV2P, SwitchV2PConfig, TOR_ONLY
from repro.transport.flow import FlowSpec

from conftest import tiny_spec


def flows(count=30):
    return [FlowSpec(src_vip=i % 8, dst_vip=(i + 3) % 8,
                     size_bytes=2_000 + 500 * (i % 5), start_ns=i * 20_000)
            for i in range(count)]


def test_run_result_fields_are_the_set_the_benchmark_pins():
    """``bench/expected.json`` fingerprints every ``RunResult`` field,
    per workload and size.  A field added or renamed here passes every
    other tier-1 test and then fails ``python -m bench`` with "differs
    from expected.json"."""
    pinned = json.loads((Path(__file__).resolve().parent.parent
                         / "bench" / "expected.json").read_text())
    ours = {field.name for field in dataclasses.fields(RunResult)}
    for size, workloads in pinned.items():
        for workload, fingerprint in workloads.items():
            assert set(fingerprint) == ours, (
                f"RunResult's fields differ from the ones bench/expected.json "
                f"pins for {workload} ({size}): "
                f"{sorted(set(fingerprint) ^ ours)}.  The field set is frozen: "
                "only a `benchmark` PR may edit bench/ and re-pin it "
                "(python -m bench --update-expected), so put a new result "
                "on DetailedRunResult instead.")


def test_percentiles_ordered():
    network = build_network(tiny_spec(), NoCache(), num_vms=8)
    result = run_flows(network, flows())
    assert result.p50_fct_ns <= result.p99_fct_ns
    assert math.isfinite(result.p50_fct_ns)
    assert result.avg_fct_ns <= result.p99_fct_ns


def test_switchv2p_factory_accepts_loose_config_kwargs():
    scheme = make_scheme("SwitchV2P", 100, 1.0, p_learn=0.5)
    assert isinstance(scheme, SwitchV2P)
    assert scheme.config.p_learn == 0.5


def test_switchv2p_factory_accepts_config_object():
    config = SwitchV2PConfig(enable_spillover=False)
    scheme = make_scheme("SwitchV2P", 100, 1.0, config=config)
    assert scheme.config is config


def test_switchv2p_factory_rejects_mixed_config():
    with pytest.raises(ValueError):
        make_scheme("SwitchV2P", 100, 1.0,
                    config=SwitchV2PConfig(), p_learn=0.5)


def test_switchv2p_factory_accepts_allocation_and_ways():
    scheme = make_scheme("SwitchV2P", 100, 1.0, allocation=TOR_ONLY,
                         cache_ways=2)
    assert scheme.allocation is TOR_ONLY
    assert scheme.cache_ways == 2


def test_every_factory_name_constructs():
    for name in SCHEME_FACTORIES:
        assert make_scheme(name, 64, 2.0) is not None


def test_horizon_bounds_runaway_runs():
    network = build_network(tiny_spec(), NoCache(), num_vms=8)
    result = run_flows(network, flows(5), horizon_ns=1_000)
    # The horizon cut the run short; flows incomplete but no hang.
    assert result.completion_rate < 1.0


def test_warmup_split_is_result_neutral():
    """Chunked engine runs (memory profiling) change no metrics."""
    baseline = run_flows(build_network(tiny_spec(), SwitchV2P(64), num_vms=8),
                         flows())
    split = run_flows(build_network(tiny_spec(), SwitchV2P(64), num_vms=8),
                      flows(), warmup_split_ns=300_000)
    assert split.hit_rate == baseline.hit_rate
    assert split.packets_sent == baseline.packets_sent
    assert split.avg_fct_ns == baseline.avg_fct_ns
    assert split.completion_rate == baseline.completion_rate


def test_warmup_split_times_two_run_phases():
    from repro.perf import PhaseMemoryTimer
    timer = PhaseMemoryTimer()
    network = build_network(tiny_spec(), SwitchV2P(64), num_vms=8)
    run_flows(network, flows(), perf=timer, warmup_split_ns=300_000)
    assert "run-warmup" in timer.phases_ns
    assert "run-steady" in timer.phases_ns
    assert "run" not in timer.phases_ns
    # Memory snapshots recorded per phase; RSS high-water mark is
    # always available on Linux even when tracemalloc is off.
    assert timer.memory_by_phase["run-warmup"]["rss_peak_kb"] > 0
    assert timer.memory_by_phase["run-steady"]["rss_peak_kb"] > 0


def test_phase_timer_counts_full_collections_per_phase():
    """``python -m repro run`` prints the count beside each phase: it is
    what shows a set-up that keeps rescanning its own objects."""
    import gc

    from repro.perf import PhaseMemoryTimer, PhaseTimer
    for timer in (PhaseTimer(), PhaseMemoryTimer()):
        with timer.phase("build"):
            gc.collect()
            gc.collect()
        with timer.phase("build"):
            gc.collect()
        with timer.phase("setup"):
            pass
        assert timer.full_collections == {"build": 3, "setup": 0}
        assert set(timer.phases_ns) == {"build", "setup"}


def test_phase_entered_with_the_collector_off_is_not_counted():
    """No pass can start by itself there, so the fluid scheduler's
    phases (inside ``Engine.run``'s pause) skip the costly read."""
    from repro.perf import PhaseTimer
    from repro.sim.engine import collector_paused
    timer = PhaseTimer()
    with collector_paused():
        with timer.phase("fluid"):
            pass
    assert "fluid" in timer.phases_ns
    assert timer.full_collections == {}
