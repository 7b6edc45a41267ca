"""Tests for the content-addressed run cache (repro.experiments.runcache).

The cache's contract has two halves: the *key* must change whenever any
input the simulation can observe changes (and only then), and the
*store* must round-trip RunResults exactly while treating anything
suspicious — corruption, stale schema, foreign keys — as a miss.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from typing import ClassVar

import numpy as np
import pytest

from repro.experiments import runcache
from repro.experiments.faults import ChaosParams, chaos_jobs, chaos_schedule
from repro.experiments.graydegrade import HARDENED
from repro.experiments.parallel import ExperimentJob, parallel_run_experiments
from repro.experiments.runcache import (
    RunCache,
    _encode,
    _flow_tuple_digest,
    _keyed_fields,
    default_cache,
    flows_digest,
    job_key,
    resolve_cache,
    run_key,
    runcache_enabled,
)
from repro.experiments.scenario import ScenarioKnobs
from repro.faults import FaultEvent, FaultKind
from repro.metrics.resilience import ResilienceSummary
from repro.traces.spec import TraceSpec
from repro.transport.flow import FlowSpec
from repro.transport.reliable import TransportConfig

from conftest import tiny_spec


def _flows(count: int = 12, seed_shift: int = 0):
    return tuple(FlowSpec(src_vip=(i + seed_shift) % 8,
                          dst_vip=(i + 3 + seed_shift) % 8,
                          size_bytes=2_000 + 100 * i,
                          start_ns=i * 10_000)
                 for i in range(count))


def _result_dict(result) -> dict:
    return dataclasses.asdict(result)


def _job(**overrides) -> ExperimentJob:
    params = dict(spec=tiny_spec(), scheme_name="SwitchV2P", num_vms=8,
                  cache_ratio=4.0, seed=0, flows=_flows())
    params.update(overrides)
    return ExperimentJob(**params)


def _base_key(**overrides) -> str:
    return job_key(_job(**overrides))


def _run(store="auto", **overrides):
    """Simulate the base job through the one path that reads and writes
    the store."""
    [result] = parallel_run_experiments([_job(**overrides)], workers=0,
                                        cache=store)
    return result


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def test_key_is_stable():
    assert _base_key() == _base_key()


#: One override of the base run per thing the key must see; the test
#: below it fails, by name, for an ``ExperimentJob`` field that has none.
PERTURBATIONS = [
    {"scheme_name": "GwCache"},
    {"num_vms": 16},
    {"cache_ratio": 8.0},
    {"seed": 1},
    {"flows": _flows(seed_shift=1)},
    {"flows": _flows(count=11)},
    {"spec": tiny_spec(pods=4, gateway_pods=(1, 3))},
    {"transport": TransportConfig()},
    {"horizon_ns": 1_000_000},
    {"trace_name": "hadoop"},
    {"scheme_kwargs": {"sticky": True}},
    {"fidelity": "hybrid"},
    {"faults": tuple(chaos_schedule().events)},
    {"sample_period_ns": 250_000},
    {"fct_windows": ((0, 1_000_000),)},
    {"scenario": ScenarioKnobs()},
    {"scenario": HARDENED},
]


@pytest.mark.parametrize("override", PERTURBATIONS)
def test_key_changes_with_every_input(override):
    assert _base_key(**override) != _base_key()


def test_every_run_key_parameter_and_job_field_is_perturbed():
    """What the W403 lint checked by name, checked by behaviour: a knob
    is keyed when changing it changes the key, and the list of knobs is
    read off the job, so a new one cannot be forgotten quietly.
    ``run_key``'s own parameters are job fields."""
    fields = {field.name for field in dataclasses.fields(ExperimentJob)}
    parameters = set(inspect.signature(run_key).parameters) - {"fields"}
    assert parameters <= fields
    perturbed = {name for override in PERTURBATIONS for name in override}
    assert not fields - perturbed, (
        f"no PERTURBATIONS entry changes {sorted(fields - perturbed)}; "
        "add one, so test_key_changes_with_every_input checks it is keyed")


def test_a_field_added_to_the_job_is_keyed():
    """``job_key`` reads the job's fields, so a field nobody taught the
    run cache about still moves the key."""
    @dataclasses.dataclass(frozen=True)
    class QueueingJob(ExperimentJob):
        queue_model: str = "fifo"

    fifo = QueueingJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                       flows=_flows(), num_vms=8, cache_ratio=4.0)
    assert job_key(fifo) != job_key(dataclasses.replace(fifo,
                                                        queue_model="red"))


_EVENT = FaultEvent(1_000, FaultKind.SWITCH_FAIL, ("spine", 0, 0))


@pytest.mark.parametrize("change", [{"kind": FaultKind.SWITCH_RECOVER},
                                    {"at_ns": 2_000},
                                    {"target": ("spine", 0, 1)}])
def test_jobs_differing_in_one_fault_event_field_key_apart(change):
    job = ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                        flows=_flows(), num_vms=8, cache_ratio=4.0,
                        faults=(_EVENT,))
    changed = dataclasses.replace(
        job, faults=(dataclasses.replace(_EVENT, **change),))
    assert job_key(changed) != job_key(job)


def test_an_enum_member_encodes_as_its_class_and_value():
    assert _encode(FaultKind.SWITCH_FAIL) \
        == ["enum", "FaultKind", "switch-fail"]


def test_scheme_kwargs_order_does_not_matter():
    a = _base_key(scheme_kwargs={"alpha": 1, "beta": 2.5})
    b = _base_key(scheme_kwargs={"beta": 2.5, "alpha": 1})
    assert a == b


def test_run_key_requires_exactly_one_workload_form():
    """The flows are the one workload form: a key needs them, and the
    former spec form is no field."""
    with pytest.raises(TypeError, match="flows"):
        run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 0)
    with pytest.raises(TypeError, match="trace"):
        run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 0, flows=_flows(),
                trace=TraceSpec.create("hadoop", 0, num_vms=8, num_flows=4))


def test_job_key_matches_run_key():
    job = ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                        flows=_flows(), num_vms=8, cache_ratio=4.0, seed=0)
    assert job_key(job) == run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 0,
                                   flows=_flows())


def test_encode_refuses_a_dataclass_whose_fields_do_not_cover_it():
    @dataclasses.dataclass
    class Thawed:
        knob: int = 0

    @dataclasses.dataclass(frozen=True)
    class HalfAnnotated:
        knob: int = 0
        other_knob = 1
        CONSTANT: ClassVar[int] = 2

        @property
        def double(self):
            return 2 * self.knob

    with pytest.raises(TypeError, match="Thawed.*frozen"):
        _encode(Thawed())
    with pytest.raises(TypeError, match="HalfAnnotated.other_knob"):
        _encode(HalfAnnotated())


def test_encode_checks_a_dataclass_type_once():
    @dataclasses.dataclass(frozen=True)
    class Knobs:
        a: int = 0
        b: float = 0.5

    before = _keyed_fields.cache_info()
    assert _encode([Knobs(), Knobs(a=1), Knobs(a=2)]) == ["seq", [
        ["dc", Knobs.__qualname__, [["a", a], ["b", ["f", "0.5"]]]]
        for a in (0, 1, 2)]]
    after = _keyed_fields.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2


def test_flows_digest_is_content_addressed():
    assert flows_digest(_flows()) == flows_digest(list(_flows()))
    assert flows_digest(_flows()) != flows_digest(_flows(seed_shift=2))


def test_flows_digest_reads_each_flow_by_its_values():
    """A numpy scalar keys as its Python value, a float apart from the
    equal int, and a value with no canonical form is refused."""
    flow = FlowSpec(src_vip=1, dst_vip=2, size_bytes=2_000, start_ns=0)
    digest = _flow_tuple_digest
    assert digest((dataclasses.replace(flow, src_vip=np.int64(1)),)) \
        == digest((flow,))
    assert digest((dataclasses.replace(flow, udp_rate_bps=10**9),)) \
        != digest((flow,))
    with pytest.raises(TypeError, match="cannot canonically encode"):
        digest((dataclasses.replace(flow, src_vip=object()),))


def test_flows_digest_memo_returns_the_unmemoized_digest(monkeypatch):
    # A sweep keys every grid point off the same flow tuple: the repeats
    # must be memo hits, and a hit must equal a fresh computation.
    flows = _flows()
    computed = []

    def counted(flows):
        computed.append(flows)
        return _flow_tuple_digest(flows)

    monkeypatch.setattr(runcache, "_flow_tuple_digest", counted)
    first = flows_digest(flows)
    assert flows_digest(flows) == first and len(computed) == 1
    assert first == _flow_tuple_digest(flows)


def test_flows_that_compare_equal_but_digest_apart_share_no_memo_entry():
    """``10**9 == 1e9``, so an equality-keyed memo handed the second
    flow list the first one's digest; each must get its own."""
    flow = FlowSpec(src_vip=1, dst_vip=2, size_bytes=2_000, start_ns=0)
    as_int = (dataclasses.replace(flow, udp_rate_bps=10**9),)
    assert as_int == (flow,)
    assert flows_digest((flow,)) == _flow_tuple_digest((flow,))
    assert flows_digest(as_int) == _flow_tuple_digest(as_int)
    assert flows_digest(as_int) != flows_digest((flow,))


def test_trace_specs_that_compare_equal_but_digest_apart_key_apart():
    """The same for the flows of two :class:`TraceSpec` that compare
    equal and whose rate reaches their flows."""
    params = {"num_vms": 8, "num_streams": 2}
    as_float = TraceSpec("video", seed=0,
                         params={**params, "stream_rate_bps": 48e6})
    as_int = TraceSpec("video", seed=0,
                       params={**params, "stream_rate_bps": 48_000_000})
    assert as_float == as_int
    flows = [tuple(spec.materialize()) for spec in (as_float, as_int)]
    assert flows[0] == flows[1]
    assert _base_key(flows=flows[0]) != _base_key(flows=flows[1])


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
def test_miss_then_store_then_hit(tmp_path):
    store = RunCache(tmp_path)
    flows = list(_flows())
    key = _base_key()
    assert store.get(key) is None
    assert store.stats.misses == 1
    result = _run(store, flows=flows)
    assert store.stats.stores == 1
    cached = store.get(key)
    assert cached is not None
    assert _result_dict(cached) == _result_dict(result)
    assert store.stats.hits == 1


def test_run_experiment_warm_hit_is_identical(tmp_path):
    store = RunCache(tmp_path)
    flows = list(_flows())
    cold = _run(store, flows=flows)
    warm = _run(store, flows=flows)
    assert store.stats.hits == 1
    assert store.stats.stores == 1
    assert _result_dict(cold) == _result_dict(warm)
    # The breakdowns come back as they went in, dict order included:
    # Figure 8's columns are read off it.
    assert warm.layer_hits == cold.layer_hits
    assert sum(cold.layer_hits[0]) > 0
    assert [list(pod.items()) for pod in warm.pod_switch_bytes] \
        == [list(pod.items()) for pod in cold.pod_switch_bytes]
    assert any(any(pod.values()) for pod in cold.pod_switch_bytes)


def test_a_fault_job_result_round_trips(tmp_path):
    """A faults_resilience run's result, nested ResilienceSummary and
    window FCTs included, reloads equal to what was stored."""
    params = ChaosParams(num_vms=16, num_flows=60, schemes=("SwitchV2P",))
    job = chaos_jobs(params)["SwitchV2P", "faulted"]
    [result] = parallel_run_experiments([job], workers=0,
                                        cache=RunCache(tmp_path))
    reloaded = RunCache(tmp_path).get(job_key(job))
    assert isinstance(reloaded.resilience, ResilienceSummary)
    assert reloaded.resilience.gateway_failovers >= 1
    assert reloaded.window_fct_ns and reloaded.hit_rate_windows
    assert reloaded == result


def test_corrupted_entry_is_dropped(tmp_path):
    store = RunCache(tmp_path)
    _run(store)
    (entry,) = store.entries()
    entry.write_text("{not json")
    key = _base_key()
    assert store.get(key) is None
    assert store.stats.invalid == 1
    assert not entry.exists(), "corrupted entry must be unlinked"


@pytest.mark.parametrize("payload", ["[]", "5", '"x"', "null"])
def test_an_entry_that_is_not_a_json_object_is_dropped(tmp_path, payload):
    """Valid JSON of another shape is as corrupt as invalid JSON: a miss
    whose file is deleted, not an ``AttributeError`` out of ``get``."""
    store = RunCache(tmp_path)
    _run(store)
    (entry,) = store.entries()
    entry.write_text(payload)
    assert store.get(_base_key()) is None
    assert store.stats.invalid == 1
    assert not entry.exists()


def test_stale_schema_entry_is_dropped(tmp_path):
    store = RunCache(tmp_path)
    _run(store)
    (entry,) = store.entries()
    payload = json.loads(entry.read_text())
    payload["schema"] = -1
    entry.write_text(json.dumps(payload))
    assert store.get(_base_key()) is None
    assert store.stats.invalid == 1
    assert not entry.exists()


def test_wrong_key_entry_is_dropped(tmp_path):
    """An entry whose embedded key mismatches its address is invalid."""
    store = RunCache(tmp_path)
    _run(store)
    (entry,) = store.entries()
    key = _base_key()
    other = "ab" + key[2:]
    target = store._path(other)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(entry.read_text())
    assert store.get(other) is None
    assert store.stats.invalid == 1


def test_clear_and_size(tmp_path):
    store = RunCache(tmp_path)
    _run(store)
    _run(store, cache_ratio=8.0)
    assert len(store.entries()) == 2
    assert store.size_bytes() > 0
    assert store.clear() == 2
    assert store.entries() == []
    assert store.size_bytes() == 0


# ----------------------------------------------------------------------
# Environment switches
# ----------------------------------------------------------------------
def test_env_kill_switch(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RUNCACHE", "0")
    assert not runcache_enabled()
    assert default_cache() is None
    assert resolve_cache("auto") is None
    _run()
    assert list(tmp_path.rglob("*.json")) == []


def test_env_enables_default_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RUNCACHE", "1")
    assert runcache_enabled()
    store = default_cache()
    assert isinstance(store, RunCache)
    assert store.root == tmp_path
    assert resolve_cache("auto") is store
    _run()
    assert len(store.entries()) == 1


def test_explicit_store_overrides_kill_switch(monkeypatch, tmp_path):
    """An explicitly passed RunCache works even when the env disables
    the *default* cache — tests and tools opt in deliberately."""
    monkeypatch.setenv("REPRO_RUNCACHE", "0")
    store = RunCache(tmp_path)
    assert resolve_cache(store) is store
    _run(store)
    assert store.stats.stores == 1


def test_resolve_cache_rejects_junk():
    with pytest.raises(TypeError):
        resolve_cache(42)
