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

import pytest

from repro.experiments.parallel import ExperimentJob
from repro.experiments.runcache import (
    RunCache,
    _encode,
    _flow_tuple_digest,
    _keyed_fields,
    canonical_items,
    default_cache,
    flows_digest,
    freeze_value,
    job_key,
    kwargs_dict,
    resolve_cache,
    run_key,
    runcache_enabled,
    thaw_value,
)
from repro.experiments.runner import run_experiment
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
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name not in ("collector", "network")}


def _base_key(**overrides) -> str:
    params = dict(spec=tiny_spec(), scheme_name="SwitchV2P", num_vms=8,
                  cache_ratio=4.0, seed=0, flows=_flows())
    params.update(overrides)
    spec = params.pop("spec")
    scheme = params.pop("scheme_name")
    num_vms = params.pop("num_vms")
    ratio = params.pop("cache_ratio")
    seed = params.pop("seed")
    return run_key(spec, scheme, num_vms, ratio, seed, **params)


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def test_key_is_stable():
    assert _base_key() == _base_key()


#: One override of the base run per thing the key must see; the test
#: below it fails, by name, for a ``run_key`` parameter or an
#: ``ExperimentJob`` field that has none.
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
    {"flows": None,
     "trace": TraceSpec.create("hadoop", 5, num_vms=8, num_flows=30)},
]


@pytest.mark.parametrize("override", PERTURBATIONS)
def test_key_changes_with_every_input(override):
    assert _base_key(**override) != _base_key()


def test_every_run_key_parameter_and_job_field_is_perturbed():
    """What the W403 lint checked by name, checked by behaviour: a knob
    is keyed when changing it changes the key, and the list of knobs is
    read off the code, so a new one cannot be forgotten quietly."""
    parameters = set(inspect.signature(run_key).parameters)
    fields = {field.name for field in dataclasses.fields(ExperimentJob)}
    assert fields == parameters, (
        "ExperimentJob fields and run_key parameters differ: "
        f"{sorted(fields ^ parameters)}")
    perturbed = {name for override in PERTURBATIONS for name in override}
    assert not parameters - perturbed, (
        f"no PERTURBATIONS entry changes {sorted(parameters - perturbed)}; "
        "add one, so test_key_changes_with_every_input checks it is keyed")


def test_scheme_kwargs_order_does_not_matter():
    a = _base_key(scheme_kwargs={"alpha": 1, "beta": 2.5})
    b = _base_key(scheme_kwargs={"beta": 2.5, "alpha": 1})
    assert a == b


def test_trace_spec_and_flows_forms_share_keys():
    """A spec-carrying job and its materialized flows hit the same entry."""
    trace = TraceSpec.create("hadoop", 5, num_vms=8, num_flows=30)
    by_spec = run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 5, trace=trace)
    by_flows = run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 5,
                       flows=tuple(trace.materialize()))
    assert by_spec == by_flows


def test_run_key_requires_exactly_one_workload_form():
    with pytest.raises(ValueError):
        run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 0)
    with pytest.raises(ValueError):
        run_key(tiny_spec(), "SwitchV2P", 8, 4.0, 0, flows=_flows(),
                trace=TraceSpec.create("hadoop", 0, num_vms=8, num_flows=4))


def test_job_key_matches_run_key():
    job = ExperimentJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                        flows=_flows(), num_vms=8, cache_ratio=4.0, seed=0)
    assert job_key(job) == _base_key()


def test_job_key_refuses_a_field_run_key_has_no_parameter_for():
    @dataclasses.dataclass(frozen=True)
    class QueueingJob(ExperimentJob):
        queue_model: str = "fifo"

    job = QueueingJob(spec=tiny_spec(), scheme_name="SwitchV2P",
                      flows=_flows(), num_vms=8, cache_ratio=4.0, seed=0)
    with pytest.raises(TypeError, match="queue_model"):
        job_key(job)


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


def test_flows_digest_memo_returns_the_unmemoized_digest():
    # A sweep keys every grid point off the same flows; the repeats
    # must be memo hits, and a hit must equal a fresh computation.
    flows = _flows()
    _flow_tuple_digest.cache_clear()
    first = flows_digest(flows)
    assert flows_digest(list(flows)) == first
    assert _flow_tuple_digest.cache_info().hits == 1
    assert first == _flow_tuple_digest.__wrapped__(flows)


def test_freeze_thaw_round_trip():
    value = {"b": [1, 2.5], "a": {"nested": True}}
    frozen = freeze_value(value)
    assert hash(frozen) == hash(freeze_value({"a": {"nested": True},
                                              "b": (1, 2.5)}))
    assert thaw_value(frozen) == {"a": {"nested": True}, "b": (1, 2.5)}
    items = canonical_items(value)
    assert kwargs_dict(items) == thaw_value(frozen)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
def test_miss_then_store_then_hit(tmp_path):
    store = RunCache(tmp_path)
    flows = list(_flows())
    key = _base_key()
    assert store.get(key) is None
    assert store.stats.misses == 1
    result = run_experiment(tiny_spec(), "SwitchV2P", flows, 8, 4.0, 0,
                            cache=store)
    assert store.stats.stores == 1
    cached = store.get(key)
    assert cached is not None
    assert _result_dict(cached) == _result_dict(result)
    assert store.stats.hits == 1


def test_run_experiment_warm_hit_is_identical(tmp_path):
    store = RunCache(tmp_path)
    flows = list(_flows())
    cold = run_experiment(tiny_spec(), "SwitchV2P", flows, 8, 4.0, 0,
                          cache=store)
    warm = run_experiment(tiny_spec(), "SwitchV2P", flows, 8, 4.0, 0,
                          cache=store)
    assert store.stats.hits == 1
    assert store.stats.stores == 1
    assert _result_dict(cold) == _result_dict(warm)


def test_keep_network_bypasses_cache(tmp_path):
    """Runs that keep live objects must neither store nor serve entries."""
    store = RunCache(tmp_path)
    result = run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8,
                            4.0, 0, keep_network=True, cache=store)
    assert result.network is not None
    assert store.stats.stores == 0
    assert store.entries() == []
    assert store.put(_base_key(), result) is False


def test_corrupted_entry_is_dropped(tmp_path):
    store = RunCache(tmp_path)
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0,
                   cache=store)
    (entry,) = store.entries()
    entry.write_text("{not json")
    key = _base_key()
    assert store.get(key) is None
    assert store.stats.invalid == 1
    assert not entry.exists(), "corrupted entry must be unlinked"


def test_stale_schema_entry_is_dropped(tmp_path):
    store = RunCache(tmp_path)
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0,
                   cache=store)
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
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0,
                   cache=store)
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
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0,
                   cache=store)
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 8.0, 0,
                   cache=store)
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
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0)
    assert list(tmp_path.rglob("*.json")) == []


def test_env_enables_default_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RUNCACHE", "1")
    assert runcache_enabled()
    store = default_cache()
    assert isinstance(store, RunCache)
    assert store.root == tmp_path
    assert resolve_cache("auto") is store
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0)
    assert len(store.entries()) == 1


def test_explicit_store_overrides_kill_switch(monkeypatch, tmp_path):
    """An explicitly passed RunCache works even when the env disables
    the *default* cache — tests and tools opt in deliberately."""
    monkeypatch.setenv("REPRO_RUNCACHE", "0")
    store = RunCache(tmp_path)
    assert resolve_cache(store) is store
    run_experiment(tiny_spec(), "SwitchV2P", list(_flows()), 8, 4.0, 0,
                   cache=store)
    assert store.stats.stores == 1


def test_resolve_cache_rejects_junk():
    with pytest.raises(TypeError):
        resolve_cache(42)
