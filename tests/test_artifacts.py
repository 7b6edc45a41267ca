"""The artifact registry, and a golden for what no committed table pins.

The registry (:mod:`repro.experiments.artifacts`) declares every table
under ``benchmarks/results/`` once; ``reproduce``, the benchmarks and
``benchmarks/regen_check.py`` print through it.  These tests pin the
registry's shape — its keys are the committed file stems, every name
resolves from the CLI, ``table()`` is pure — and leave the bytes to the
regeneration gate, which runs at the bench scale.

The golden (``tests/data/golden_fault_harnesses.json``) was recorded at
commit d476b08, the parent of the change that folded the fault
harnesses' private build/arm/play pipelines into
``repro.experiments.scenario.build_scenario``: chaos-fuzz trials and a
shrunk failure must come out of the one builder exactly as they came
out of the separate ones.  The ``reproducer`` section holds what the
JSON reproducer file of that time recorded, less its format, version
and parameters; the failing command line is the reproducer now.
Re-record it with ``PYTHONPATH=src:tests python tests/test_artifacts.py``
only for a change that means to move these numbers, and say so in the
PR.
"""

from __future__ import annotations

import json
import pickle
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import artifacts, parallel
from repro.experiments.artifacts import (
    ARTIFACTS,
    artifact_names,
    reproduce,
    resolve,
    simulate,
)
from repro.experiments.chaosfuzz import (
    ChaosFuzzParams,
    gray_chaos_params,
    run_chaos_fuzz,
    run_one_trial,
)
from repro.experiments.faults import ChaosParams, chaos_spec
from repro.experiments.figures import FigureScale
from repro.experiments.runcache import default_cache, job_key
from repro.faults.fuzz import generate_schedule
from repro.traces.incast import IncastTraceParams
from repro.vnet.network import VirtualNetwork

RESULTS_DIR = Path(__file__).parent.parent / "benchmarks" / "results"
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fault_harnesses.json"

#: Small enough that all 23 artifacts run in a few seconds.
TINY = FigureScale(num_vms=32, hadoop_flows=40, websearch_flows=3,
                   microburst_bursts=12, video_streams=4, alibaba_rpcs=40,
                   alibaba_services=4, alibaba_containers=8,
                   ratios=(4.0,), seed=2)

SHORT_NAMES = ("fig5a", "fig5b", "fig5c", "fig5d", "fig6", "fig7", "fig9",
               "fig10", "table5", "table6", "appendix")

#: Every config an artifact is sized by, shrunk the same way.
TINY_CONFIGS = {FigureScale: TINY,
                IncastTraceParams: IncastTraceParams(num_senders=4,
                                                     packets_per_sender=50),
                ChaosParams: ChaosParams(num_vms=16, num_flows=60)}


def _flags(config, names) -> list[str]:
    """The ``reproduce`` flags that set the ``names`` fields of ``config``."""
    argv = []
    for name in names:
        value = getattr(config, name)
        argv += [f"--{name.replace('_', '-')}",
                 *map(str, value if isinstance(value, tuple) else [value])]
    return argv


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def test_registry_keys_are_the_committed_file_stems():
    assert set(ARTIFACTS) == {path.stem for path in RESULTS_DIR.glob("*.txt")}
    assert len(ARTIFACTS) == 23
    assert all(name == artifact.name for name, artifact in ARTIFACTS.items())


def test_reproduce_accepts_every_stem_and_every_short_name():
    assert sorted(artifact_names()) == sorted([*ARTIFACTS, *SHORT_NAMES])
    parser = build_parser()
    for name in artifact_names():
        assert parser.parse_args(["reproduce", name]).artifact == name
        assert resolve(name)
    # A short name stands for every file of its figure, off one run.
    fig7 = resolve("fig7")
    assert [a.name for a in fig7] == ["fig7_pod_bytes", "fig7_heatmap"]
    assert fig7[0].jobs is fig7[1].jobs is ARTIFACTS["fig8_switch_bytes"].jobs
    with pytest.raises(KeyError):
        resolve("fig99")


def _title_and_header(text: str) -> tuple[str, list[str]]:
    """A rendered table's title and header cells (widths follow the data)."""
    title, header = text.splitlines()[:2]
    return title, [cell.strip() for cell in header.split("|")]


#: The :class:`FigureScale` fields each entry's runs read; a flag for
#: another, off its default, exits 2.
READS = {"fig8_switch_bytes": ("num_vms", "hadoop_flows", "seed"),
         "ablation_features": ("num_vms", "hadoop_flows", "seed"),
         "table5": [field.name for field in fields(TINY)
                    if field.name != "ratios"]}


@pytest.mark.parametrize("name", list(READS))
def test_reproduce_prints_the_committed_title_and_header(name, capsys):
    """The first two could only be printed by their benchmark files, and
    ``table5`` printed another layer order than the committed one."""
    assert main(["reproduce", name, *_flags(TINY, READS[name])]) == 0
    committed = (RESULTS_DIR / f"{resolve(name)[0].name}.txt").read_text()
    assert _title_and_header(capsys.readouterr().out) \
        == _title_and_header(committed)


@pytest.fixture(scope="module")
def registry_run():
    """The whole registry simulated at the tiny configs in one
    :func:`simulate` call, inline: ``(results, the job lists handed to
    the pool, the run key of every simulation)``."""
    pool_calls, simulated = [], []
    pool, execute = artifacts.parallel_run_experiments, parallel._execute_job
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "parallel_run_experiments",
                      lambda jobs, *args, **kwargs: (
                          pool_calls.append(list(jobs))
                          or pool(jobs, *args, **kwargs)))
        patch.setattr(parallel, "_execute_job", lambda job: (
            simulated.append(job_key(job)) or execute(job)))
        results = simulate(ARTIFACTS.values(), *TINY_CONFIGS.values(),
                           workers=0)
    return results, pool_calls, simulated


def test_every_table_is_pure(registry_run):
    """Same result twice -> same text, off what was simulated alone."""
    assert {type(a.config) for a in ARTIFACTS.values()} \
        == {*TINY_CONFIGS, type(None)}
    results, _, _ = registry_run
    assert list(results) == list(ARTIFACTS)
    for name, artifact in ARTIFACTS.items():
        assert artifact.render(results[name]) \
            == artifact.render(results[name]), name
        title, headers, rows = artifact.table(results[name])
        assert title and rows, name
        assert all(len(row) == len(headers) for row in rows), name


def test_the_registry_is_one_pool_call_and_each_run_one_simulation(
        registry_run):
    """Every entry's jobs go to the pool together; a run that several
    entries list (Table 5's points are Figure 5 points) is simulated
    once; a subset prints what it printed in the whole registry."""
    results, pool_calls, simulated = registry_run
    [jobs] = pool_calls
    keys = [job_key(job) for job in jobs]
    assert len(keys) == sum(len(a.jobs(a.sized(*TINY_CONFIGS.values())))
                            for a in ARTIFACTS.values())
    assert len(set(keys)) < len(keys)
    assert sorted(simulated) == sorted(set(keys))
    subset = [*resolve("fig7"), *resolve("table5"), *resolve("fig5a"),
              ARTIFACTS["reordering"], ARTIFACTS["table4_migration"]]
    assert reproduce(subset, *TINY_CONFIGS.values()) == {
        entry.name: entry.render(results[entry.name]) for entry in subset}


def test_every_registry_job_is_plain_data():
    """Every entry's jobs key and survive a pickle round trip: no job
    holds a live object, fault runs included.  Table 6 lists none."""
    for name, artifact in ARTIFACTS.items():
        jobs = artifact.jobs(artifact.sized(*TINY_CONFIGS.values()))
        assert bool(jobs) == (name != "table6_resources"), name
        for job in jobs.values():
            assert isinstance(job_key(job), str)
            assert pickle.loads(pickle.dumps(job)) == job, name


#: The entries whose runs are pool jobs now, not a serial loop that
#: kept each network: Figures 7 and 8 (five schemes) and Table 5 (five
#: traces), ten simulations.
POOLED = ("fig7_pod_bytes", "fig7_heatmap", "fig8_switch_bytes",
          "table5_hit_distribution")


def test_figures_7_8_and_table5_run_as_cached_pool_jobs(monkeypatch,
                                                         tmp_path):
    """Inline and over two workers print the same; against one run
    cache, the second call simulates nothing and prints the same."""
    entries = [ARTIFACTS[name] for name in POOLED]
    inline = reproduce(entries, TINY, workers=0)
    assert list(inline) == list(POOLED)
    assert reproduce(entries, TINY, workers=2) == inline
    monkeypatch.setenv("REPRO_RUNCACHE", "1")
    monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path))
    store = default_cache()
    assert reproduce(entries, TINY, workers=2) == inline
    assert (store.stats.misses, store.stats.stores) == (10, 10)
    assert reproduce(entries, TINY, workers=2) == inline
    assert (store.stats.misses, store.stats.hits) == (10, 10)


# ----------------------------------------------------------------------
# the parent-recorded golden
# ----------------------------------------------------------------------
SMALL = ChaosFuzzParams(num_vms=16, num_flows=24)
GRAY = gray_chaos_params(num_vms=16, num_flows=24)
TRIAL_SEED = 1234


def _observe_trials() -> list[dict]:
    """One trial per (params, scheme, bug) on one fuzzed schedule, with
    the finished network's counters next to the verdict."""
    finished = []
    finalize = VirtualNetwork.finalize

    def recording_finalize(network):
        finalize(network)
        finished.append(network)

    VirtualNetwork.finalize = recording_finalize
    try:
        trials = []
        for label, params in (("stock", SMALL), ("gray", GRAY)):
            schedule = generate_schedule(chaos_spec(), params.num_vms,
                                         params.fuzz, seed=TRIAL_SEED)
            bugs = [None, "skip-cache-flush"]
            if label == "gray":
                bugs.append("disabled-audit")
            for scheme in ("SwitchV2P", "GwCache"):
                for bug in bugs:
                    outcome = run_one_trial(scheme, schedule.events, params,
                                            TRIAL_SEED, bug)
                    collector = finished[-1].collector
                    trials.append({
                        "params": label, "scheme": scheme, "bug": bug,
                        "num_events": outcome.num_events,
                        "violations": [[v.oracle, v.time_ns, v.detail]
                                       for v in outcome.violations],
                        "packets_sent": collector.packets_sent,
                        "deliveries": collector.deliveries,
                        "gateway_arrivals": collector.gateway_arrivals,
                        "misdeliveries": collector.misdeliveries,
                        "drops": collector.drops,
                        "avg_fct_ns": collector.average_fct_ns(),
                    })
        return trials
    finally:
        VirtualNetwork.finalize = finalize


def _observe_reproducer() -> dict:
    """What ``chaos --bug skip-cache-flush`` finds and shrinks, and the
    first violation of the failure's oracle that ``run_one_trial`` on
    the shrunk events trips."""
    seed, bug = 6, "skip-cache-flush"
    result = run_chaos_fuzz(trials=4, seed=seed, schemes=("SwitchV2P",),
                            params=SMALL, bug=bug)
    failure = result.failures[0]
    oracle = failure.violations[0].oracle
    replayed = run_one_trial(failure.scheme, result.shrunk, SMALL,
                             failure.trial_seed, bug, failure.trial)
    detail = next(v.detail for v in replayed.violations if v.oracle == oracle)
    return {"scheme": failure.scheme, "root_seed": seed,
            "trial": failure.trial, "trial_seed": failure.trial_seed,
            "bug": bug, "oracle": oracle, "detail": detail,
            "original_events": failure.num_events,
            "schedule": {"events": [
                {"at_ns": e.at_ns, "kind": e.kind.value, "target": e.target,
                 "loss_rate": e.loss_rate} for e in result.shrunk]}}


def _observe() -> dict:
    return {"trials": _observe_trials(),
            "reproducer": _observe_reproducer()}


def test_fault_harnesses_match_the_parent_recorded_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    # Through JSON and back, as the golden went: tuples become lists.
    observed = json.loads(json.dumps(_observe()))
    assert set(observed) == set(golden)
    for section in ("trials", "reproducer"):
        assert observed[section] == golden[section], section


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_observe(), indent=1,
                                      sort_keys=True) + "\n")
    sys.exit(0)
