"""Tests of the benchmark itself, driving ``python -m bench --quick``.

Not tier-1 (``testpaths = ["tests"]``); run it from the repository
root with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench.layers import END_TO_END, EXACT, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, check=False)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory) -> list[Path]:
    """Result files of two complete ``--quick`` runs of the default seed."""
    out = tmp_path_factory.mktemp("bench")
    paths = [out / "a.json", out / "b.json"]
    for path in paths:
        done = run_bench("--quick", "--out", str(path))
        assert done.returncode == 0, done.stderr
    return paths


def test_manifest_repeats_the_code_tables():
    assert [entry["name"] for entry in MANIFEST["workloads"]] == list(WORKLOADS)
    for entry in MANIFEST["end_to_end"]:
        assert (entry["unit"], entry["better"], entry["bound"]) == END_TO_END[entry["name"]]
    # sim_hit_rate is 0 on hadoop-nocache; the driver wants metrics that never are.
    assert set(END_TO_END) - {entry["name"] for entry in MANIFEST["end_to_end"]} \
        == {"sim_hit_rate"}
    assert {entry["name"]: (entry["unit"], entry["better"])
            for entry in MANIFEST["per_layer"]} == PER_LAYER


def test_every_workload_reports_every_metric_with_a_unit(quick_runs):
    first = json.loads(quick_runs[0].read_text())
    for key in ("python", "cpu_count", "platform", "loadavg_start", "repeats", "seed",
                "git_commit"):
        assert key in first["environment"]
    assert list(first["workloads"]) == list(WORKLOADS)
    for document in first["workloads"].values():
        assert document["errors"] == []
        assert document["failed"] == 0 < document["attempted"]
        for metric, (unit, _, _) in END_TO_END.items():
            assert document["end_to_end"][metric]["unit"] == unit
        assert {metric: entry["unit"] for metric, entry in document["per_layer"].items()} \
            == {metric: unit for metric, (unit, _) in PER_LAYER.items()}


def test_exact_numbers_repeat_between_runs(quick_runs):
    first, second = (json.loads(path.read_text()) for path in quick_runs)
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        assert a["fingerprint"] == b["fingerprint"]
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
        for metric in EXACT:
            assert a["end_to_end"][metric]["value"] == b["end_to_end"][metric]["value"]
        for metric, (unit, _) in PER_LAYER.items():
            if unit == "count":
                assert a["per_layer"][metric]["value"] == b["per_layer"][metric]["value"], \
                    (name, metric)


def test_compare_gives_a_verdict_per_workload_and_metric(quick_runs):
    done = run_bench("--compare", *map(str, quick_runs))
    assert done.returncode in (0, 1), done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    # Same commit, same seed: no per-layer count may have moved.
    assert {(row[0], row[1]) for row in rows} \
        == {(name, metric) for name in WORKLOADS for metric in END_TO_END}
    assert {row[-1] for row in rows} <= {"pass", "regress", "unresolved"}
    exact = [row for row in rows if row[1] in EXACT]
    assert exact and all(row[-1] == "pass" for row in exact)


def test_single_workload_ends_with_the_driver_line():
    done = run_bench("--quick", "--workload", "churn-hybrid", "--seed", "5", "--trace", "1")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(PER_LAYER)


def test_tampered_expected_fails_naming_the_field(tmp_path):
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    expected["quick"]["hadoop-v2p"]["packets_sent"][0] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    done = run_bench("--quick", "--workload", "hadoop-v2p", "--trace", "0",
                     "--expected", str(tampered))
    assert done.returncode != 0
    assert "packets_sent" in done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
