"""Tests for the ``repro.analysis`` lint engine and its CLI.

Every rule is driven against one failing and one passing fixture under
``tests/data/lint_fixtures/``; the suppression forms and the CLI entry
point get their own coverage.  The base configuration is the
repository's own ``[tool.repro-lint]`` section — the only place its
scope and contracts are declared.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_source
from repro.analysis.config import MemoPairing, load_config
from repro.analysis.engine import collect_files, lint_paths
from repro.analysis.registry import all_rules, get_rule, selected_rules

FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_CONFIG = load_config(REPO_ROOT / "pyproject.toml")

#: R303 pairing aimed at the fixture Fabric classes.
_FIXTURE_PAIRING = MemoPairing(
    module="repro.fixtures.*r303",
    cls="Fabric",
    mutators=("fail_.*", "recover_.*"),
    require=("note_fault",),
)


def _lint_fixture(rule_id: str, name: str,
                  config: LintConfig | None = None):
    """Run exactly one rule over one fixture file."""
    if config is None:
        config = REPO_CONFIG
    path = FIXTURES / name
    module_name = f"repro.fixtures.{path.stem}"
    return lint_source(path.read_text(encoding="utf-8"), path, config,
                       module_name=module_name, rules=[get_rule(rule_id)])


# (rule, failing fixture, expected findings, passing fixture)
CASES = [
    ("D101", "bad_d101.py", 3, "good_d101.py"),
    ("D102", "bad_d102.py", 3, "good_d102.py"),
    ("D103", "bad_d103.py", 3, "good_d103.py"),
    ("D110", "bad_d110.py", 3, "good_d110.py"),
    ("R303", "bad_r303.py", 1, "good_r303.py"),
    ("W402", "bad_w402.py", 2, "good_w402.py"),
    ("W404", "bad_w404.py", 3, "good_w404.py"),
]


def _case_config(rule_id: str) -> LintConfig:
    if rule_id == "R303":
        return replace(REPO_CONFIG, memo_pairings=(_FIXTURE_PAIRING,))
    return REPO_CONFIG


@pytest.mark.parametrize(("rule_id", "bad", "expected", "good"), CASES)
def test_rule_flags_bad_fixture(rule_id, bad, expected, good):
    findings = _lint_fixture(rule_id, bad, _case_config(rule_id))
    assert len(findings) == expected, [f.message for f in findings]
    assert all(f.rule_id == rule_id for f in findings)
    assert not any(f.suppressed for f in findings)


@pytest.mark.parametrize(("rule_id", "bad", "expected", "good"), CASES)
def test_rule_passes_good_fixture(rule_id, bad, expected, good):
    findings = _lint_fixture(rule_id, good, _case_config(rule_id))
    assert findings == [], [f.message for f in findings]


def test_r303_flags_the_right_mutator():
    (finding,) = _lint_fixture("R303", "bad_r303.py",
                               _case_config("R303"))
    assert "fail_switch" in finding.message
    assert "note_fault" in finding.message


def test_r303_reports_stale_pairing():
    stale = replace(_FIXTURE_PAIRING, mutators=("vanished_.*",))
    findings = _lint_fixture("R303", "good_r303.py",
                             replace(REPO_CONFIG, memo_pairings=(stale,)))
    assert len(findings) == 1
    assert "stale" in findings[0].message


def test_d102_flags_a_generator_seeded_with_the_raw_experiment_seed():
    """The one RNG finding history has (``chaos_flows`` at ``80416e9``,
    fixed at ``056cca0``; W401 until it was folded into D102): seeded,
    so reproducible, but sharing its stream with every other consumer
    of the same root seed.  Only simulation code is held to it."""
    source = ("import numpy as np\n\n"
              "def chaos_flows(params):\n"
              "    return np.random.default_rng(params.seed)\n")
    for module_name, expected in (("repro.experiments.faults", 1),
                                  ("repro.sim.randomness", 0),
                                  ("benchmarks.common", 0)):
        findings = lint_source(source, Path("x.py"), REPO_CONFIG,
                               module_name=module_name,
                               rules=[get_rule("D102")])
        assert len(findings) == expected, (module_name, findings)
        assert all("derive_seed" in f.message for f in findings)


def test_d110_inert_without_marker():
    # Identical mutation, but the module never declares
    # FLUID_PATH_MODULE = True: not fluid-path code, not D110's business.
    source = "def refresh(switch):\n    switch.stats.packets += 1\n"
    findings = lint_source(source, Path("x.py"), REPO_CONFIG,
                           module_name="repro.fixtures.nomark",
                           rules=[get_rule("D110")])
    assert findings == []


def test_d110_flags_the_repo_fluid_module_if_discipline_breaks():
    # The real fluid scheduler must currently be clean under D110 —
    # this is the rule's whole point.
    path = REPO_ROOT / "src" / "repro" / "sim" / "fluid.py"
    findings = lint_source(path.read_text(encoding="utf-8"), path,
                           REPO_CONFIG, module_name="repro.sim.fluid",
                           rules=[get_rule("D110")])
    assert [f for f in findings if not f.suppressed] == [], \
        [f.message for f in findings]


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_trailing_and_next_line_suppressions():
    path = FIXTURES / "suppressed.py"
    findings = lint_source(path.read_text(encoding="utf-8"), path,
                           REPO_CONFIG, module_name="repro.fixtures.sup")
    by_rule = {f.rule_id: f for f in findings}
    assert by_rule["D102"].suppressed
    assert by_rule["D103"].suppressed
    assert not by_rule["D101"].suppressed  # control: still reported


def test_file_wide_suppression():
    path = FIXTURES / "suppressed_file.py"
    findings = lint_source(path.read_text(encoding="utf-8"), path,
                           REPO_CONFIG, module_name="repro.fixtures.supf")
    assert len(findings) == 2
    assert all(f.rule_id == "D102" and f.suppressed for f in findings)


def test_all_wildcard_suppression():
    source = "import random\nrandom.random()  # repro-lint: disable=all\n"
    findings = lint_source(source, Path("x.py"), REPO_CONFIG,
                           module_name="repro.fixtures.wild")
    assert findings and all(f.suppressed for f in findings)


def test_marker_inside_string_does_not_suppress():
    source = ('import random\n'
              'MARK = "# repro-lint: disable-file=D102"\n'
              'random.random()\n')
    findings = lint_source(source, Path("x.py"), REPO_CONFIG,
                           module_name="repro.fixtures.str")
    assert findings and not any(f.suppressed for f in findings)


# ----------------------------------------------------------------------
# engine + config
# ----------------------------------------------------------------------
def test_syntax_error_becomes_e999():
    findings = lint_source("def broken(:\n", Path("broken.py"),
                           REPO_CONFIG)
    assert len(findings) == 1
    assert findings[0].rule_id == "E999"


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        selected_rules(("D999",))


def test_rule_catalogue_is_complete():
    ids = {rule.rule_id for rule in all_rules()}
    assert ids == {"D101", "D102", "D103", "D110", "R303", "W402", "W404"}


def test_collect_files_skips_pycache(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 2\n")
    files = collect_files(["pkg"], root=tmp_path)
    assert [f.name for f in files] == ["mod.py"]


def test_load_config_reads_repo_pyproject():
    config = REPO_CONFIG
    assert "src" in config.paths
    # Declared in TOML and nowhere else: an empty LintConfig checks nothing.
    assert all(getattr(config, field.name) or field.name == "select"
               for field in fields(config)), "a key pyproject.toml does not set"


def test_load_config_rejects_a_key_that_slid_into_a_table_entry(tmp_path):
    """A plain key below an array-of-tables header is, to TOML, a key
    of that table's last entry; it must not go silently unread."""
    bad = tmp_path / "pyproject.toml"
    bad.write_text("[[tool.repro-lint.flow-call-pairs]]\n"
                   "open = 'gc.disable'\nclose = 'gc.enable'\n"
                   "sim-packages = ['repro']\n")
    with pytest.raises(ValueError, match="sim-packages"):
        load_config(bad)


def test_load_config_rejects_a_file_without_the_section(tmp_path):
    bare = tmp_path / "pyproject.toml"
    bare.write_text("[project]\nname = 'x'\n")
    with pytest.raises(ValueError, match="no \\[tool.repro-lint\\] section"):
        load_config(bare)


def test_load_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "pyproject.toml"
    bad.write_text("[tool.repro-lint]\nmystery-knob = 3\n")
    with pytest.raises(ValueError, match="mystery-knob"):
        load_config(bad)


def test_the_w403_keys_are_unknown_keys_now(tmp_path):
    """Run-cache key coverage is a property of ``runcache.job_key`` and
    ``_encode``; a config that still declares it is told so, by key."""
    stale = tmp_path / "pyproject.toml"
    for key, section in (
            ("encoded-dataclasses",
             "[tool.repro-lint]\nencoded-dataclasses = ['m.C']\n"),
            ("runcache-coverage",
             "[[tool.repro-lint.runcache-coverage]]\n"
             "dataclass = 'm.Job'\nkey-function = 'm.job_key'\n")):
        stale.write_text(section)
        with pytest.raises(ValueError, match=f"unknown .* key '{key}'"):
            load_config(stale)
        proc = _run_cli(cwd=tmp_path)
        assert proc.returncode == 2
        assert key in proc.stderr


def test_lint_paths_over_fixture_dir():
    result = lint_paths([str(FIXTURES)], REPO_CONFIG, root=REPO_ROOT)
    assert result.files_checked == len(list(FIXTURES.glob("*.py")))
    # Path-derived module names put fixtures outside repro.*, so only
    # the unscoped rules fire — but those alone must flag the bad files.
    flagged = {Path(f.path).name for f in result.unsuppressed}
    assert "bad_d102.py" in flagged
    assert "good_d102.py" not in flagged


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _run_cli(*argv: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=False)


def test_cli_clean_on_own_sources():
    proc = _run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_nonzero_on_bad_fixture():
    proc = _run_cli(str(FIXTURES / "bad_d102.py"))
    assert proc.returncode == 1
    assert "D102" in proc.stdout


def test_cli_json_report():
    proc = _run_cli(str(FIXTURES / "bad_d102.py"), "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert all(f["rule"] == "D102" for f in payload["findings"])


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("D101", "D110", "R303", "W402"):
        assert rule_id in proc.stdout


def test_cli_rejects_unknown_rule():
    proc = _run_cli("--select", "Z000")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr
