"""Tests for the whole-program flow layer (``repro.analysis.flow``).

Four groups:

* unit tests for call-graph construction and the dataflow summaries;
* the flow result cache (hit, invalidation-by-edit, kill switch);
* CLI modes (``--rule``, ``--changed``, ``--no-flow-cache``);
* mutation guards over the *real* repository sources — deleting a field
  from the run-cache key derivation, removing a cache escalation hook,
  or dropping the GC re-enable must each produce a W-finding.  These
  are the acceptance criteria the W-rules exist to enforce.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro.analysis.engine as engine_mod
from repro.analysis import LintConfig, lint_source
from repro.analysis.config import load_config
from repro.analysis.context import ModuleContext
from repro.analysis.engine import lint_paths, run_project_rules
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.dataflow import summarize_project
from repro.analysis.flow.project import ProjectContext
from repro.analysis.registry import get_rule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _project(config: LintConfig | None = None,
             **sources: str) -> ProjectContext:
    """Build a project from ``dotted_name=source`` keyword modules."""
    config = config or LintConfig()
    modules = []
    for dotted, source in sources.items():
        rel = Path("src", *dotted.split("."), "x").parent.with_suffix(".py")
        modules.append(ModuleContext.from_source(
            source, rel, config, module_name=dotted))
    return ProjectContext.build(modules, config)


def _repo_modules(config: LintConfig,
                  *relpaths: str,
                  edits: dict[str, tuple[str, str]] | None = None,
                  ) -> list[ModuleContext]:
    """Real repo modules, optionally with one in-memory edit applied."""
    modules = []
    for rel in relpaths:
        source = (SRC / rel).read_text(encoding="utf-8")
        if edits and rel in edits:
            old, new = edits[rel]
            assert old in source, f"edit anchor vanished from {rel}"
            source = source.replace(old, new)
        modules.append(ModuleContext.from_source(
            source, Path("src") / rel, config))
    return modules


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
def test_callgraph_resolves_imports():
    project = _project(
        util="def helper():\n    return 1\n",
        entry="from util import helper\n\ndef go():\n    return helper()\n")
    graph = CallGraph(project)
    assert graph.callees["entry.go"] == {"util.helper"}
    assert graph.callers["util.helper"] == {"entry.go"}


def test_callgraph_self_dispatch_through_base():
    project = _project(mod=(
        "class Base:\n"
        "    def ping(self):\n"
        "        return 1\n\n"
        "class Child(Base):\n"
        "    def run(self):\n"
        "        return self.ping()\n"))
    graph = CallGraph(project)
    assert graph.callees["mod.Child.run"] == {"mod.Base.ping"}


def test_callgraph_duck_typed_fallback_fans_out():
    project = _project(mod=(
        "class A:\n"
        "    def insert(self, k, v):\n"
        "        return 1\n\n"
        "class B:\n"
        "    def insert(self, k, v):\n"
        "        return 2\n\n"
        "def drive(cache):\n"
        "    cache.insert(1, 2)\n"))
    graph = CallGraph(project)
    assert graph.callees["mod.drive"] == {"mod.A.insert", "mod.B.insert"}


def test_callgraph_class_construction_edges_to_init():
    project = _project(mod=(
        "class Widget:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n\n"
        "def make():\n"
        "    return Widget()\n"))
    graph = CallGraph(project)
    assert graph.callees["mod.make"] == {"mod.Widget.__init__"}


def test_reachability_crosses_modules():
    project = _project(
        a="from b import middle\n\ndef top():\n    middle()\n",
        b="from c import leaf\n\ndef middle():\n    leaf()\n",
        c="def leaf():\n    pass\n\ndef unrelated():\n    pass\n")
    graph = CallGraph(project)
    reached = graph.reachable_from(["a.top"])
    assert reached == {"a.top", "b.middle", "c.leaf"}


# ----------------------------------------------------------------------
# dataflow summaries
# ----------------------------------------------------------------------
def test_state_returning_helper_fixpoint():
    # ``entries = self._set_of(k)`` must mark later mutations through
    # ``entries`` as _sets mutations — only a summary fixpoint sees it.
    project = _project(**{"repro.fake_cache": (
        "class Cache:\n"
        "    def _set_of(self, k):\n"
        "        return self._sets[k]\n\n"
        "    def drop(self, k):\n"
        "        entries = self._set_of(k)\n"
        "        entries.pop(k, None)\n")})
    graph = CallGraph(project)
    summaries = summarize_project(project, graph)
    helper = summaries["repro.fake_cache.Cache._set_of"]
    assert helper.returns_state_attr == "_sets"
    drop = summaries["repro.fake_cache.Cache.drop"]
    assert [site.detail for site in drop.mutation_sites] == ["_sets"]


def test_aliased_observer_call_counts_as_notify():
    project = _project(**{"repro.fake_hook": (
        "class Cache:\n"
        "    def insert(self, k, v):\n"
        "        self._keys[k] = v\n"
        "        cb = self.on_mutate\n"
        "        if cb is not None:\n"
        "            cb()\n")})
    graph = CallGraph(project)
    summaries = summarize_project(project, graph)
    summary = summaries["repro.fake_hook.Cache.insert"]
    assert summary.mutation_sites and summary.notifies


def test_rng_taint_propagates_through_helper_return():
    project = _project(**{"repro.fake_rng": (
        "import numpy as np\n\n"
        "def make():\n"
        "    return np.random.default_rng()\n\n"
        "def use(n):\n"
        "    rng = make()\n"
        "    return consume(rng, n)\n\n"
        "def consume(rng, n):\n"
        "    return rng.integers(0, n)\n")})
    graph = CallGraph(project)
    summaries = summarize_project(project, graph)
    assert summaries["repro.fake_rng.make"].returns_rng is not None
    assert summaries["repro.fake_rng.use"].rng_flow_sites


def test_rng_rules_ignore_code_outside_sim_packages():
    project = _project(**{"bench.tool": (
        "import numpy as np\n\n"
        "def make():\n"
        "    return np.random.default_rng()\n")})
    graph = CallGraph(project)
    summaries = summarize_project(project, graph)
    assert summaries["bench.tool.make"].rng_sites == []


# ----------------------------------------------------------------------
# mutation guards over the real repository sources
# ----------------------------------------------------------------------
def test_dropping_fidelity_from_job_key_is_caught():
    config = load_config(REPO_ROOT / "pyproject.toml")
    paths = ("repro/experiments/parallel.py", "repro/experiments/runcache.py")
    clean = run_project_rules(
        _repo_modules(config, *paths), [get_rule("W403")], config)
    assert [f.message for f in clean if not f.suppressed] == []
    broken = run_project_rules(
        _repo_modules(config, *paths, edits={
            "repro/experiments/runcache.py": (
                "trace=job.trace, fidelity=job.fidelity)",
                "trace=job.trace)")}),
        [get_rule("W403")], config)
    assert len(broken) == 1
    assert "fidelity" in broken[0].message


def test_removing_cache_escalation_hook_is_caught():
    # Treat the cache core's own mutators as roots so this stays a
    # one-file project instead of a full-tree walk.  Nothing in the
    # core is escalation-exempt: every body that mutates fires
    # on_mutate itself, and W402 must hold each of them to that.
    config = replace(
        load_config(REPO_ROOT / "pyproject.toml"),
        flow_entry_points=("repro.cache.core.*.insert",
                           "repro.cache.core.*.invalidate",
                           "repro.cache.core.*.lookup",
                           "repro.cache.core.*.clear"))
    assert config.escalation_exempt == ()
    path = "repro/cache/core.py"
    clean = run_project_rules(
        _repo_modules(config, path), [get_rule("W402")], config)
    assert [f.message for f in clean if not f.suppressed] == []
    hook = ("        cb = self.on_mutate\n"
            "        if cb is not None:\n"
            "            cb()\n")
    source = (SRC / path).read_text(encoding="utf-8")
    assert source.count(hook) >= 2
    broken = run_project_rules(
        _repo_modules(config, path, edits={path: (hook, "")}),
        [get_rule("W402")], config)
    assert broken, "removing on_mutate firing must trip W402"
    assert all("escalation" in f.message or "observer" in f.message
               for f in broken)


def test_removing_gc_reenable_is_caught():
    config = load_config(REPO_ROOT / "pyproject.toml")
    path = "repro/sim/engine.py"
    clean = run_project_rules(
        _repo_modules(config, path), [get_rule("W404")], config)
    assert [f.message for f in clean if not f.suppressed] == []
    broken = run_project_rules(
        _repo_modules(config, path,
                      edits={path: ("gc.enable()", "pass")}),
        [get_rule("W404")], config)
    assert len(broken) == 1
    assert "gc.disable" in broken[0].message


def test_repo_is_clean_and_cold_pass_is_fast():
    config = load_config(REPO_ROOT / "pyproject.toml")
    start = time.perf_counter()
    result = lint_paths(None, config, root=REPO_ROOT, use_flow_cache=False)
    elapsed = time.perf_counter() - start
    assert result.ok, [f.message for f in result.unsuppressed]
    assert result.files_checked > 100
    # The whole-program pass must stay cheap enough to hard-gate CI
    # (observed ~3 s; the bound leaves slack for loaded runners).
    assert elapsed < 60.0, f"cold whole-program lint took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# suppressions on project rules
# ----------------------------------------------------------------------
def test_w_rule_suppression_comment_is_honored():
    source = ("import numpy as np\n\n"
              "def make():\n"
              "    return np.random.default_rng()"
              "  # repro-lint: disable=W401\n")
    findings = lint_source(source, Path("x.py"), LintConfig(),
                           module_name="repro.fixtures.supw",
                           rules=[get_rule("W401")])
    assert len(findings) == 1
    assert findings[0].suppressed


# ----------------------------------------------------------------------
# flow result cache
# ----------------------------------------------------------------------
def test_flow_cache_hit_and_invalidation(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_LINT_CACHE", raising=False)
    proj = tmp_path / "proj"
    proj.mkdir()
    mod = proj / "m.py"
    mod.write_text("import gc\n\ndef f():\n    gc.disable()\n")
    config = LintConfig(select=("W404",))

    first = lint_paths([str(proj)], config, root=tmp_path)
    assert not first.ok
    assert len(list(cache_dir.glob("*.json"))) == 1

    # Second identical run must be served from the cache: make the
    # recompute path explode to prove it is not taken.
    def boom(*args, **kwargs):
        raise AssertionError("cache miss on unchanged sources")

    with monkeypatch.context() as context:
        context.setattr(engine_mod, "run_project_rules", boom)
        second = lint_paths([str(proj)], config, root=tmp_path)
    assert [f.as_dict() for f in second.findings] == \
        [f.as_dict() for f in first.findings]

    # Any source edit changes the key, forcing a live recompute.
    mod.write_text("import gc\n\ndef f():\n    gc.disable()\n"
                   "    gc.enable()\n")
    third = lint_paths([str(proj)], config, root=tmp_path)
    assert third.ok


def test_flow_cache_kill_switch(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(cache_dir))
    monkeypatch.setenv("REPRO_LINT_CACHE", "0")
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "m.py").write_text("import gc\n\ndef f():\n    gc.disable()\n")
    lint_paths([str(proj)], LintConfig(select=("W404",)), root=tmp_path)
    assert not cache_dir.exists()


# ----------------------------------------------------------------------
# CLI: --rule, --changed, --no-flow-cache
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"


def _run_cli(*argv: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_LINT_CACHE"] = "0"
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=False)


def test_cli_rule_filter_scopes_the_run():
    bad = str(FIXTURES / "bad_d102.py")
    only_flow = _run_cli(bad, "--rule", "W401")
    assert only_flow.returncode == 0, only_flow.stdout + only_flow.stderr
    only_d102 = _run_cli(bad, "--rule", "D102")
    assert only_d102.returncode == 1
    assert "D102" in only_d102.stdout


def test_cli_no_flow_cache_flag_accepted():
    proc = _run_cli(str(FIXTURES / "good_w401.py"), "--no-flow-cache",
                    "--rule", "W401")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_cli_changed_reports_only_touched_files(tmp_path):
    def git(*argv: str) -> None:
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        *argv], cwd=tmp_path, check=True,
                       capture_output=True)

    bad_source = "import random\nrandom.random()\n"
    (tmp_path / "old.py").write_text(bad_source)
    git("init", "-q")
    git("add", "old.py")
    git("commit", "-qm", "seed")
    (tmp_path / "new.py").write_text(bad_source)

    full = _run_cli("old.py", "new.py", "--format", "json", cwd=tmp_path)
    payload = json.loads(full.stdout)
    assert {f["path"] for f in payload["findings"]} == {"old.py", "new.py"}

    scoped = _run_cli("old.py", "new.py", "--changed", "--format", "json",
                      cwd=tmp_path)
    assert scoped.returncode == 1
    payload = json.loads(scoped.stdout)
    assert {f["path"] for f in payload["findings"]} == {"new.py"}
