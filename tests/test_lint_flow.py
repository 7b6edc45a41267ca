"""Tests for the whole-program flow layer (``repro.analysis.flow``).

Three groups:

* unit tests for call-graph construction and the dataflow summaries;
* the CLI's ``--select``;
* mutation guards over the *real* repository sources — deleting a field
  from the run-cache key derivation, removing a cache escalation hook,
  or dropping the GC re-enable must each produce a W-finding.  These
  are the acceptance criteria the W-rules exist to enforce.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

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
REPO_CONFIG = load_config(REPO_ROOT / "pyproject.toml")


def _project(config: LintConfig | None = None,
             **sources: str) -> ProjectContext:
    """Build a project from ``dotted_name=source`` keyword modules."""
    config = config or REPO_CONFIG
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


# ----------------------------------------------------------------------
# mutation guards over the real repository sources
# ----------------------------------------------------------------------
def test_dropping_fidelity_from_job_key_is_caught():
    config = REPO_CONFIG
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
    # The schemes' hook builders are data-plane roots and call
    # ``cache.insert`` / ``invalidate``, so these three files are a
    # project in which the real entry points reach the cache core.
    # Nothing in the core is exempt: every body that mutates fires
    # on_mutate itself, and W402 must hold each of them to that.
    config = REPO_CONFIG
    path = "repro/cache/core.py"
    paths = (path, "repro/core/protocol.py", "repro/baselines/caching.py")
    clean = run_project_rules(
        _repo_modules(config, *paths), [get_rule("W402")], config)
    assert [f.message for f in clean if not f.suppressed] == []
    hook = ("        cb = self.on_mutate\n"
            "        if cb is not None:\n"
            "            cb()\n")
    source = (SRC / path).read_text(encoding="utf-8")
    assert source.count(hook) >= 2
    broken = run_project_rules(
        _repo_modules(config, *paths, edits={path: (hook, "")}),
        [get_rule("W402")], config)
    assert broken, "removing on_mutate firing must trip W402"
    assert all("escalation" in f.message or "observer" in f.message
               for f in broken)


def test_removing_gc_reenable_is_caught():
    path = SRC / "repro" / "sim" / "engine.py"
    source = path.read_text(encoding="utf-8")
    assert source.count("gc.enable()") == 1
    assert lint_source(source, path, REPO_CONFIG,
                       rules=[get_rule("W404")]) == []
    broken = lint_source(source.replace("gc.enable()", "pass"), path,
                         REPO_CONFIG, rules=[get_rule("W404")])
    assert len(broken) == 1
    assert "gc.disable" in broken[0].message


def test_a_second_pause_beside_collector_paused_is_caught():
    """The seeded bug the call-path version of W404 let through: a
    function that enters ``collector_paused()`` *reaches* ``gc.enable``,
    so a bare ``gc.disable()`` of its own next to it went unseen."""
    path = SRC / "repro" / "vnet" / "network.py"
    source = path.read_text(encoding="utf-8")
    anchor = "        hosts = self.hosts\n        database = self.database\n"
    assert source.count(anchor) == 1
    seeded = source.replace(
        anchor, "        import gc\n        gc.disable()\n" + anchor)
    assert lint_source(source, path, REPO_CONFIG,
                       rules=[get_rule("W404")]) == []
    (finding,) = lint_source(seeded, path, REPO_CONFIG,
                             rules=[get_rule("W404")])
    assert "place_vms" in finding.message


def test_repo_is_clean_and_cold_pass_is_fast():
    config = REPO_CONFIG
    start = time.perf_counter()
    result = lint_paths(None, config, root=REPO_ROOT)
    elapsed = time.perf_counter() - start
    assert result.ok, [f.message for f in result.unsuppressed]
    assert result.files_checked > 100
    # The whole-program pass must stay cheap enough to hard-gate CI
    # uncached (observed ~2 s; the bound leaves slack for loaded runners).
    assert elapsed < 60.0, f"cold whole-program lint took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# suppressions on project rules
# ----------------------------------------------------------------------
def test_w_rule_suppression_comment_is_honored():
    source = ("class Cache:\n"
              "    def on_switch(self, vip, pip):\n"
              "        self._keys[vip] = pip"
              "  # repro-lint: disable=W402\n")
    findings = lint_source(source, Path("x.py"), REPO_CONFIG,
                           module_name="repro.fixtures.supw",
                           rules=[get_rule("W402")])
    assert len(findings) == 1
    assert findings[0].suppressed


# ----------------------------------------------------------------------
# CLI: --select
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"


def _run_cli(*argv: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=False)


def test_cli_rule_filter_scopes_the_run():
    bad = str(FIXTURES / "bad_d102.py")
    only_flow = _run_cli(bad, "--select", "W402")
    assert only_flow.returncode == 0, only_flow.stdout + only_flow.stderr
    only_d102 = _run_cli(bad, "--select", "D102")
    assert only_d102.returncode == 1
    assert "D102" in only_d102.stdout
