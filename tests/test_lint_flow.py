"""W402 / W404 against the real sources, and W402's per-function cases.

Two groups:

* what the per-file W402 tracks inside one function — stores through
  local aliases and same-file helpers that return state, hooks aliased
  in one or two steps, closures — as good/bad pairs;
* mutation guards over the *real* repository sources: removing any one
  ``on_mutate`` block of the cache core, writing state from a hook
  builder, or dropping the GC re-enable must each produce a finding.

(The file is named for the whole-program ``analysis/flow`` layer these
rules once ran on; every rule is a per-file walk now.)
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.config import load_config
from repro.analysis.engine import lint_paths
from repro.analysis.registry import get_rule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
REPO_CONFIG = load_config(REPO_ROOT / "pyproject.toml")


def _w402(source: str, path: Path = Path("x.py")):
    return lint_source(source, path, REPO_CONFIG, rules=[get_rule("W402")])


# ----------------------------------------------------------------------
# W402: what one function's walk sees
# ----------------------------------------------------------------------
def test_aliased_observer_call_counts_as_notify():
    assert _w402(
        "class Cache:\n"
        "    def insert(self, k, v):\n"
        "        self._keys[k] = v\n"
        "        cb = self.on_mutate\n"
        "        if cb is not None:\n"
        "            cb()\n") == []


#: function the bad half is flagged in -> (what both halves start with,
#: good ending, bad ending)
_PAIRS = {
    "refresh": (  # local alias store
        "def refresh(self, slot, vip):\n"
        "    keys = self._keys\n"
        "    keys[slot] = vip\n",
        "    self.fluid.escalate_vip(vip)\n",
        "    return slot\n"),
    "drop": (  # alias mutating method
        "def drop(self, index, vip):\n"
        "    entries = self._sets[index]\n"
        "    entries.pop(vip, None)\n",
        "    self.note_mutation(vip)\n",
        "    self.note_access(vip)\n"),
    "invalidate": (  # helper returned state
        "def _set_of(self, vip):\n"
        "    return self._sets[vip % 4]\n"
        "def invalidate(self, vip):\n"
        "    entries = self._set_of(vip)\n"
        "    del entries[vip]\n",
        "    self.on_mutate()\n",
        "    self.stats.invalidations += 1\n"),
    "remove": (  # delete
        "def remove(self, vip):\n"
        "    del self._table[vip]\n",
        "    for listener in self._listeners:\n"
        "        listener(vip)\n",
        "    for listener in self._access_listeners:\n"
        "        listener(vip)\n"),
    "load": (  # two step hook alias
        "def load(self, mappings):\n"
        "    table = self._table\n"
        "    table.update(mappings)\n",
        "    listeners = self._listeners\n"
        "    for listener in listeners:\n"
        "        listener(mappings)\n",
        "    listeners = self._loggers\n"
        "    for listener in listeners:\n"
        "        listener(mappings)\n"),
    "clear": (  # rebound hook alias
        "def clear(self):\n"
        "    self._abits[:] = []\n"
        "    cb = self.on_mutate\n",
        "    cb()\n",
        "    cb = self.on_access\n"
        "    cb()\n"),
    "bind_hook": (  # closure
        "def bind_hook(cache, fluid, switch):\n"
        "    def hook(packet):\n"
        "        cache._abits[packet.slot] = 0\n",
        "        fluid.escalate_switch(switch)\n"
        "    return hook\n",
        "        fluid.note_packet(switch)\n"
        "    return hook\n"),
}


@pytest.mark.parametrize("function", _PAIRS)
def test_w402_good_bad_pairs(function):
    head, good, bad = _PAIRS[function]
    assert _w402(head + good) == []
    (finding,) = _w402(head + bad)
    assert f" {function}() writes state" in " " + finding.message


# ----------------------------------------------------------------------
# mutation guards over the real repository sources
# ----------------------------------------------------------------------
_HOOK_BLOCK = re.compile(r"( +)cb = self\.on_mutate\n"
                         r"\1if cb is not None:\n"
                         r"\1    cb\(\)\n")


def test_removing_cache_escalation_hook_is_caught():
    """Nothing in the cache core is exempt: every body that mutates
    fires ``on_mutate`` itself, and W402 holds each of the eight to it,
    one at a time, on this one file."""
    path = SRC / "repro" / "cache" / "core.py"
    source = path.read_text(encoding="utf-8")
    assert _w402(source, path) == []
    blocks = list(_HOOK_BLOCK.finditer(source))
    assert len(blocks) == 8
    for block in blocks:
        broken = source[:block.start()] + source[block.end():]
        (finding,) = _w402(broken, path)
        owner = re.findall(r"    def (\w+)\(", source[:block.start()])[-1]
        assert f"{owner}()" in finding.message
        assert "escalation" in finding.message and "observer" in finding.message


def test_a_state_write_in_a_hook_builder_is_caught():
    """The seeded bug the call-graph version of W402 let through: the
    ToR hook builder calls ``cache.insert`` further down, so it
    "reached" a notification and a write of its own went unseen."""
    path = SRC / "repro" / "core" / "protocol.py"
    source = path.read_text(encoding="utf-8")
    before, rest = source.split("    def _tor_hook(self", 1)
    anchor = "        def hook(packet: Packet, ingress) -> bool:\n"
    assert rest.index(anchor) < rest.index("\n    def "), "not _tor_hook's"
    seeded = before + "    def _tor_hook(self" + rest.replace(
        anchor, anchor + "            cache._abits[0] = 0\n", 1)
    assert _w402(source, path) == []
    (finding,) = _w402(seeded, path)
    assert "_tor_hook()" in finding.message and "_abits" in finding.message


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
    assert result.suppressed_count == 0, "src/ and benchmarks/ carry none"
    # Cheap enough to hard-gate CI uncached (observed ~1.5 s; the bound
    # leaves slack for loaded runners).
    assert elapsed < 60.0, f"cold lint took {elapsed:.1f}s"


def test_w_rule_suppression_comment_is_honored():
    (finding,) = _w402("class Cache:\n"
                       "    def on_switch(self, vip, pip):\n"
                       "        self._keys[vip] = pip"
                       "  # repro-lint: disable=W402\n")
    assert finding.suppressed


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
