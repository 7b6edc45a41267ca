"""The eight rules of ``tests/source_rules.py``: over the tree, on their
fixtures, and on bugs seeded into copies of the real sources.

* Every ``.py`` under ``src/`` and ``benchmarks/`` is parsed once and
  must break no rule; a failure lists ``path:line: RULE message``.
* Each rule flags its bad fixture under ``tests/data/lint_fixtures/``
  and passes its good one; W402 also has one good/bad pair per idiom it
  follows (local aliases, helpers that return state, hooks aliased in
  one or two steps, closures).
* Each rule reports, alone, one bug written into a copy of a real
  source file — the seeded instances each rule was priced on, plus the
  two it was reshaped for (a state write in a hook builder, a second
  collector pause) — and W402 reports the removal of any one of the
  cache core's eight ``on_mutate`` blocks.
"""
from __future__ import annotations

import ast
import re
import time
from functools import cache
from pathlib import Path

import pytest

from source_rules import RULES, d102, d110, module_name_for, r303, w402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"


def _sources() -> list[Path]:
    return sorted(path.relative_to(ROOT)
                  for top in ("src", "benchmarks")
                  for path in (ROOT / top).rglob("*.py")
                  if "__pycache__" not in path.parts)


@cache
def _tree() -> list[tuple[Path, str, ast.Module]]:
    return [(path, module_name_for(path),
             ast.parse((ROOT / path).read_text(encoding="utf-8")))
            for path in _sources()]


def _findings(source: str, module: str) -> list[tuple[str, int, str]]:
    """Every rule's findings on one module, as ``(rule, line, message)``."""
    tree = ast.parse(source)
    return [(rule_id, line, message) for rule_id, rule in RULES.items()
            for line, message in rule(tree, module)]


# ----------------------------------------------------------------------
# the tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", RULES)
def test_the_tree_breaks_no_rule(rule_id):
    report = [f"{path}:{line}: {rule_id} {message}"
              for path, module, tree in _tree()
              for line, message in RULES[rule_id](tree, module)]
    assert not report, "\n".join(report)


def test_a_cold_pass_over_the_tree_is_fast():
    start = time.perf_counter()
    sources = _sources()
    for path in sources:
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for rule in RULES.values():
            list(rule(tree, module_name_for(path)))
    elapsed = time.perf_counter() - start
    # The whole tree, not an empty glob: 87 files when last counted.
    assert len(sources) > 80
    # About 2 s on a 2-vCPU box; the bound leaves slack for loaded machines.
    assert elapsed < 60.0, f"cold pass took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
#: The module a fixture is linted as, where the default
#: ``repro.fixtures.<stem>`` is outside the rule's scope.
_FIXTURE_MODULE = {"D110": "repro.sim.fluid", "R303": "repro.net.topology",
                   "R304": "repro.net.node"}


def _lint_fixture(rule_id: str, name: str) -> list[tuple[int, str]]:
    """Run exactly one rule over one fixture file."""
    path = FIXTURES / name
    module = _FIXTURE_MODULE.get(rule_id, f"repro.fixtures.{path.stem}")
    return list(RULES[rule_id](ast.parse(path.read_text(encoding="utf-8")),
                               module))


# (rule, failing fixture, expected findings, passing fixture)
CASES = [
    ("D101", "bad_d101.py", 3, "good_d101.py"),
    ("D102", "bad_d102.py", 3, "good_d102.py"),
    ("D103", "bad_d103.py", 3, "good_d103.py"),
    ("D110", "bad_d110.py", 3, "good_d110.py"),
    ("R303", "bad_r303.py", 1, "good_r303.py"),
    ("R304", "bad_r304.py", 3, "good_r304.py"),
    ("W402", "bad_w402.py", 2, "good_w402.py"),
    ("W404", "bad_w404.py", 3, "good_w404.py"),
]


@pytest.mark.parametrize(("rule_id", "bad", "expected", "good"), CASES)
def test_rule_flags_bad_fixture(rule_id, bad, expected, good):
    findings = _lint_fixture(rule_id, bad)
    assert len(findings) == expected, findings


@pytest.mark.parametrize(("rule_id", "bad", "expected", "good"), CASES)
def test_rule_passes_good_fixture(rule_id, bad, expected, good):
    assert _lint_fixture(rule_id, good) == []


def test_r303_flags_the_right_mutator():
    ((_, message),) = _lint_fixture("R303", "bad_r303.py")
    assert "set_link_state" in message and "note_fault" in message


def test_r303_reports_stale_pairing():
    """A renamed mutator cannot switch its pairing off."""
    source = (FIXTURES / "good_r303.py").read_text(encoding="utf-8")
    renamed = ast.parse(source.replace("def set_link_state",
                                       "def set_cable_state"))
    ((_, message),) = r303(renamed, "repro.net.topology")
    assert "stale" in message and "set_link_state" in message


def test_d102_flags_a_generator_seeded_with_the_raw_experiment_seed():
    """The one RNG finding history has (``chaos_flows`` at ``80416e9``,
    fixed at ``056cca0``): seeded, so reproducible, but sharing its
    stream with every other consumer of the same root seed.  Only
    simulation code is held to it."""
    tree = ast.parse("import numpy as np\n\n"
                     "def chaos_flows(params):\n"
                     "    return np.random.default_rng(params.seed)\n")
    for module, expected in (("repro.experiments.faults", 1),
                             ("repro.sim.randomness", 0),
                             ("benchmarks.common", 0)):
        findings = list(d102(tree, module))
        assert len(findings) == expected, (module, findings)
        assert all("derive_seed" in message for _, message in findings)


def test_d110_inert_outside_its_scope():
    tree = ast.parse("def refresh(switch):\n    switch.stats.packets += 1\n")
    assert list(d110(tree, "repro.sim.engine")) == []
    assert len(list(d110(tree, "repro.sim.fluid"))) == 1


# ----------------------------------------------------------------------
# W402: what one function's walk sees
# ----------------------------------------------------------------------
def _w402(source: str) -> list[tuple[int, str]]:
    return list(w402(ast.parse(source), "repro.fixtures.w402"))


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
        "    self.fluid.escalate_all(\"vm-migration\")\n",
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
    ((_, message),) = _w402(head + bad)
    assert message.startswith(f"{function}() writes state")


# ----------------------------------------------------------------------
# bugs seeded into copies of the real sources
# ----------------------------------------------------------------------
_HOOK_BLOCK = re.compile(r"( +)cb = self\.on_mutate\n"
                         r"\1if cb is not None:\n"
                         r"\1    cb\(\)\n")


def test_removing_cache_escalation_hook_is_caught():
    """Nothing in the cache core is exempt: every body that mutates
    fires ``on_mutate`` itself, and W402 alone holds each of the eight
    to it, one at a time."""
    source = (ROOT / "src/repro/cache/core.py").read_text(encoding="utf-8")
    blocks = list(_HOOK_BLOCK.finditer(source))
    assert len(blocks) == 8
    for block in blocks:
        broken = source[:block.start()] + source[block.end():]
        ((rule_id, _, message),) = _findings(broken, "repro.cache.core")
        owner = re.findall(r"    def (\w+)\(", source[:block.start()])[-1]
        assert rule_id == "W402" and message.startswith(f"{owner}()")


#: (rule, file, function, text in that function, what replaces it,
#: what the finding names)
MUTANTS = [
    pytest.param("D101", "vnet/network.py", "migrate",
                 "        old_host = self.host_of(vip)\n",
                 "        old_host = self.host_of(vip)\n"
                 "        self._last_migration_wall = time.time()\n",
                 "time.time", id="D101"),
    pytest.param("D102", "vnet/network.py", "__init__",
                 'int(self.streams.stream("gateway-lb").integers(0, 2**31))',
                 "random.randrange(2**31)", "random.randrange", id="D102"),
    pytest.param("D103", "sim/fluid.py", "escalate_all",
                 "for flow in list(self._flows.values()):",
                 "for flow in set(self._flows.values()):", "sorted",
                 id="D103"),
    pytest.param("D110", "sim/fluid.py", "_begin_round",
                 "        status, ctx, rtt = self._walk_round(flow)\n",
                 "        status, ctx, rtt = self._walk_round(flow)\n"
                 "        collector.packets_sent += 0\n",
                 "assignment through collector", id="D110"),
    # A recovered switch that keeps its pre-failure cache.
    pytest.param("R303", "net/node.py", "recover",
                 "        self._flush_scheme_state()\n", "",
                 "recover", id="R303"),
    # A link cut behind the fabric's back: fault_count stays 0, so the
    # switches stay on the body that never tests ``up``.
    pytest.param("R304", "faults/schedule.py", "_fire",
                 "network.fabric.set_link_state(link, kind is FaultKind.LINK_UP)",
                 "link.up = kind is FaultKind.LINK_UP",
                 "FaultSchedule._fire writes fault state .up", id="R304"),
    # The bug the call-graph W402 let through: the ToR hook builder
    # calls ``cache.insert`` further down, so it "reached" a
    # notification and a write of its own went unseen.
    pytest.param("W402", "core/protocol.py", "_tor_hook",
                 "        def hook(packet: Packet, ingress) -> bool:\n",
                 "        def hook(packet: Packet, ingress) -> bool:\n"
                 "            cache._abits[0] = 0\n",
                 "_tor_hook() writes state (_abits)", id="W402-_tor_hook"),
    pytest.param("W404", "sim/engine.py", "collector_paused",
                 "gc.enable()", "pass", "gc.disable", id="W404-gc.enable"),
    # The bug the call-path W404 let through: a function that enters
    # ``collector_paused()`` *reaches* ``gc.enable``, so a bare
    # ``gc.disable()`` of its own next to it went unseen.
    pytest.param("W404", "vnet/network.py", "place_vms",
                 "        pips = self.config.spec.server_pips()\n",
                 "        import gc\n        gc.disable()\n"
                 "        pips = self.config.spec.server_pips()\n",
                 "place_vms()", id="W404-place_vms"),
]


@pytest.mark.parametrize(
    ("rule_id", "file", "function", "old", "new", "named"), MUTANTS)
def test_a_seeded_bug_is_reported_by_its_rule_alone(rule_id, file, function,
                                                    old, new, named):
    path = Path("src/repro") / file
    source = (ROOT / path).read_text(encoding="utf-8")
    module = module_name_for(path)
    head, body = source.split(f"def {function}(", 1)
    end = min(index for index in (body.find("\n    def "), body.find("\ndef "),
                                  len(body)) if index >= 0)
    assert 0 <= body.find(old) < end, f"{old!r} is not in {function}()"
    seeded = head + f"def {function}(" + body.replace(old, new, 1)
    assert _findings(source, module) == []
    findings = _findings(seeded, module)
    assert {rule for rule, _, _ in findings} == {rule_id}, findings
    assert any(named in message for _, _, message in findings), findings
