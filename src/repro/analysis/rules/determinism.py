"""D-series rules: no hidden nondeterminism in simulation code.

The simulator's contract is bit-identical results for a fixed seed.
Each rule here bans one way real nondeterminism has crept into
NS3-family reproductions: wall-clock reads, hidden global RNG state or
generators seeded from anything but the experiment seed, and
unordered-collection iteration.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, rule
from repro.analysis.rules.common import call_name, nested_scopes, scope_walk

#: Dotted call targets that read the host's clock.  ``perf_counter``
#: and friends are included: profiling belongs in ``repro.perf``, never
#: interleaved with simulation logic where a timing-dependent branch
#: could change behaviour between runs.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Consumers whose result depends on the order their input is iterated.
#: (``min``/``max``/``sum``/``len``/``any``/``all`` are deliberately
#: absent: they are order-insensitive over a set.)
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter",
                                    "reversed"})
_ORDER_SENSITIVE_METHODS = frozenset({"join", "extend"})

#: ``numpy.random`` attributes that build a generator object; every
#: other ``numpy.random.*`` call draws from the module's hidden state.
_NUMPY_FACTORIES = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "RandomState"})

#: Generator constructors whose seed must come from ``derive_seed``.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState"})

#: The one module that turns raw seeds into streams.
_STREAM_FACTORY = "repro.sim.randomness"

_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


@rule
class WallClockRule(Rule):
    """D101: simulation code must not read the wall clock."""

    rule_id = "D101"
    summary = ("wall-clock read (time.time/perf_counter/datetime.now) in "
               "simulation code; only repro.perf may time the host")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_sim_package():
            return
        if module.matches(module.config.wall_clock_allow):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve(node.func)
            if resolved in WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"call to {resolved}() reads the wall clock; simulation "
                    "code must use the engine's integer-ns clock "
                    "(Engine.now) — host timing belongs in repro.perf")


@rule
class RngDisciplineRule(Rule):
    """D102: every draw comes from a generator seeded by ``derive_seed``."""

    rule_id = "D102"
    summary = ("global-RNG call (random.* / np.random.*), or a generator "
               "seeded from anything but repro.sim.randomness.derive_seed")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        derives = (module.in_sim_package()
                   and module.module_name != _STREAM_FACTORY)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved in _RNG_CONSTRUCTORS:
                seed_args = (*node.args, *(kw.value for kw in node.keywords))
                if not seed_args:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"{resolved}() without a seed is entropy-seeded "
                        "and breaks reproducibility; pass an explicit "
                        "seed (ideally via RandomStreams)")
                elif derives and not any(
                        self._is_derived(module, arg) for arg in seed_args):
                    # The raw experiment seed would share its stream
                    # with every other consumer of the same root seed.
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"{resolved}() is not seeded from derive_seed(); "
                        "seed it with repro.sim.randomness.derive_seed("
                        "seed, name) or take a stream from RandomStreams")
            elif resolved == "random" or resolved.startswith("random."):
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"call to {resolved}() uses the stdlib's hidden global "
                    "RNG; draw from a named RandomStreams stream instead")
            elif resolved.startswith("numpy.random.") \
                    and resolved.rsplit(".", 1)[1] not in _NUMPY_FACTORIES:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"call to {resolved}() hits numpy's hidden global "
                    "RNG state; use a Generator from "
                    "RandomStreams.stream(name) instead")

    @staticmethod
    def _is_derived(module: ModuleContext, arg: ast.expr) -> bool:
        return any(isinstance(sub, ast.Call)
                   and (module.imports.resolve(sub.func) or "")
                   .endswith("derive_seed")
                   for sub in ast.walk(arg))


@rule
class SetIterationRule(Rule):
    """D103: no order-sensitive iteration over unordered sets."""

    rule_id = "D103"
    summary = ("order-sensitive iteration over a set; wrap in sorted() — "
               "set order varies with hash seeding and build")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not (module.in_sim_package()
                or module.module_name.startswith("benchmarks")):
            return
        yield from self._check_scope(module.tree, module, frozenset())

    def _check_scope(self, scope: ast.AST, module: ModuleContext,
                     outer_sets: frozenset[str]) -> Iterator[Finding]:
        set_names = self._set_typed_names(scope, outer_sets)
        for node in scope_walk(scope):
            yield from self._check_node(node, module, set_names)
        for nested in nested_scopes(scope):
            yield from self._check_scope(nested, module, set_names)

    def _set_typed_names(self, scope: ast.AST,
                         outer: frozenset[str]) -> frozenset[str]:
        """Names assigned only set expressions within ``scope``."""
        assigned_set: set[str] = set()
        assigned_other: set[str] = set()
        for node in scope_walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_set_expr(node.value, outer):
                    assigned_set.add(target.id)
                else:
                    assigned_other.add(target.id)
        return frozenset((set(outer) | assigned_set) - assigned_other)

    def _is_set_expr(self, node: ast.expr,
                     set_names: frozenset[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self._is_set_expr(func.value, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False

    def _check_node(self, node: ast.AST, module: ModuleContext,
                    set_names: frozenset[str]) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if self._is_set_expr(node.iter, set_names):
                yield self._flag(module, node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for comp in node.generators:
                if self._is_set_expr(comp.iter, set_names):
                    yield self._flag(module, comp.iter)
        elif isinstance(node, ast.Call):
            name = call_name(node)
            is_plain = isinstance(node.func, ast.Name)
            if ((is_plain and name in _ORDER_SENSITIVE_CALLS)
                    or (not is_plain and name in _ORDER_SENSITIVE_METHODS)):
                for arg in node.args:
                    if self._is_set_expr(arg, set_names):
                        yield self._flag(module, arg)

    def _flag(self, module: ModuleContext, node: ast.AST) -> Finding:
        return self.finding(
            module, node.lineno, node.col_offset,
            "iterating a set in an order-sensitive position; set order is "
            "not part of the language contract (and varies with "
            "PYTHONHASHSEED for str/tuple elements) — wrap in sorted()")
