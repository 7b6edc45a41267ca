"""Fluid-engine contracts: D110 and W402.

The hybrid-fidelity engine (:mod:`repro.sim.fluid`) is only exact
because every mutation of simulator state it performs is funneled
through a small set of audited code paths — probe walks, round
commits, escalations, adoptions, re-injections, and the one-time hook
installation — where the corresponding bookkeeping (delta recording,
cache ``on_mutate`` observation, transport restoration) happens.  A
per-packet counter poked from anywhere else in fluid-path code would
be replayed or skipped silently, corrupting the packet-mode
equivalence the engine guarantees.  D110 holds modules that declare
``FLUID_PATH_MODULE = True`` at module level to that; it is inert
everywhere else.

W402 is the other half of the same contract, in every linted module:
a fluid flow stays exact only while each change to cache, mapping or
gateway-pool state escalates the flows that crossed it, so the function
that writes such state fires the notification itself — not its caller,
not a callee.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from fnmatch import fnmatchcase

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, rule
from repro.analysis.rules.common import call_name, scope_walk

#: Function-name prefixes (after stripping leading underscores) whose
#: bodies are the audited mutation paths; everything reachable from
#: them — nested closures included — may touch simulator state.
_AUDITED_PREFIXES = ("walk", "commit", "escalate", "adopt", "reinject",
                     "install")

#: Attribute roots a non-audited function may still assign through:
#: its own object and the fluid bookkeeping records, which are not
#: simulator state.
_LOCAL_ROOTS = frozenset({"self", "cls", "flow", "ctx"})

#: Method names that mutate cache contents; calling one outside an
#: audited path bypasses the ``on_mutate`` escalation contract.
_CACHE_MUTATORS = frozenset({"insert", "invalidate", "clear"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_marked(tree: ast.Module) -> bool:
    """Does the module declare ``FLUID_PATH_MODULE = True`` at top level?"""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if any(isinstance(target, ast.Name)
                   and target.id == "FLUID_PATH_MODULE"
                   for target in node.targets):
                value = node.value
                return isinstance(value, ast.Constant) and value.value is True
    return False


def _is_audited(name: str) -> bool:
    return name.lstrip("_").startswith(_AUDITED_PREFIXES)


def _store_root(node: ast.expr) -> str | None:
    """The root ``Name`` of an attribute/subscript assignment target."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@rule
class FluidPathMutationRule(Rule):
    """D110: fluid-path state mutation outside the audited helpers."""

    rule_id = "D110"
    summary = ("simulator-state mutation in FLUID_PATH_MODULE code "
               "outside walk/commit/escalate/adopt/reinject/install "
               "paths; bypasses the escalation/invalidation hooks")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not _is_marked(module.tree):
            return
        yield from self._scan_body(module, module.tree.body)

    def _scan_body(self, module: ModuleContext,
                   body: list[ast.stmt]) -> Iterator[Finding]:
        """Scan statements of one non-audited scope, recursing into
        class bodies and non-audited nested functions; audited
        functions (and everything they enclose) are skipped wholesale.
        """
        for stmt in body:
            if isinstance(stmt, _FUNCTION_NODES):
                if not _is_audited(stmt.name):
                    yield from self._scan_body(module, stmt.body)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan_body(module, stmt.body)
                continue
            yield from self._scan_statement(module, stmt)

    def _scan_statement(self, module: ModuleContext,
                        stmt: ast.stmt) -> Iterator[Finding]:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root = _store_root(target)
                    if root is None or root not in _LOCAL_ROOTS:
                        yield self.finding(
                            module, target.lineno, target.col_offset,
                            f"assignment through {root or 'an expression'!s} "
                            "mutates simulator state outside an audited "
                            "fluid path; move it into a walk/commit/"
                            "escalate/adopt/reinject helper so the "
                            "escalation hooks observe it")
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if (isinstance(node.func, ast.Attribute)
                        and name in _CACHE_MUTATORS):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f".{name}() call outside an audited fluid path; "
                        "cache mutations must flow through walk/commit/"
                        "escalate paths where on_mutate escalation is "
                        "accounted for")
                elif isinstance(node.func, ast.Name) \
                        and node.func.id == "setattr":
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "setattr() outside an audited fluid path writes "
                        "simulator state the escalation hooks cannot see")


#: Attribute names holding cache/mapping/gateway-pool state.
STATE_ATTRS = frozenset({"_keys", "_values", "_abits", "_sets", "_table",
                         "live_gateways"})
#: Call-name patterns that count as escalation/observer notification.
NOTIFY_CALLS = ("escalate_*", "on_mutate", "note_mutation")
#: Attributes whose stored callables are notification hooks; calling
#: one, or a local aliased from one (``cb = self.on_mutate; cb()``),
#: counts.
NOTIFY_ATTRS = frozenset({"on_mutate", "_listeners", "learning_draw_observer"})
#: Container-method names treated as mutating their receiver.
MUTATING_METHODS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault", "append", "extend",
    "remove", "insert", "add", "discard", "move_to_end"})

_HOOK = "<hook>"
_TRACKED = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete, ast.For,
            ast.Call)


def _aliased(node: ast.expr | None, env: dict[str, str | None]) -> str | None:
    """What an expression is, or goes through: a ``STATE_ATTRS`` name,
    ``_HOOK`` for a ``NOTIFY_ATTRS`` callable (or list of them), or
    ``None``.  Follows attribute/subscript chains down to a local, or
    to a call of a helper ``env`` lists (as ``"name()"``) as returning
    state."""
    names = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    for name in names:
        if name in STATE_ATTRS:
            return name
    if not NOTIFY_ATTRS.isdisjoint(names):
        return _HOOK
    if isinstance(node, ast.Call):
        return env.get(f"{call_name(node)}()")
    return env.get(node.id) if isinstance(node, ast.Name) else None


def _notifies(call: ast.Call, env: dict[str, str | None]) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and env.get(func.id) == _HOOK:
        return True
    if isinstance(func, ast.Attribute) and func.attr in NOTIFY_ATTRS:
        return True
    name = call_name(call)
    return name is not None and any(fnmatchcase(name, pattern)
                                    for pattern in NOTIFY_CALLS)


@rule
class StateWriterNotifies(Rule):
    """W402: whoever writes escalation-relevant state notifies."""

    rule_id = "W402"
    summary = ("a function that writes cache/mapping/gateway-pool state "
               "must fire on_mutate/escalate_*/its listeners in its own "
               "body")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        # This file's helpers that hand out state (``return
        # self._sets[i]``): what they return is an alias like any other.
        helpers = {f"{function.name}()": attr
                   for function in module.functions()
                   for node in scope_walk(function)
                   if isinstance(node, ast.Return)
                   and (attr := _aliased(node.value, {})) in STATE_ATTRS}
        stack: list[ast.AST] = [module.tree]
        while stack:
            for child in ast.iter_child_nodes(stack.pop()):
                if not isinstance(child, _FUNCTION_NODES):
                    stack.append(child)
                elif child.name != "__init__":
                    # Not descended into: a closure is checked as part
                    # of the function that defines it.
                    yield from self._check_function(module, child, helpers)

    def _check_function(self, module: ModuleContext, function: ast.AST,
                        helpers: dict[str, str]) -> Iterator[Finding]:
        env: dict[str, str | None] = dict(helpers)
        writes: list[tuple[ast.expr, str]] = []
        notifies = False

        def touch(target: ast.expr) -> None:
            attr = _aliased(target, env)
            if attr is not None and attr != _HOOK:
                writes.append((target, attr))

        def store(target: ast.expr, origin: str | None = None) -> None:
            if isinstance(target, ast.Name):
                env[target.id] = origin
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    store(element)
            else:
                touch(target)

        # Source order, so that a local is bound before its uses are
        # looked at; loops are seen once.
        for node in sorted(
                (n for n in ast.walk(function) if isinstance(n, _TRACKED)),
                key=lambda n: (n.lineno, n.col_offset)):
            if isinstance(node, ast.Call):
                notifies = notifies or _notifies(node, env)
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in MUTATING_METHODS:
                    touch(node.func.value)
            elif isinstance(node, ast.For):
                store(node.target, _aliased(node.iter, env))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    store(target)
            else:  # Assign / AnnAssign bind; AugAssign only stores.
                origin = (None if isinstance(node, ast.AugAssign)
                          else _aliased(node.value, env))
                for target in getattr(node, "targets", None) or [node.target]:
                    store(target, origin)
        if writes and not notifies:
            first = writes[0][0]
            attrs = ", ".join(sorted({attr for _, attr in writes}))
            yield self.finding(
                module, first.lineno, first.col_offset,
                f"{function.name}() writes state ({attrs}) and fires no "
                "escalation hook or mutation observer in its own body; "
                "whoever owns the state notifies: fire on_mutate/"
                "escalate_*/the listeners here")
