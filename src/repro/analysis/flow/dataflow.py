"""Per-function dataflow summaries for W402 (escalation completeness).

One :class:`FunctionSummary` is computed per project function by a
single source-ordered pass over its body (compound statements are
descended in order; loops are scanned once — enough for the alias
patterns that matter here).  The pass tracks a small abstract
environment mapping local names to *origins*:

* ``attr`` — the local aliases an attribute chain
  (``cb = self.on_mutate``; a later ``cb()`` is a notification call);
* ``state`` — the local aliases cache/mapping/gateway state, either
  directly (``keys = self._keys``) or through a helper whose summary
  says it returns state (``entries = self._set_of(vip)``) — mutations
  through it count as state mutations.

``returns_state_attr`` feeds other summaries and is resolved by
re-running the pass until a fixpoint (bounded; helper chains in
practice are one or two levels deep).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import FunctionInfo, ProjectContext

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Attribute names holding cache/mapping/gateway state; mutating them
#: on a data-plane path requires an escalation notification.
STATE_ATTRS = frozenset({"_keys", "_values", "_abits", "_sets", "_table",
                         "live_gateways"})
#: Call-name patterns that count as escalation/observer notification.
NOTIFY_CALLS = ("escalate_*", "on_mutate", "note_mutation")
#: Attributes whose stored callables are notification hooks; calling a
#: local aliased from one (``cb = self.on_mutate; cb()``) counts.
NOTIFY_ATTRS = frozenset({"on_mutate", "_listeners", "_removal_listeners",
                          "learning_draw_observer"})
#: Container-method names treated as mutating their receiver.
MUTATING_METHODS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault", "append", "extend",
    "remove", "insert", "add", "discard", "move_to_end"})


@dataclass(frozen=True)
class Site:
    """One source location with a short detail string."""

    line: int
    col: int
    detail: str


@dataclass
class _Origin:
    kind: str  # "attr" | "state"
    detail: str


@dataclass
class FunctionSummary:
    """What W402 needs to know about one function."""

    qualname: str
    #: state-attribute mutation sites (detail = the attribute).
    mutation_sites: list[Site] = field(default_factory=list)
    #: escalation/observer notification call sites.
    notify_sites: list[Site] = field(default_factory=list)
    #: state attribute this function returns an alias of, if any.
    returns_state_attr: str | None = None

    @property
    def notifies(self) -> bool:
        return bool(self.notify_sites)


def _chain_names(node: ast.expr) -> tuple[str, ...]:
    """All attribute/root names along an Attribute/Subscript chain."""
    names: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        names.append(node.id)
    return tuple(reversed(names))


class _FunctionScanner:
    """One source-ordered scan of one function body."""

    def __init__(self, func: FunctionInfo, graph: CallGraph,
                 summaries: dict[str, FunctionSummary]) -> None:
        self.func = func
        self.graph = graph
        self.summaries = summaries
        self.summary = FunctionSummary(qualname=func.qualname)
        self.env: dict[str, _Origin] = {}

    # ------------------------------------------------------------------
    def run(self) -> FunctionSummary:
        self._scan_body(self.func.node.body)
        return self.summary

    def _scan_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._scan_statement(stmt)

    def _scan_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, _FUNCTION_NODES):
            # Closures share the enclosing dataflow facts; their effects
            # are attributed to the enclosing function.
            self._scan_body(stmt.body)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Assign):
            self._visit_exprs(stmt.value)
            origin = self._classify(stmt.value)
            for target in stmt.targets:
                self._assign(target, origin)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_exprs(stmt.value)
                self._assign(stmt.target, self._classify(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_exprs(stmt.value)
            self._check_store_target(stmt.target)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store_target(target)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._visit_exprs(stmt.value)
                self._note_return(stmt.value)
            return
        if isinstance(stmt, ast.For):
            self._visit_exprs(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                # ``for listener in self._listeners`` aliases the loop
                # variable to an element of the attribute chain.
                self.env[stmt.target.id] = self._classify(stmt.iter)
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._visit_exprs(stmt.test)
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._visit_exprs(stmt.test)
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.With | ast.AsyncWith):
            for item in stmt.items:
                self._visit_exprs(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = \
                        self._classify(item.context_expr)
            self._scan_body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._scan_body(stmt.body)
            for handler in stmt.handlers:
                self._scan_body(handler.body)
            self._scan_body(stmt.orelse)
            self._scan_body(stmt.finalbody)
            return
        # Expression statements and everything else: visit every call.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._visit_call(node)

    # ------------------------------------------------------------------
    # expression effects (calls, stores)
    # ------------------------------------------------------------------
    def _visit_exprs(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._visit_call(sub)

    def _visit_call(self, call: ast.Call) -> None:
        func = call.func
        terminal = func.attr if isinstance(func, ast.Attribute) else \
            func.id if isinstance(func, ast.Name) else None
        # Notification calls (escalation hooks, observer invocations).
        if self._is_notify(call, terminal):
            self.summary.notify_sites.append(
                Site(call.lineno, call.col_offset, terminal or "?"))
        # Container mutations through state-aliased receivers.
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            attr = self._state_attr_of(func.value)
            if attr is not None:
                self.summary.mutation_sites.append(
                    Site(call.lineno, call.col_offset, attr))

    def _is_notify(self, call: ast.Call, terminal: str | None) -> bool:
        resolved = self.func.module.imports.resolve(call.func)
        if any(fnmatchcase(candidate, pattern)
               for candidate in (resolved, terminal) if candidate
               for pattern in NOTIFY_CALLS):
            return True
        # Direct invocation of a hook attribute: self.on_mutate().
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in NOTIFY_ATTRS:
            return True
        # Invocation through a local alias: cb = self.on_mutate; cb().
        if isinstance(call.func, ast.Name):
            origin = self.env.get(call.func.id)
            if origin is not None and origin.kind == "attr":
                return not NOTIFY_ATTRS.isdisjoint(origin.detail.split("."))
        return False

    # ------------------------------------------------------------------
    # assignment classification
    # ------------------------------------------------------------------
    def _classify(self, value: ast.expr) -> _Origin | None:
        """Abstract origin of an assigned expression, or None."""
        if isinstance(value, ast.Name):
            return self.env.get(value.id)
        if isinstance(value, ast.Attribute | ast.Subscript):
            chain = _chain_names(value)
            for name in chain:
                if name in STATE_ATTRS:
                    return _Origin("state", name)
            return _Origin("attr", ".".join(chain))
        if isinstance(value, ast.Call):
            return self._classify_call(value)
        return None

    def _classify_call(self, call: ast.Call) -> _Origin | None:
        """A call to a project helper that returns state aliases it."""
        for callee in self.graph.resolve_call(self.func, call):
            summary = self.summaries.get(callee)
            if summary is not None and summary.returns_state_attr is not None:
                return _Origin("state", summary.returns_state_attr)
        return None

    def _assign(self, target: ast.expr, origin: _Origin | None) -> None:
        if isinstance(target, ast.Name):
            if origin is not None:
                self.env[target.id] = origin
            else:
                self.env.pop(target.id, None)
            return
        if isinstance(target, ast.Tuple | ast.List):
            for element in target.elts:
                self._assign(element, None)
            return
        self._check_store_target(target)

    def _check_store_target(self, target: ast.expr) -> None:
        """Record a mutation when a store goes through state."""
        if not isinstance(target, ast.Attribute | ast.Subscript):
            return
        attr = self._state_attr_of(target)
        if attr is not None:
            self.summary.mutation_sites.append(
                Site(target.lineno, target.col_offset, attr))

    def _state_attr_of(self, node: ast.expr) -> str | None:
        """The state attribute a chain touches, if any (alias-aware)."""
        chain = _chain_names(node)
        for name in chain:
            if name in STATE_ATTRS:
                return name
        if chain:
            origin = self.env.get(chain[0])
            if origin is not None and origin.kind == "state":
                return origin.detail
        return None

    # ------------------------------------------------------------------
    def _note_return(self, value: ast.expr) -> None:
        origin = self._classify(value)
        if origin is not None and origin.kind == "state":
            self.summary.returns_state_attr = origin.detail


def summarize_project(project: ProjectContext,
                      graph: CallGraph) -> dict[str, FunctionSummary]:
    """Summaries for every project function, to a bounded fixpoint.

    The pass re-runs while ``returns_state_attr`` facts still change,
    so ``entries = self._set_of(vip)`` is recognized as a state alias
    once ``_set_of``'s summary says it returns state.  Real helper chains are shallow; four rounds is
    plenty and bounds pathological inputs.
    """
    summaries: dict[str, FunctionSummary] = {}
    for _ in range(4):
        fresh = {
            qualname: _FunctionScanner(func, graph, summaries).run()
            for qualname, func in project.functions.items()
        }
        stable = all(
            (summaries.get(q) is not None
             and summaries[q].returns_state_attr == s.returns_state_attr)
            for q, s in fresh.items())
        summaries = fresh
        if stable:
            break
    return summaries
