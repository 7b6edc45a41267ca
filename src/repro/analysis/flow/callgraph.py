"""Call-graph construction and inter-procedural reachability.

Resolution strategy, in decreasing order of precision:

1. **Imports** — a ``Name`` or dotted-attribute call is resolved through
   the module's :class:`~repro.analysis.context.ImportResolver` to a
   project function (``run_key(...)``, ``runcache.job_key(...)``); a
   bare local name also matches a function or class defined in the same
   module.  Calling a project *class* edges to its ``__init__``.
2. **Self dispatch** — ``self.meth(...)``/``cls.meth(...)`` inside a
   class resolves through the class and its project-visible bases.
3. **Duck-typed fallback** — ``obj.meth(...)`` with an unresolvable
   receiver edges to *every* project method named ``meth`` (the
   class-hierarchy-analysis over-approximation).  This is what carries
   reachability through the scheme/handler protocols: a switch's
   ``handler.on_switch(...)`` reaches every scheme's ``on_switch``,
   and ``cache.insert(...)`` reaches every cache geometry's ``insert``.

Over-approximation is the right bias for W402: it checks a
*completeness* property (every reachable mutation escalates), so
extra edges widen the checked set rather than hiding violations.
"""

from __future__ import annotations

import ast
from collections import deque

from repro.analysis.flow.project import FunctionInfo, ProjectContext

#: Receiver roots treated as the enclosing instance for self dispatch.
_SELF_ROOTS = frozenset({"self", "cls"})


def _attribute_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


class CallGraph:
    """Edges between project functions."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        #: caller qualname -> set of callee qualnames
        self.callees: dict[str, set[str]] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for qualname, func in self.project.functions.items():
            targets: set[str] = set()
            for node in ast.walk(func.node):
                if isinstance(node, ast.Call):
                    targets |= self.resolve_call(func, node)
            self.callees[qualname] = targets

    def resolve_call(self, func: FunctionInfo,
                     call: ast.Call) -> set[str]:
        """Project functions a call site may dispatch to."""
        project = self.project
        module = func.module
        target = call.func
        if isinstance(target, ast.Name):
            return self._resolve_name(func, target.id)
        if not isinstance(target, ast.Attribute):
            return set()
        chain = _attribute_chain(target)
        if chain is None:
            # Computed receiver (subscript, call result ...): fall back
            # on the method name alone.
            return self._cha(target.attr)
        # self.meth(...) / cls.meth(...)
        if len(chain) == 2 and chain[0] in _SELF_ROOTS \
                and func.cls is not None:
            class_qualname = f"{module.module_name}.{func.cls}"
            resolved = project.resolve_method(class_qualname, chain[1])
            if resolved is not None:
                return {resolved}
            return self._cha(chain[1])
        # Fully qualified through imports: module.func, module.Cls.meth,
        # or an imported class's method.
        dotted = module.imports.resolve(target)
        if dotted is not None:
            if dotted in project.functions:
                return {dotted}
            if dotted in project.classes:
                init = project.resolve_method(dotted, "__init__")
                return {init} if init is not None else set()
        return self._cha(chain[-1])

    def _resolve_name(self, func: FunctionInfo, name: str) -> set[str]:
        project = self.project
        module = func.module
        dotted = module.imports.resolve(ast.Name(id=name))
        candidates = []
        if dotted is not None:
            candidates.append(dotted)
        candidates.append(f"{module.module_name}.{name}")
        for candidate in candidates:
            if candidate in project.functions:
                return {candidate}
            if candidate in project.classes:
                init = project.resolve_method(candidate, "__init__")
                return {init} if init is not None else set()
        return set()

    def _cha(self, method: str) -> set[str]:
        """All project methods with this bare name (duck-typed fallback).

        Dunder methods are excluded: ``__init__``/``__eq__`` fan-out
        would connect every class to every other through operators.
        """
        if method.startswith("__") and method.endswith("__"):
            return set()
        return set(self.project.methods_by_name.get(method, ()))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable_from(self, roots: list[str] | set[str]) -> set[str]:
        """Functions reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        queue = deque(root for root in roots
                      if root in self.project.functions)
        seen.update(queue)
        while queue:
            current = queue.popleft()
            for callee in self.callees.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen

    def reaches(self, start: str, predicate) -> bool:
        """Does any function reachable from ``start`` satisfy
        ``predicate(qualname)`` (the start itself included)?"""
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            if predicate(current):
                return True
            for callee in self.callees.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return False
