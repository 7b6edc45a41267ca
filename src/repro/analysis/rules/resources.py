"""Pairing rules: what one statement does, another must undo.

R303 — memoized forwarding tables (per-switch ECMP memos, the per-flow
gateway memo) are valid only until topology/fault/gateway-pool
mutations, so every mutator must be structurally paired with the
invalidation; runtime tests are bad at catching a stale memo.

W404 — a function that opens a configured call pair (``gc.disable``)
must close it (``gc.enable``) itself.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, rule
from repro.analysis.rules.common import scope_walk


@rule
class MemoPairingRule(Rule):
    """R303: memo-table mutators must reference their invalidation."""

    rule_id = "R303"
    summary = ("state mutator missing its paired memo invalidation "
               "(configured via [tool.repro-lint] memo-pairings)")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for pairing in module.config.memo_pairings:
            if not module.matches((pairing.module,)):
                continue
            patterns = [re.compile(p) for p in pairing.mutators]
            matched_any = False
            for class_def in module.classes():
                if pairing.cls not in ("*", class_def.name):
                    continue
                for item in class_def.body:
                    if not isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                        continue
                    if not any(p.fullmatch(item.name) for p in patterns):
                        continue
                    matched_any = True
                    idents = self._identifiers(item)
                    missing = [name for name in pairing.require
                               if name not in idents]
                    if missing:
                        yield self.finding(
                            module, item.lineno, item.col_offset,
                            f"mutator {class_def.name}.{item.name}() does "
                            f"not reference {', '.join(missing)}; state it "
                            "mutates is memoized and must be invalidated "
                            "here (see docs/linting.md#r303)")
            if not matched_any:
                yield self.finding(
                    module, 1, 0,
                    f"memo pairing for {pairing.module} matched no "
                    f"mutator method ({'|'.join(pairing.mutators)}); the "
                    "pairing is stale — update [tool.repro-lint] "
                    "memo-pairings to follow the rename")

    @staticmethod
    def _identifiers(function: ast.AST) -> frozenset[str]:
        idents = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name):
                idents.add(node.id)
            elif isinstance(node, ast.Attribute):
                idents.add(node.attr)
        return frozenset(idents)


@rule
class CallPairingRule(Rule):
    """W404: a function that opens a call pair closes it itself."""

    rule_id = "W404"
    summary = ("paired calls (gc.disable / gc.enable; [tool.repro-lint] "
               "flow-call-pairs) must open and close in one function")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        pairs = module.config.flow_call_pairs
        for function in module.functions():
            calls = [(module.imports.resolve(node.func), node)
                     for node in scope_walk(function)
                     if isinstance(node, ast.Call)]
            called = {target for target, _ in calls}
            for pair in pairs:
                if pair.close in called:
                    continue
                for target, node in calls:
                    if target == pair.open:
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            f"{function.name}() calls {pair.open}() and "
                            f"never {pair.close}(); pair them in one "
                            "function (try/finally) so no caller can "
                            "leave it open")
