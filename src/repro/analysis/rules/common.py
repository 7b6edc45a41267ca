"""AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Nodes that open a new binding scope; their bodies are excluded when
#: analysing the enclosing scope.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested scopes.

    The root itself is yielded even if it is a function; nested
    function/lambda subtrees are skipped entirely (a rule that cares
    about them recurses explicitly via :func:`functions_in`).
    """
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def nested_scopes(root: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda]:
    """Immediate nested function/lambda scopes within ``root``'s scope."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                yield child
            else:
                stack.append(child)


def call_name(node: ast.Call) -> str | None:
    """The terminal name of a call target (``a.b.c()`` -> ``"c"``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
