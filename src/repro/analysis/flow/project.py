"""Project-wide symbol table for whole-program lint rules.

A :class:`ProjectContext` is built once per lint run from every
collected module.  It indexes top-level functions, classes, and their
direct methods by *qualified name* (``repro.net.node.Switch.receive``),
records class bases (resolved through each module's imports so
cross-module inheritance links up), and extracts dataclass field lists
for the W403 key-coverage rule.

Nested functions are deliberately *not* indexed: for reachability
purposes their calls are attributed to the enclosing function (defining
a closure on a reachable path makes everything it does reachable —
a sound over-approximation for completeness rules).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One top-level function or direct class method."""

    qualname: str
    module: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  # bare class name for methods


@dataclass
class ClassInfo:
    """One top-level class: resolved bases and its direct methods."""

    qualname: str
    module: ModuleContext
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    #: bare method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)

    def dataclass_fields(self) -> list[tuple[str, ast.stmt]]:
        """Annotated class-level assignments, in declaration order.

        ``ClassVar`` annotations are excluded — they are not dataclass
        fields and never reach ``dataclasses.fields``.
        """
        fields = []
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                if _is_classvar(stmt.annotation):
                    continue
                fields.append((stmt.target.id, stmt))
        return fields

    def unannotated_assignments(self) -> list[tuple[str, ast.stmt]]:
        """Plain ``name = value`` class-level assignments.

        In a dataclass these are **not** fields: ``dataclasses.fields``
        never sees them, so wholesale field-iteration encodings (the
        run-cache ``_encode``) silently skip them.
        """
        out = []
        for stmt in self.node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) \
                            and not target.id.startswith("__"):
                        out.append((target.id, stmt))
        return out

    def dataclass_decorator(self) -> ast.expr | None:
        """The ``@dataclass``/``@dataclass(...)`` decorator, if any."""
        for decorator in self.node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "dataclass":
                return decorator
        return None

    def is_frozen_dataclass(self) -> bool:
        decorator = self.dataclass_decorator()
        if not isinstance(decorator, ast.Call):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen" \
                    and isinstance(keyword.value, ast.Constant):
                return keyword.value.value is True
        return False


def _is_classvar(annotation: ast.expr) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id == "ClassVar") or \
        (isinstance(node, ast.Attribute) and node.attr == "ClassVar")


class ProjectContext:
    """Every module of one lint run, cross-indexed for flow rules."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        #: dotted module name -> context
        self.modules: dict[str, ModuleContext] = {}
        #: display-path string -> context (suppression lookup)
        self.by_path: dict[str, ModuleContext] = {}
        #: function qualname -> info
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> info
        self.classes: dict[str, ClassInfo] = {}
        #: bare method name -> list of method qualnames (CHA fallback)
        self.methods_by_name: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, modules: list[ModuleContext],
              config: LintConfig) -> ProjectContext:
        project = cls(config)
        for module in modules:
            project.add_module(module)
        return project

    def add_module(self, module: ModuleContext) -> None:
        self.modules[module.module_name] = module
        self.by_path[str(module.path)] = module
        for stmt in module.tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                qualname = f"{module.module_name}.{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=module, node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt)

    def _add_class(self, module: ModuleContext, node: ast.ClassDef) -> None:
        qualname = f"{module.module_name}.{node.name}"
        bases = []
        for base in node.bases:
            resolved = module.imports.resolve(base)
            if resolved is not None:
                # A module-local base resolves to its bare name; qualify
                # it so cross-references work uniformly.
                if "." not in resolved:
                    resolved = f"{module.module_name}.{resolved}"
                bases.append(resolved)
        info = ClassInfo(qualname=qualname, module=module, node=node,
                         bases=tuple(bases))
        for stmt in node.body:
            if isinstance(stmt, _FUNCTION_NODES):
                method_qualname = f"{qualname}.{stmt.name}"
                self.functions[method_qualname] = FunctionInfo(
                    qualname=method_qualname, module=module, node=stmt,
                    cls=node.name)
                info.methods[stmt.name] = method_qualname
                self.methods_by_name.setdefault(stmt.name, []) \
                    .append(method_qualname)
        self.classes[qualname] = info

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def resolve_method(self, class_qualname: str,
                       method: str) -> str | None:
        """Find ``method`` on the class or its project-visible bases."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def functions_matching(self, patterns: tuple[str, ...]) -> list[str]:
        """Qualnames matching any fnmatch pattern, in sorted order."""
        return sorted(qualname for qualname in self.functions
                      if any(fnmatchcase(qualname, pattern)
                             for pattern in patterns))
