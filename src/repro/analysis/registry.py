"""Rule base class and the global rule registry.

Rules register themselves at import time via the :func:`rule`
decorator; importing :mod:`repro.analysis.rules` populates the
registry.  Each rule is a class with a stable id (``D101`` ...), a
one-line summary used by ``lint --list-rules``, and a ``check`` method
yielding :class:`~repro.analysis.findings.Finding` objects for one
module.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import ModuleContext


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` and ``summary`` and implement ``check``.
    A rule instance is stateless: the same instance checks every module.
    """

    rule_id: str = ""
    summary: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, line: int, col: int,
                message: str) -> Finding:
        return Finding(rule_id=self.rule_id, path=str(module.path),
                       line=line, col=col, message=message)


_REGISTRY: dict[str, Rule] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def _ensure_loaded() -> None:
    # Importing the rules package registers every built-in rule.
    from repro.analysis import rules  # noqa: F401  (import-for-effect)


def all_rules() -> list[Rule]:
    """Every registered rule, in id order."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    return _REGISTRY[rule_id]


def selected_rules(select: tuple[str, ...]) -> list[Rule]:
    """The rules named in ``select`` (empty = all rules)."""
    rules = all_rules()
    if select:
        unknown = set(select) - set(_REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule ids selected: {sorted(unknown)}")
        rules = [r for r in rules if r.rule_id in select]
    return rules
