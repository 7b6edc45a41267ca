"""The lint engine: collect files, run rules, apply suppressions.

A loop over files and rules: every rule sees one
:class:`~repro.analysis.context.ModuleContext` at a time, and nothing
is carried from one file to the next.  A full run over the tree takes
about a second.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, selected_rules

#: Directories never descended into when collecting files.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed_count(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    @property
    def ok(self) -> bool:
        return not self.unsuppressed


def collect_files(paths: tuple[str, ...] | list[str],
                  root: Path | None = None) -> list[Path]:
    """Python files under ``paths``, stable-sorted, junk dirs skipped."""
    base = root or Path.cwd()
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = base / path
        if path.is_file():
            files.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS or any(p.endswith(".egg-info")
                                         for p in candidate.parts):
                continue
            files.append(candidate)
    return files


def lint_source(source: str, path: Path, config: LintConfig,
                module_name: str | None = None,
                rules: list[Rule] | None = None) -> list[Finding]:
    """Lint one in-memory module; findings carry their suppression flag.

    ``module_name`` overrides the path-derived dotted name — tests use
    this to exercise package-scoped rules (D101, D103, R303) against
    fixture files living outside the simulated package.
    """
    if rules is None:
        rules = selected_rules(config.select)
    try:
        module = ModuleContext.from_source(source, path, config,
                                           module_name=module_name)
    except SyntaxError as exc:
        return [Finding(rule_id="E999", path=str(path),
                        line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}")]
    suppressions = module.suppressions
    return sorted(
        (replace(finding, suppressed=True)
         if suppressions.is_suppressed(finding.rule_id, finding.line)
         else finding
         for rule in rules for finding in rule.check(module)),
        key=Finding.sort_key)


def lint_paths(paths: tuple[str, ...] | list[str] | None,
               config: LintConfig,
               root: Path | None = None) -> LintResult:
    """Lint files/directories (default: the configured paths)."""
    if not paths:
        paths = config.paths
    if not paths:
        raise ValueError("no paths given and [tool.repro-lint] sets none")
    rules = selected_rules(config.select)
    result = LintResult()
    base = root or Path.cwd()
    for path in collect_files(paths, root=root):
        display = path.relative_to(base) if path.is_relative_to(base) else path
        result.findings.extend(lint_source(
            path.read_text(encoding="utf-8"), Path(display), config,
            rules=rules))
        result.files_checked += 1
    result.findings.sort(key=Finding.sort_key)
    return result
