"""The lint engine: collect files, run rules, apply suppressions.

Two rule kinds share one run: per-module rules (each sees a single
:class:`~repro.analysis.context.ModuleContext`) and project rules (W402
and W403 — they see a :class:`~repro.analysis.flow.project.ProjectContext`
spanning every collected module, plus the call graph and dataflow
summaries).  A full run over the tree takes about two seconds, half of
it the project pass.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.dataflow import summarize_project
from repro.analysis.flow.project import ProjectContext
from repro.analysis.registry import ProjectRule, Rule, selected_rules

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

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)


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


def _split_rules(rules: list[Rule]) -> tuple[list[Rule], list[ProjectRule]]:
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return module_rules, project_rules


def _mark_suppressed(finding: Finding,
                     module: ModuleContext | None) -> Finding:
    if module is not None and module.suppressions.is_suppressed(
            finding.rule_id, finding.line):
        return replace(finding, suppressed=True)
    return finding


def _module_findings(module: ModuleContext,
                     rules: Iterable[Rule]) -> list[Finding]:
    return [_mark_suppressed(finding, module)
            for rule in rules for finding in rule.check(module)]


def run_project_rules(modules: list[ModuleContext],
                      rules: Iterable[ProjectRule],
                      config: LintConfig) -> list[Finding]:
    """One whole-program pass: symbol table, call graph, summaries."""
    project = ProjectContext.build(modules, config)
    graph = CallGraph(project)
    summaries = summarize_project(project, graph)
    return [_mark_suppressed(finding,
                             project.by_path.get(finding.path))
            for rule in rules
            for finding in rule.check_project(project, graph, summaries)]


def lint_source(source: str, path: Path, config: LintConfig,
                module_name: str | None = None,
                rules: list[Rule] | None = None) -> list[Finding]:
    """Lint one in-memory module; findings carry their suppression flag.

    ``module_name`` overrides the path-derived dotted name — tests use
    this to exercise package-scoped rules (D101, D103, R303) against
    fixture files living outside the simulated package.  Project rules
    run over a single-module project, which is how the W-rule fixtures
    stay self-contained.
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
    module_rules, project_rules = _split_rules(rules)
    findings = _module_findings(module, module_rules)
    if project_rules:
        findings.extend(run_project_rules([module], project_rules, config))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(paths: tuple[str, ...] | list[str] | None,
               config: LintConfig,
               root: Path | None = None) -> LintResult:
    """Lint files/directories (default: the configured paths)."""
    if not paths:
        paths = config.paths
    if not paths:
        raise ValueError("no paths given and [tool.repro-lint] sets none")
    module_rules, project_rules = _split_rules(selected_rules(config.select))
    result = LintResult()
    base = root or Path.cwd()
    modules: list[ModuleContext] = []
    for path in collect_files(paths, root=root):
        source = path.read_text(encoding="utf-8")
        display = path.relative_to(base) if path.is_relative_to(base) else path
        try:
            module = ModuleContext.from_source(source, Path(display), config)
        except SyntaxError as exc:
            result.extend([Finding(
                rule_id="E999", path=str(display), line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}")])
            result.files_checked += 1
            continue
        modules.append(module)
        result.extend(_module_findings(module, module_rules))
        result.files_checked += 1
    if project_rules:
        result.extend(run_project_rules(modules, project_rules, config))
    result.findings.sort(key=Finding.sort_key)
    return result
