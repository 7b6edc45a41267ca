"""Whole-program rules W402 and W403 (built on :mod:`repro.analysis.flow`).

These rules check *cross-module* contracts that no per-module rule can
see:

* **W402** — escalation completeness: any function reachable from a
  data-plane entry point that mutates cache/mapping/gateway state must
  reach an escalation/observer notification (``on_mutate``,
  ``escalate_*``); otherwise the hybrid-fidelity engine would keep
  replaying fluid flows against stale state.  Cross-module
  generalization of D110, which audits only the fluid module itself.
  It is the one rule that needs the call graph and the dataflow
  summaries.
* **W403** — runcache key coverage: every field of the configured
  experiment dataclasses must be consumed by the run-cache key
  derivation, or appear on the audited exemption list; wholesale-
  encoded dataclasses must stay frozen and fully annotated (an
  unannotated class attribute silently escapes ``dataclasses.fields``
  and therefore the key).  A knob that misses the key serves stale
  cache hits for changed runs — the worst failure mode a result cache
  has.  It reads only the project's symbol table.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.dataflow import FunctionSummary
from repro.analysis.flow.project import ProjectContext
from repro.analysis.registry import ProjectRule, rule


#: Data-plane entry points (fnmatch on qualified function names);
#: W402 checks every function reachable from them.  A switch calls its
#: scheme through a bound hook (a closure or a ``partial`` the call
#: graph cannot see through), so the functions that build or are the
#: hooks are roots in their own right.
ENTRY_POINTS = (
    "repro.net.node.Switch.receive",
    "repro.vnet.hypervisor.Host.receive",
    "repro.vnet.gateway.Gateway.receive",
    "repro.*.bind_hook",
    "repro.*.on_switch",
)


@rule
class EscalationCompleteness(ProjectRule):
    rule_id = "W402"
    summary = ("state mutations reachable from data-plane entry points "
               "must reach a fluid escalation/observer notification")

    def check_project(self, project: ProjectContext, graph: CallGraph,
                      summaries: dict[str, FunctionSummary],
                      ) -> Iterator[Finding]:
        reachable = graph.reachable_from(
            project.functions_matching(ENTRY_POINTS))

        def notifies(qualname: str) -> bool:
            summary = summaries.get(qualname)
            return summary is not None and summary.notifies

        for qualname in sorted(reachable):
            summary = summaries[qualname]
            if not summary.mutation_sites:
                continue
            if graph.reaches(qualname, notifies):
                continue
            func = project.functions[qualname]
            attrs = sorted({site.detail for site in summary.mutation_sites})
            site = summary.mutation_sites[0]
            yield self.finding(
                func.module, site.line, site.col,
                f"'{qualname}' mutates state ({', '.join(attrs)}) on a "
                "data-plane path without reaching an escalation hook or "
                "mutation observer; fire on_mutate/escalate_*")


@rule
class RuncacheKeyCoverage(ProjectRule):
    rule_id = "W403"
    summary = ("every experiment-dataclass field must reach run-cache "
               "key derivation or carry an audited exemption")

    def check_project(self, project: ProjectContext, graph: CallGraph,
                      summaries: dict[str, FunctionSummary],
                      ) -> Iterator[Finding]:
        config = project.config
        for contract in config.runcache_coverage:
            info = project.classes.get(contract.dataclass_name)
            key_func = project.functions.get(contract.key_function)
            if info is None or key_func is None:
                # The contract points outside the linted set (single-file
                # runs, fixtures); nothing to check here.
                continue
            # Consumption must be visible in the key function's own
            # body: crediting transitive callees would let run_key's
            # mention of a name mask job_key silently dropping the
            # same-named job field.
            consumed = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(key_func.node)
                if isinstance(node, ast.Name | ast.Attribute)}
            fields = info.dataclass_fields()
            field_names = {name for name, _ in fields}
            for name, stmt in fields:
                if name in contract.exempt:
                    continue
                if name not in consumed:
                    yield self.finding(
                        info.module, stmt.lineno,
                        stmt.col_offset,
                        f"field '{contract.dataclass_name}.{name}' never "
                        f"reaches '{contract.key_function}': runs "
                        "differing only in this knob would share a cache "
                        "key; key it or add an audited exemption")
            for name in contract.exempt:
                if name not in field_names:
                    yield self.finding(
                        info.module, info.node.lineno,
                        info.node.col_offset,
                        f"W403 exemption names unknown field '{name}' "
                        f"of {contract.dataclass_name}; drop it")
                elif name in consumed:
                    yield self.finding(
                        info.module, info.node.lineno,
                        info.node.col_offset,
                        f"stale W403 exemption: field '{name}' of "
                        f"{contract.dataclass_name} is consumed by "
                        f"'{contract.key_function}'; remove the "
                        "exemption")
        for qualname in config.encoded_dataclasses:
            info = project.classes.get(qualname)
            if info is None:
                continue
            if not info.is_frozen_dataclass():
                yield self.finding(
                    info.module, info.node.lineno,
                    info.node.col_offset,
                    f"'{qualname}' is hashed wholesale into run-cache "
                    "keys and must stay a frozen dataclass "
                    "(@dataclass(frozen=True))")
            for name, stmt in info.unannotated_assignments():
                yield self.finding(
                    info.module, stmt.lineno,
                    stmt.col_offset,
                    f"'{qualname}.{name}' has no annotation, so "
                    "dataclasses.fields skips it and it never reaches "
                    "the run-cache key; annotate it (or make it a "
                    "ClassVar if it is genuinely not a knob)")
