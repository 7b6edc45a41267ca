"""Whole-program flow analysis for the lint engine.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time; the contracts the run cache and the hybrid-fidelity engine rest
on are *cross-module*: a mutation in :mod:`repro.cache` must escalate a
fluid flow installed by :mod:`repro.sim.fluid`, a knob added to
:class:`~repro.experiments.parallel.ExperimentJob` must reach the key
derivation in :mod:`repro.experiments.runcache`.  This package builds
the project-wide picture those two rules (W402, W403) need:

* :mod:`~repro.analysis.flow.project` — one parsed
  :class:`ProjectContext`: every module, a symbol table of classes and
  functions by qualified name, and dataclass field extraction (all
  W403 reads);
* :mod:`~repro.analysis.flow.callgraph` — a call graph with
  inter-procedural reachability (imports resolved, ``self`` dispatch
  through project base classes, a class-hierarchy-style fallback for
  duck-typed receivers);
* :mod:`~repro.analysis.flow.dataflow` — a light intra-procedural
  dataflow pass producing per-function summaries: attribute-aliased
  calls (``cb = self.on_mutate; cb()``), state-attribute mutations
  (including through helpers that return state, via a summary
  fixpoint) and notification calls.
"""

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.dataflow import FunctionSummary, summarize_project
from repro.analysis.flow.project import FunctionInfo, ProjectContext

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "FunctionSummary",
    "ProjectContext",
    "summarize_project",
]
