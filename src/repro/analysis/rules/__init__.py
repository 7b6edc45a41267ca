"""Built-in rule battery; importing this package registers every rule.

* ``D101``-``D103`` — determinism
  (:mod:`repro.analysis.rules.determinism`); ``D110`` (fluid-path
  mutation discipline) lives in :mod:`repro.analysis.rules.fluid`;
* ``R303``, ``W404`` — memo invalidation and paired calls
  (:mod:`repro.analysis.rules.resources`);
* ``W402``, ``W403`` — whole-program rules
  (:mod:`repro.analysis.rules.flow_rules`): escalation completeness and
  run-cache key coverage.
"""

from repro.analysis.rules import determinism, flow_rules, fluid, resources

__all__ = ["determinism", "fluid", "flow_rules", "resources"]
