"""Built-in rule battery; importing this package registers every rule.

Rule series:

* ``D1xx`` — determinism (:mod:`repro.analysis.rules.determinism`);
  D110 (fluid-path mutation discipline) lives in its own module,
  :mod:`repro.analysis.rules.fluid`;
* ``T2xx`` — integer simulation time (:mod:`repro.analysis.rules.timing`);
* ``R3xx`` — resource/memo invariants
  (:mod:`repro.analysis.rules.resources`);
* ``W4xx`` — whole-program flow rules
  (:mod:`repro.analysis.rules.flow_rules`): RNG provenance, escalation
  completeness, run-cache key coverage, call-path pairing discipline.
"""

from repro.analysis.rules import (determinism, fluid, flow_rules, resources,
                                  timing)

__all__ = ["determinism", "fluid", "flow_rules", "resources", "timing"]
