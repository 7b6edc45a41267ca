"""Built-in rule battery; importing this package registers every rule.

* ``D101``-``D103`` — determinism
  (:mod:`repro.analysis.rules.determinism`);
* ``D110``, ``W402`` — the fluid engine's contracts
  (:mod:`repro.analysis.rules.fluid`): fluid-path mutation discipline,
  and whoever writes cache/mapping/gateway-pool state notifies;
* ``R303``, ``W404`` — memo invalidation and paired calls
  (:mod:`repro.analysis.rules.resources`).
"""

from repro.analysis.rules import determinism, fluid, resources

__all__ = ["determinism", "fluid", "resources"]
