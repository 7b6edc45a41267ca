"""Static analysis for the reproduction: determinism & invariant lint.

The simulator's headline property — bit-identical results for a fixed
seed — is guarded dynamically by ``tests/test_determinism.py``, but a
dynamic guard only catches nondeterminism that the guarded workload
happens to exercise.  This package turns the conventions that keep the
simulator deterministic into *static* checks that run over the whole
tree on every push (``python -m repro lint``):

* **D-series** (determinism): no wall-clock reads outside
  :mod:`repro.perf`, no global-RNG calls and no generator seeded from
  anything but :func:`repro.sim.randomness.derive_seed`, no iteration
  over unordered sets in decision code, no fluid-path mutation outside
  the audited helpers.
* **R303 / W404** (pairing): memo tables (ECMP next hops, gateway
  choices) must be invalidated by every mutator that can stale them;
  ``gc.disable`` is re-enabled by the function that called it.
* **W402** (whoever owns the state notifies): a function that writes
  cache, mapping or gateway-pool state fires the escalation hook or
  mutation observer in its own body.

Every rule sees one file at a time.  That every experiment knob
reaches the run-cache key is not a lint: ``runcache.job_key`` and
``runcache._encode`` refuse, at the first keying, a knob that would
not.

See ``docs/linting.md`` for the rule catalogue and the suppression
syntax (``# repro-lint: disable=RULE``).
"""

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import LintResult, lint_paths, lint_source
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_config",
]
