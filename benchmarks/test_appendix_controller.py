"""Appendix A.2: the centralized Controller baseline on WebSearch.

Paper shape: with frequent re-solving (150 us) the omniscient
controller places entries well at small cache sizes, but its advantage
shrinks with staleness — slower invocation (300 us) does worse, and at
larger caches the reactive SwitchV2P catches up or wins.
"""

from common import run_artifact


def test_appendix_controller(benchmark):
    rows = run_artifact(benchmark, "appendix_controller")
    largest = max(r.x_value for r in rows)
    at = {r.scheme: r for r in rows if r.x_value == largest}
    fast = at["Controller@150us"]
    slow = at["Controller@300us"]
    # Fresher traffic information cannot hurt.
    assert fast.hit_rate >= 0.9 * slow.hit_rate
    # At the largest cache size SwitchV2P is competitive with the
    # impractical centralized allocation (the paper's conclusion).
    assert at["SwitchV2P"].fct_improvement >= 0.9 * fast.fct_improvement
