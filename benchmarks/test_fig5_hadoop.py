"""Figure 5a: Hadoop on FT8 — hit rate, FCT and first-packet latency
improvement (normalized by NoCache) across cache sizes.

Paper shape to verify: SwitchV2P's FCT beats GwCache/LocalLearning and
overtakes OnDemand at larger caches; Bluebird collapses under punt-
channel drops; Direct bounds everything from above.
"""

from common import run_artifact


def test_fig5a_hadoop(benchmark):
    rows = run_artifact(benchmark, "fig5a_hadoop")
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append(row)
    largest = max(row.x_value for row in rows)
    at_largest = {s: r for s in by_scheme
                  for r in by_scheme[s] if r.x_value == largest}
    # Paper orderings at large caches.
    assert at_largest["SwitchV2P"].hit_rate > 0.85
    assert at_largest["SwitchV2P"].fct_improvement > \
        at_largest["LocalLearning"].fct_improvement
    assert at_largest["SwitchV2P"].fct_improvement > \
        at_largest["OnDemand"].fct_improvement
    assert at_largest["Bluebird"].fct_improvement < 1.0  # drops hurt
    assert at_largest["Direct"].fct_improvement >= \
        at_largest["SwitchV2P"].fct_improvement
