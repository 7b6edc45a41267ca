"""Figure 5c: WebSearch (heavy flows, low reuse) on FT8 across cache sizes.

Paper shape: SwitchV2P beats LocalLearning by moving mappings toward
the traffic; first-packet latency barely improves because cross-flow
destination reuse is minimal in this trace.
"""

from common import run_artifact


def test_fig5c_websearch(benchmark):
    rows = run_artifact(benchmark, "fig5c_websearch")
    largest = max(row.x_value for row in rows)
    at = {r.scheme: r for r in rows if r.x_value == largest}
    assert at["SwitchV2P"].hit_rate > 0.8
    assert at["SwitchV2P"].fct_improvement >= \
        at["LocalLearning"].fct_improvement
    # Low reuse: first-packet latency gains stay modest relative to the
    # FCT gains (the many later packets are the ones hitting caches).
    assert at["SwitchV2P"].fct_improvement >= \
        0.8 * at["SwitchV2P"].first_packet_improvement
