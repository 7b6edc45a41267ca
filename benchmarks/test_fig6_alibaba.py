"""Figure 6: Alibaba microservice RPCs on the larger FT16-style fabric.

Paper shape: source learning at ToRs (responses reveal requesters) plus
heavy cross-flow reuse give SwitchV2P large FCT and first-packet gains.
"""

from common import run_artifact


def test_fig6_alibaba(benchmark):
    rows = run_artifact(benchmark, "fig6_alibaba")
    largest = max(row.x_value for row in rows)
    at = {r.scheme: r for r in rows if r.x_value == largest}
    assert at["SwitchV2P"].fct_improvement > 1.0
    assert at["SwitchV2P"].hit_rate > at["LocalLearning"].hit_rate
    assert at["SwitchV2P"].first_packet_improvement >= \
        at["OnDemand"].first_packet_improvement
