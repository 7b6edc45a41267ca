"""Figure 5b: Microbursts (UDP mice) on FT8 across cache sizes.

Paper shape: like Hadoop, SwitchV2P exploits the cross-flow reuse of
bursty destinations and beats the greedy/gateway-bound schemes.
"""

from common import run_artifact


def test_fig5b_microbursts(benchmark):
    rows = run_artifact(benchmark, "fig5b_microbursts")
    largest = max(row.x_value for row in rows)
    at = {r.scheme: r for r in rows if r.x_value == largest}
    assert at["SwitchV2P"].hit_rate > at["LocalLearning"].hit_rate
    assert at["SwitchV2P"].fct_improvement >= 1.0
    assert at["SwitchV2P"].first_packet_improvement >= 0.99
