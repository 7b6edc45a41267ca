"""Figure 5d: 8K Video (64 constant-rate UDP streams, zero reuse).

Paper shape: learning packets raise the hit rate (reducing gateway
load) but application metrics barely move — the flows are long and the
lookup overhead is negligible relative to their duration.
"""

from common import run_artifact


def test_fig5d_video(benchmark):
    rows = run_artifact(benchmark, "fig5d_video")
    largest = max(row.x_value for row in rows)
    at = {r.scheme: r for r in rows if r.x_value == largest}
    # Hit rate is high thanks to learning packets...
    assert at["SwitchV2P"].hit_rate > 0.5
    # ...but with zero destination reuse the FCT of these long streams
    # is unchanged (within a few percent of NoCache).
    assert 0.9 < at["SwitchV2P"].fct_improvement < 1.2
    # The real benefit: gateway load collapses.
    assert at["SwitchV2P"].result.gateway_arrivals < \
        0.5 * at["NoCache"].result.gateway_arrivals
