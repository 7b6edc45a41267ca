"""Figure 9: performance with fewer gateways (Hadoop, cache=8x,
matching the paper's per-switch cache share at 50% of its address space).

Paper shape: SwitchV2P keeps nearly the same FCT/first-packet latency
with 10x fewer gateways, while gateway-bound schemes degrade as the
fleet shrinks.  All rows are normalized against NoCache at the full
fleet.
"""

from common import run_artifact


def test_fig9_gateways(benchmark):
    rows = run_artifact(benchmark, "fig9_gateways")
    v2p = sorted((r for r in rows if r.scheme == "SwitchV2P"),
                 key=lambda r: -r.x_value)
    most, fewest = v2p[0], v2p[-1]
    # SwitchV2P holds within ~20% of its full-fleet FCT at bench scale
    # (the paper reports ~3% at full scale and load; our per-switch
    # caches are far smaller, so more traffic still needs gateways).
    assert fewest.result.avg_fct_ns < 1.20 * most.result.avg_fct_ns
    nocache = sorted((r for r in rows if r.scheme == "NoCache"),
                     key=lambda r: -r.x_value)
    # The gateway-bound baseline degrades at least as much as SwitchV2P.
    v2p_slowdown = fewest.result.avg_fct_ns / most.result.avg_fct_ns
    nocache_slowdown = nocache[-1].result.avg_fct_ns / nocache[0].result.avg_fct_ns
    assert nocache_slowdown >= 0.95 * v2p_slowdown
