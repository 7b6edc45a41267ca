"""Figure 7: per-pod processed bytes (Hadoop, cache=50%), plus the
packet-stretch numbers of §5.3.

Paper shape: SwitchV2P drains the gateway pods (1,3,6,8) relative to
NoCache/GwCache; total network bytes drop toward Direct's footprint;
average stretch falls from ~9.4 (NoCache) toward ~5.1.
"""

from common import run_artifact


def test_fig7_pod_bytes(benchmark):
    results = run_artifact(benchmark, "fig7_pod_bytes", "fig7_heatmap")
    gateway_pods = (0, 2, 5, 7)
    gw_bytes = {s: sum(r.pod_bytes[p] for p in gateway_pods)
                for s, r in results.items()}
    assert gw_bytes["SwitchV2P"] < gw_bytes["NoCache"]
    assert gw_bytes["SwitchV2P"] < gw_bytes["GwCache"]
    assert results["SwitchV2P"].total_switch_bytes < \
        results["NoCache"].total_switch_bytes
    # Stretch ordering of §5.3: NoCache > LocalLearning > GwCache > SwitchV2P.
    assert results["NoCache"].avg_stretch > results["SwitchV2P"].avg_stretch
    assert results["GwCache"].avg_stretch > results["SwitchV2P"].avg_stretch
