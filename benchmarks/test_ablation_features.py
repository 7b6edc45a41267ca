"""Ablations of SwitchV2P's design choices (DESIGN.md call-outs).

Turns each special function off in isolation — learning packets,
spillover, promotion, role-aware admission — and measures the impact on
hit rate and FCT for the Hadoop workload.  The paper's Table 2 summary
("caching in core and spine switches is essential") corresponds to the
role-aware ablation.
"""

from common import run_artifact


def test_ablation_features(benchmark):
    results = run_artifact(benchmark, "ablation_features")
    full = results["full protocol"]
    # Each feature is at worst performance-neutral (small caches leave
    # little room for learning packets/spillover to add hits).
    for label in ("no learning packets", "no spillover", "no promotion"):
        assert full.hit_rate >= results[label].hit_rate - 0.02, label
        assert full.avg_fct_ns <= 1.05 * results[label].avg_fct_ns, label
    # The headline ablation: role-aware admission beats greedy
    # admit-all decisively (the paper's "topology-aware caching" row).
    greedy = results["role-unaware (greedy)"]
    assert full.hit_rate > greedy.hit_rate + 0.1
    assert full.avg_fct_ns < greedy.avg_fct_ns
    assert full.avg_stretch < greedy.avg_stretch
