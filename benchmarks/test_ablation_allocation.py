"""Ablation: heterogeneous in-switch memory allocation (paper §4).

The paper observes that a ToR-only allocation reduces Hadoop FCT but
not first-packet latency (first packets rely on hits higher in the
topology), leaving allocation policies as future work.  This bench
measures the design space: uniform, ToR-only, edge-heavy, core-heavy.
"""

from common import run_artifact


def test_ablation_allocation(benchmark):
    results = run_artifact(benchmark, "ablation_allocation")
    baseline = results["NoCache"]
    uniform = results["uniform"]
    tor_only = results["tor-only"]
    # §4's observation: ToR-only still improves FCT over NoCache...
    assert tor_only.avg_fct_ns < baseline.avg_fct_ns
    # ...but gives up (most of) the first-packet improvement relative
    # to the uniform allocation.
    assert tor_only.avg_first_packet_ns >= 0.98 * uniform.avg_first_packet_ns
