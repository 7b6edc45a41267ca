"""Convergence analysis: how fast the in-network cache warms up.

The paper's §2 argues the data-plane cache "promptly adapts to changing
traffic patterns without relying on costly control loops".  This bench
samples the windowed in-network hit rate over the run for SwitchV2P and
LocalLearning: SwitchV2P converges to a higher plateau (topology-aware
placement puts entries where they are used), and its gateway load falls
accordingly.
"""

from common import run_artifact


def test_convergence(benchmark):
    curves = run_artifact(benchmark, "convergence")
    v2p = curves["SwitchV2P"]
    greedy = curves["LocalLearning"]
    assert len(v2p) >= 4, "expected several sampled windows"

    def tail_mean(values):
        tail = values[len(values) // 2:]
        return sum(tail) / len(tail)

    def early_mean(values):
        early = values[1:max(2, len(values) // 3)]  # skip the sparse w0
        return sum(early) / len(early)

    # SwitchV2P's warm plateau beats the greedy strawman's...
    assert tail_mean(v2p) > tail_mean(greedy)
    # ...and it genuinely warms up over the run.
    assert tail_mean(v2p) > early_mean(v2p)
