"""Figure 8: per-switch processed bytes inside gateway pod 8 (Hadoop,
cache=50%).

Paper shape: SwitchV2P cuts the gateway-ToR's traffic several-fold
versus NoCache (6.1x in the paper) and GwCache (3.7x), because hits
happen before packets ever enter the gateway pod.
"""

from common import run_artifact
from repro.experiments.artifacts import FIG8_POD


def test_fig8_switch_bytes(benchmark):
    results = {scheme: result.pod_switch_bytes[FIG8_POD] for scheme, result
               in run_artifact(benchmark, "fig8_switch_bytes").items()}
    assert results["SwitchV2P"]["gateway-tor"] < \
        results["NoCache"]["gateway-tor"]
    assert results["SwitchV2P"]["gateway-tor"] < \
        results["GwCache"]["gateway-tor"]
