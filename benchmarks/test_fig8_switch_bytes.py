"""Figure 8: per-switch processed bytes inside gateway pod 8 (Hadoop,
cache=50%).

Paper shape: SwitchV2P cuts the gateway-ToR's traffic several-fold
versus NoCache (6.1x in the paper) and GwCache (3.7x), because hits
happen before packets ever enter the gateway pod.
"""

from common import run_artifact
from repro.experiments.figures import figure8_from


def test_fig8_switch_bytes(benchmark):
    results = figure8_from(run_artifact(benchmark, "fig8_switch_bytes"))
    assert results["SwitchV2P"]["gateway-tor"] < \
        results["NoCache"]["gateway-tor"]
    assert results["SwitchV2P"]["gateway-tor"] < \
        results["GwCache"]["gateway-tor"]
