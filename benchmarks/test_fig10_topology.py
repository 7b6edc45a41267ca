"""Figure 10: topology scaling (Hadoop, fixed aggregate cache).

The 128 servers are re-arranged from 1 pod (32 servers/rack) up to 32
pods (1 server/rack).  Paper shape: SwitchV2P scales gracefully with
topology size, while LocalLearning struggles to place learned state in
large topologies; GwCache stays roughly flat.
"""

from common import run_artifact


def test_fig10_topology_scaling(benchmark):
    rows = run_artifact(benchmark, "fig10_topology")
    largest_pods = max(r.x_value for r in rows)
    at = {r.scheme: r for r in rows if r.x_value == largest_pods}
    assert at["SwitchV2P"].fct_improvement >= \
        at["LocalLearning"].fct_improvement
