"""Table 5: distribution of SwitchV2P cache hits within the topology.

Paper shape: in the TCP traces the bulk of per-packet hits land at ToRs
(learning packets + source learning), while first packets hit higher in
the topology (cross-flow reuse at spines/cores); UDP traces shift a
larger share to the upper layers.
"""

from common import run_artifact
from repro.metrics.collector import layer_shares
from repro.net.node import Layer


def test_table5_hit_distribution(benchmark):
    results = run_artifact(benchmark, "table5_hit_distribution")
    total = {trace: layer_shares(result.layer_hits[0])
             for trace, result in results.items()}
    first_packet = {trace: layer_shares(result.layer_hits[1])
                    for trace, result in results.items()}
    # TCP traces: ToR-dominated per-packet hits.
    for trace in ("hadoop", "alibaba"):
        assert total[trace][Layer.TOR] > 0.5, trace
    # First packets hit upper layers more than packets overall.
    upper_total = total["hadoop"][Layer.CORE] + total["hadoop"][Layer.SPINE]
    upper_first = (first_packet["hadoop"][Layer.CORE]
                   + first_packet["hadoop"][Layer.SPINE])
    assert upper_first >= upper_total
