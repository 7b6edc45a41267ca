"""Table 5: distribution of SwitchV2P cache hits within the topology.

Paper shape: in the TCP traces the bulk of per-packet hits land at ToRs
(learning packets + source learning), while first packets hit higher in
the topology (cross-flow reuse at spines/cores); UDP traces shift a
larger share to the upper layers.
"""

from common import run_artifact
from repro.net.node import Layer


def test_table5_hit_distribution(benchmark):
    rows = run_artifact(benchmark, "table5_hit_distribution")
    by_trace = {row.trace: row for row in rows}
    # TCP traces: ToR-dominated per-packet hits.
    for trace in ("hadoop", "alibaba"):
        assert by_trace[trace].total[Layer.TOR] > 0.5, trace
    # First packets hit upper layers more than packets overall.
    hadoop = by_trace["hadoop"]
    upper_total = hadoop.total[Layer.CORE] + hadoop.total[Layer.SPINE]
    upper_first = (hadoop.first_packet[Layer.CORE]
                   + hadoop.first_packet[Layer.SPINE])
    assert upper_first >= upper_total
