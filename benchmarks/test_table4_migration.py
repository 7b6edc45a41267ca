"""Table 4: the effect of VM migration on network performance.

64 UDP senders incast one VM; the VM migrates at 500 us.  Rows are
normalized by NoCache as in the paper.  Paper shape: OnDemand and
SwitchV2P cut packet latency ~4x; without invalidations, misrouting
persists until trace end; invalidation packets restore NoCache-like
convergence; the timestamp vector slashes invalidation traffic at no
performance cost.
"""

import os

from common import report
from repro.experiments import run_migration_table
from repro.experiments.artifacts import ARTIFACTS
from repro.traces import IncastTraceParams

NAME = "table4_migration"


def run():
    # The registry entry runs 16 senders, below NIC saturation; the
    # paper's 64 senders x 1000 packets with REPRO_BENCH_SCALE=full.
    if os.environ.get("REPRO_BENCH_SCALE") == "full":
        return run_migration_table(
            IncastTraceParams(num_senders=64, packets_per_sender=1000))
    return ARTIFACTS[NAME].run(ARTIFACTS[NAME].config)


def test_table4_migration(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(NAME, rows)

    by_label = {row.label: row for row in rows}
    nocache = by_label["NoCache"]
    full = by_label["SwitchV2P w/ timestamp vector"]
    no_inval = by_label["SwitchV2P w/o invalidations"]
    no_tsvec = by_label["SwitchV2P w/o timestamp vector"]

    # NoCache sees every packet; SwitchV2P absorbs ~90%+ in-network.
    assert nocache.gateway_packet_fraction > 0.99
    assert full.gateway_packet_fraction < 0.2
    # Caching slashes packet latency (paper: 0.25x).
    assert full.avg_packet_latency_ns < 0.5 * nocache.avg_packet_latency_ns
    # Without invalidations, misrouting persists ~2x longer.
    assert no_inval.last_misdelivered_arrival_ns > \
        1.5 * nocache.last_misdelivered_arrival_ns
    # Invalidations restore fast convergence...
    assert full.last_misdelivered_arrival_ns < \
        1.3 * nocache.last_misdelivered_arrival_ns
    # ...and the timestamp vector suppresses invalidation floods
    # without hurting convergence.
    assert full.invalidation_packets <= no_tsvec.invalidation_packets
    assert full.avg_packet_latency_ns <= 1.05 * no_tsvec.avg_packet_latency_ns
