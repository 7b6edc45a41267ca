"""Packet reordering vs cache size (paper §4, "Packet reordering and TCP").

The paper observed increased reordering with smaller caches (a burst
initially missing the cache can be overtaken by later packets that hit
a just-populated cache) and that it is rare with larger caches, staying
far below modern TCP's reordering tolerance.
"""

from common import run_artifact


def test_reordering_vs_cache_size(benchmark):
    results = run_artifact(benchmark, "reordering")
    # The paper's observation: reordering shrinks as caches grow and is
    # rare with larger caches.
    ratios = sorted(results)
    smallest, largest = results[ratios[0]], results[ratios[-1]]
    assert largest.reorder_events < smallest.reorder_events
    assert largest.reorder_events <= 0.02 * largest.packets_sent
    # No configuration triggered loss-driven retransmission storms.
    assert all(result.drops == 0 for result in results.values())
