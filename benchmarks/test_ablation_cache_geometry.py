"""Ablation: cache geometry — direct-mapped vs set-associative.

The paper picks a direct-mapped cache because Tofino register arrays
allow one hash and one read-modify-write per stage (§3.2, citing Hill).
This ablation quantifies the conflict-miss cost of that hardware
constraint by running SwitchV2P with 1/2/4-way caches of equal total
size (associativity beyond 1 is not implementable at line rate).
"""

from common import run_artifact


def test_ablation_cache_geometry(benchmark):
    results = run_artifact(benchmark, "ablation_cache_geometry")
    # Associativity should not *hurt* much; the interesting output is
    # how small the direct-mapped penalty actually is (the paper's
    # hardware-friendly choice being nearly free).
    direct = results[1]
    best_hit = max(r.hit_rate for r in results.values())
    assert direct.hit_rate >= best_hit - 0.1
