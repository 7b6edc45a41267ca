"""Seed robustness: the headline orderings hold across random seeds.

Reviewers of reproductions rightly ask whether results are one lucky
seed.  This bench repeats a compact Figure-5a-style comparison under
several seeds and asserts the orderings that drive the paper's
conclusions hold in every one.
"""

from common import run_artifact


def test_orderings_hold_across_seeds(benchmark):
    rows = run_artifact(benchmark, "robustness_seeds")
    for seed in dict.fromkeys(row.x_value for row in rows):  # x is the seed
        by_scheme = {row.scheme: row for row in rows if row.x_value == seed}
        v2p = by_scheme["SwitchV2P"]
        assert v2p.hit_rate > by_scheme["LocalLearning"].hit_rate, seed
        assert v2p.fct_improvement > \
            by_scheme["LocalLearning"].fct_improvement, seed
        assert by_scheme["Direct"].fct_improvement >= v2p.fct_improvement, seed
