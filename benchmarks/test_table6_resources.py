"""Table 6: average per-stage Tofino resource utilization at the 50%
cache configuration, from the analytical pipeline model.

Paper shape (reproduced exactly by construction at the calibration
point): modest utilization across the board, with only SRAM and hash
bits scaling as the cache grows.
"""

import pytest

from common import run_artifact
from repro.experiments.artifacts import PAPER_TABLE6
from repro.hw import (
    TABLE6_ENTRIES_PER_SWITCH,
    max_entries,
    validate_feasibility,
)


def test_table6_resources(benchmark):
    at_paper = run_artifact(benchmark, "table6_resources")
    for name, expected in PAPER_TABLE6.items():
        assert at_paper[name] == pytest.approx(expected, abs=1e-6)
    # Headroom scales to Bluebird-like table sizes.
    assert max_entries() > 100_000
    # And the staged-pipeline model confirms every protocol operation
    # completes in a single pass (no recirculation, §3.4).
    traces = validate_feasibility(TABLE6_ENTRIES_PER_SWITCH)
    assert traces
