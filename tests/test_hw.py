"""Tests for the Tofino resource model (Table 6)."""

import pytest

from repro.hw.tofino import (
    TABLE6_ENTRIES_PER_SWITCH,
    estimate_utilization,
    max_entries,
)

#: The paper's Table 6 at the 50% cache configuration.
TABLE6_EXPECTED = {
    "Match Crossbar": 7.2,
    "Meter ALU": 17.5,
    "Gateway": 25.0,
    "SRAM": 3.9,
    "TCAM": 1.7,
    "VLIW Instruction": 10.0,
    "Hash Bits": 4.7,
}


def test_reproduces_table6_exactly():
    estimate = estimate_utilization(TABLE6_ENTRIES_PER_SWITCH)
    for resource, expected in TABLE6_EXPECTED.items():
        assert estimate[resource] == pytest.approx(expected, abs=1e-9)


def test_only_sram_and_hash_bits_scale():
    small = estimate_utilization(0)
    large = estimate_utilization(100_000)
    for resource in TABLE6_EXPECTED:
        if resource in ("SRAM", "Hash Bits"):
            assert large[resource] > small[resource]
        else:
            assert large[resource] == small[resource]


def test_max_entries_is_bluebird_scale():
    # Bluebird reports ~192K entries per switch; the model should allow
    # the same order of magnitude.
    assert max_entries() > 100_000


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        estimate_utilization(-1)
