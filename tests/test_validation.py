"""Tests for the network invariant checker."""

import pytest

from repro.baselines import NoCache
from repro.vnet.validation import assert_valid, validate_network

from conftest import small_network


def test_fresh_network_is_valid():
    network = small_network(NoCache(), num_vms=8)
    assert validate_network(network) == []
    assert_valid(network)


def test_network_valid_after_migration():
    network = small_network(NoCache(), num_vms=8)
    target = next(h for h in network.hosts if h is not network.host_of(0))
    network.migrate(0, target)
    assert validate_network(network) == []


def test_detects_placement_inconsistency():
    network = small_network(NoCache(), num_vms=8)
    # Corrupt: the database places vip 0 on a server that does not exist.
    from repro.net.addresses import make_pip
    nowhere = make_pip(0, 0, 99)
    network.database.set(0, nowhere)
    assert validate_network(network) == [f"vip 0 maps to unknown pip {nowhere}"]


def test_detects_orphan_endpoint():
    network = small_network(NoCache(), num_vms=8)
    network.endpoints[999] = object()
    issues = validate_network(network)
    assert any("endpoint" in issue and "vip 999" in issue for issue in issues)


def test_detects_missing_attachment():
    network = small_network(NoCache(), num_vms=8)
    host = network.hosts[0]
    from repro.net.addresses import pip_pod, pip_rack
    tor = network.fabric.tor_of(pip_pod(host.pip), pip_rack(host.pip))
    del tor.host_links[host.pip]
    issues = validate_network(network)
    assert issues == [f"{host.name} has no consistent downlink at its ToR"]


def test_detects_miswiring():
    """A port table of the wrong length, and a made link in a port that
    names another switch; ports not made yet are not miswired."""
    network = small_network(NoCache(), num_vms=8)
    fabric = network.fabric
    spine = fabric.spines[(0, 0)]
    tor0, tor1 = fabric.tor_of(0, 0), fabric.tor_of(0, 1)
    fabric.link_between(spine, tor0)
    assert validate_network(network) == []
    spine.down_links.reverse()
    assert validate_network(network) == [
        f"{spine.name} down_links[1] reaches {tor0.name}, not {tor1.name}"]
    spine.down_links.reverse()
    fabric.cores[1].pod_links.pop()
    assert validate_network(network) == [
        f"{fabric.cores[1].name} has 1 pod_links, expected 2"]


def test_assert_valid_raises_with_details():
    network = small_network(NoCache(), num_vms=8)
    network.endpoints[999] = object()
    with pytest.raises(AssertionError, match="endpoint"):
        assert_valid(network)


# ----------------------------------------------------------------------
# check_invariants: the chaos oracles' structural sweep
# ----------------------------------------------------------------------
def test_check_invariants_clean_on_degraded_network():
    """Legitimate fault states (mid-outage) are not violations."""
    from repro.core import SwitchV2P
    from repro.faults import FaultSchedule
    from repro.sim.engine import msec, usec
    from repro.vnet.validation import check_invariants

    network = small_network(SwitchV2P(200), num_vms=8)
    schedule = (FaultSchedule()
                .switch_outage("spine", (0, 0), usec(100), msec(2))
                .link_outage(("tor", 0, 0), ("spine", 0, 1),
                             usec(150), msec(2))
                .gateway_outage(0, usec(200), msec(2)))
    schedule.apply(network)
    network.run(until=msec(1))  # mid-outage: everything still down
    assert check_invariants(network) == []
    network.run(until=msec(5))  # after recovery
    assert check_invariants(network) == []


def test_check_invariants_detects_unaccounted_switch_failure():
    from repro.vnet.validation import check_invariants

    network = small_network(NoCache(), num_vms=8)
    # Corrupt: mark a switch failed without the fabric's accounting.
    network.fabric.spines[(0, 0)]._failed = True
    issues = check_invariants(network)
    assert any("fault_count" in issue for issue in issues)


def test_check_invariants_detects_surviving_sram():
    from repro.core import SwitchV2P
    from repro.vnet.validation import check_invariants

    network = small_network(SwitchV2P(200), num_vms=8)
    switch = network.fabric.spines[(0, 0)]
    switch.fail()
    # Corrupt: resurrect a cache entry inside the powered-off switch.
    network.scheme.cache_of(switch).insert(0, network.database.get(0))
    issues = check_invariants(network)
    assert any("SRAM" in issue for issue in issues)


def test_check_invariants_detects_corrupt_gateway_pool():
    from repro.vnet.validation import check_invariants

    network = small_network(NoCache(), num_vms=8)
    network.live_gateways.append(network.live_gateways[0])
    issues = check_invariants(network)
    assert any("twice" in issue for issue in issues)


def test_assert_valid_covers_fault_state():
    network = small_network(NoCache(), num_vms=8)
    network.fabric.fault_count = 5  # no visible fault justifies this
    with pytest.raises(AssertionError, match="fault_count"):
        assert_valid(network)
