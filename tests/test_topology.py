"""Tests for fat-tree construction, wiring, and switch-path computation."""

import pytest

from repro.net.addresses import make_pip
from repro.net.node import Layer, Node
from repro.net.topology import Fabric, FatTreeSpec
from repro.sim.engine import Engine

from conftest import ft32_spec, tiny_spec


class Stub(Node):
    def receive(self, packet, link=None):
        pass


def build(spec=None):
    return Fabric(Engine(), spec if spec is not None else tiny_spec())


def test_ft8_matches_table3_counts():
    spec = FatTreeSpec()  # the paper's FT8-10K
    fabric = Fabric(Engine(), spec)
    assert len(fabric.tors) == 32
    assert len(fabric.spines) == 32
    assert len(fabric.cores) == 16
    assert len(fabric.switches) == 80
    assert spec.num_servers == 128
    assert spec.num_gateways == 40


def test_switch_ids_unique_and_indexed():
    fabric = build()
    ids = [switch.switch_id for switch in fabric.switches]
    assert len(ids) == len(set(ids))
    for switch in fabric.switches:
        assert fabric.switch_by_id[switch.switch_id] is switch


def test_tor_spine_full_mesh():
    fabric = build()
    spec = fabric.spec
    for (pod, rack), tor in fabric.tors.items():
        assert len(tor.up_links) == spec.spines_per_pod
    for (pod, j), spine in fabric.spines.items():
        assert len(spine.down_links) == spec.racks_per_pod
        for rack, link in enumerate(spine.down_links):
            assert link.dst is fabric.tor_of(pod, rack)


def test_core_groups_connect_every_pod():
    fabric = build()
    spec = fabric.spec
    for core in fabric.cores:
        assert len(core.pod_links) == spec.pods
        assert all(link is not None for link in core.pod_links)
    group = spec.num_cores // spec.spines_per_pod
    for (pod, j), spine in fabric.spines.items():
        assert len(spine.up_links) == group


def test_host_attachment():
    fabric = build()
    host = Stub("h")
    pip, uplink = fabric.attach_host(host, 0, 1, 0)
    assert pip == make_pip(0, 1, 0)
    tor = fabric.tor_of(0, 1)
    assert pip in tor.host_links
    assert pip in tor.attached_pips
    assert uplink.dst is tor


def test_duplicate_host_slot_rejected():
    fabric = build()
    fabric.attach_host(Stub("a"), 0, 0, 0)
    with pytest.raises(ValueError):
        fabric.attach_host(Stub("b"), 0, 0, 0)


def test_gateway_role_sets():
    fabric = build()
    spec = fabric.spec
    gw_tors = fabric.gateway_tor_ids()
    assert gw_tors == {fabric.tor_of(1, spec.gateway_rack).switch_id}
    gw_spines = fabric.gateway_spine_ids()
    assert gw_spines == {fabric.spines[(1, j)].switch_id
                         for j in range(spec.spines_per_pod)}


def _walk(path, start):
    node = start
    for link in path:
        assert link.src is node, "path links must chain"
        node = link.dst
    return node


@pytest.mark.parametrize("target_kind", ["tor_same_pod", "tor_other_pod",
                                         "spine_same_pod", "spine_other_pod",
                                         "core"])
def test_path_from_tor_reaches_target(target_kind):
    fabric = build()
    tor = fabric.tor_of(0, 0)
    targets = {
        "tor_same_pod": fabric.tor_of(0, 1),
        "tor_other_pod": fabric.tor_of(1, 0),
        "spine_same_pod": fabric.spines[(0, 1)],
        "spine_other_pod": fabric.spines[(1, 0)],
        "core": fabric.cores[1],
    }
    target = targets[target_kind]
    path = fabric.path_from_tor(tor, target, key=12345)
    assert path, "nonempty path expected"
    assert _walk(path, tor) is target


def test_path_to_self_is_empty():
    fabric = build()
    tor = fabric.tor_of(0, 0)
    assert fabric.path_from_tor(tor, tor, key=1) == []


def test_path_from_non_tor_rejected():
    fabric = build()
    with pytest.raises(ValueError):
        fabric.path_from_tor(fabric.cores[0], fabric.tor_of(0, 0), key=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        FatTreeSpec(pods=0)
    with pytest.raises(ValueError):
        FatTreeSpec(num_cores=5, spines_per_pod=4)
    with pytest.raises(ValueError):
        FatTreeSpec(pods=4, gateway_pods=(7,))


def test_spec_derived_quantities():
    spec = tiny_spec()
    assert spec.num_servers == 8
    assert spec.num_switches == 2 * (2 + 2) + 2
    assert spec.gateway_rack == 1


def test_ft32_structural_invariants():
    spec = ft32_spec()
    assert spec.num_servers == 8192
    assert spec.num_switches == 1280
    fabric = Fabric(Engine(), spec)
    assert len(fabric.tors) == 32 * 16
    assert len(fabric.spines) == 32 * 16
    assert len(fabric.cores) == 256
    assert len(fabric.switches) == 1280
    # Construction cables the whole fabric: the full ToR<->spine mesh
    # of every pod plus each spine's core group, both directions.
    group = spec.num_cores // spec.spines_per_pod
    cables = spec.pods * (spec.racks_per_pod * spec.spines_per_pod
                          + spec.spines_per_pod * group)
    assert len(fabric._switch_links) == 2 * cables == 32_768
    for tor in fabric.tors.values():
        assert len(tor.up_links) == spec.spines_per_pod == 16
    for spine in fabric.spines.values():
        assert len(spine.up_links) == group  # ECMP group size
        assert len(spine.down_links) == spec.racks_per_pod
        assert None not in spine.down_links
    for core in fabric.cores:
        assert len(core.pod_links) == spec.pods
        assert None not in core.pod_links
    # Attaching hosts adds edge links only.
    fabric.attach_host(Stub("h"), 3, 5, 0)
    fabric.attach_host(Stub("g"), 17, 0, 2)
    assert len(fabric._switch_links) == 2 * cables


def test_switch_links_are_listed_pod_major():
    """``vnet/validation.py`` walks ``_switch_links`` in insertion order."""
    fabric = build()
    pods = [max(link.src.pod, link.dst.pod)
            for link in fabric._switch_links.values()]
    assert pods == sorted(pods)
    for (a, b), link in fabric._switch_links.items():
        assert (link.src.switch_id, link.dst.switch_id) == (a, b)
