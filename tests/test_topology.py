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
    assert len(list(cabled_links(fabric))) == 2 * cables == 32_768
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
    assert sum(len(switch.up_links) + len(switch.down_links)
               + len(switch.pod_links) for switch in fabric.switches) == 2 * cables


def cabled_links(fabric):
    """Every switch-to-switch link, read from the port lists in the
    order ``Fabric._build`` cabled them: pod by pod, each cable's
    forward link before its backward one."""
    spec = fabric.spec
    for pod in range(spec.pods):
        spines = [fabric.spines[(pod, j)] for j in range(spec.spines_per_pod)]
        for rack in range(spec.racks_per_pod):
            for spine, up in zip(spines, fabric.tor_of(pod, rack).up_links):
                yield up
                yield spine.down_links[rack]
        for spine in spines:
            for up in spine.up_links:
                yield up
                yield up.dst.pod_links[pod]


def wired_fabric(spec, monkeypatch):
    """A fabric, and the (forward, backward) pairs ``_wire`` returned
    while building it, in call order."""
    cables = []
    wire = Fabric._wire

    def spy(self, a, b):
        cables.append(wire(self, a, b))
        return cables[-1]

    monkeypatch.setattr(Fabric, "_wire", spy)
    return Fabric(Engine(), spec), cables


def test_switch_links_are_listed_pod_major(monkeypatch):
    """The port lists, walked in build order, give every link ``_wire``
    built, once, in the order it built them."""
    fabric, cables = wired_fabric(tiny_spec(), monkeypatch)
    links = list(cabled_links(fabric))
    assert links == [link for pair in cables for link in pair]
    pods = [max(link.src.pod, link.dst.pod) for link in links]
    assert pods == sorted(pods)


@pytest.mark.parametrize("spec_factory, step", [(FatTreeSpec, 1), (ft32_spec, 97)])
def test_link_between_reads_the_wired_link(spec_factory, step, monkeypatch):
    """Every FT8 cable, and every 97th of FT32's 16 384, in both
    directions."""
    fabric, cables = wired_fabric(spec_factory(), monkeypatch)
    for forward, backward in cables[::step]:
        a, b = forward.src, forward.dst
        assert fabric.link_between(a, b) is forward
        assert fabric.link_between(b, a) is backward


def test_link_between_switches_without_a_cable_is_a_key_error():
    fabric = Fabric(Engine(), FatTreeSpec())
    tor, spine, core = fabric.tor_of(0, 0), fabric.spines[(0, 0)], fabric.cores[0]
    far_group = fabric.cores[-1]  # wired to spine 3 of each pod, not spine 0
    pairs = [(tor, fabric.tor_of(0, 1)), (tor, fabric.spines[(1, 0)]),
             (tor, core), (spine, fabric.spines[(0, 1)]), (spine, far_group),
             (spine, fabric.tor_of(1, 0)), (core, tor), (core, far_group),
             (far_group, spine), (fabric.tor_of(1, 0), spine)]
    for a, b in pairs:
        with pytest.raises(KeyError,
                           match=f"switch {a.switch_id} to switch {b.switch_id}'"):
            fabric.link_between(a, b)
