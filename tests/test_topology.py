"""Tests for fat-tree construction, wiring, and switch-path computation."""

import pytest

from repro.baselines import NoCache
from repro.faults.fuzz import cable_targets
from repro.net.addresses import make_pip
from repro.net.node import Layer, Node
from repro.net.topology import Fabric, FatTreeSpec
from repro.sim.engine import Engine

from conftest import cable_ends, ft32_spec, small_network, tiny_spec


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
        for j in range(spec.spines_per_pod):
            assert fabric.port(tor, tor.up_links, j).dst is fabric.spines[(pod, j)]
    for (pod, j), spine in fabric.spines.items():
        assert len(spine.down_links) == spec.racks_per_pod
        for rack in range(spec.racks_per_pod):
            link = fabric.port(spine, spine.down_links, rack)
            assert link.dst is fabric.tor_of(pod, rack)


def test_core_groups_connect_every_pod():
    fabric = build()
    spec = fabric.spec
    group = spec.num_cores // spec.spines_per_pod
    for core in fabric.cores:
        assert len(core.pod_links) == spec.pods
        for pod in range(spec.pods):
            link = fabric.port(core, core.pod_links, pod)
            assert link.dst is fabric.spines[(pod, core.rack // group)]
    for (pod, j), spine in fabric.spines.items():
        assert len(spine.up_links) == group
        for i in range(group):
            assert fabric.port(spine, spine.up_links, i).dst is fabric.cores[j * group + i]


def test_a_port_is_made_once_on_first_use_and_past_the_end_is_none():
    fabric = build()
    tor = fabric.tor_of(0, 0)
    assert tor.up_links == [None, None]
    link = fabric.port(tor, tor.up_links, 1)
    assert tor.up_links == [None, link]
    assert fabric.port(tor, tor.up_links, 1) is link
    assert fabric.port(tor, tor.up_links, 2) is None
    assert tor.up_links == [None, link]


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


def switch_links(fabric):
    """The switch-to-switch links made so far, port table by port table."""
    return [link for switch in fabric.switches
            for ports in (switch.up_links, switch.down_links, switch.pod_links)
            for link in ports if link is not None]


def test_ft32_structural_invariants():
    spec = ft32_spec()
    assert spec.num_servers == 8192
    assert spec.num_switches == 1280
    fabric = Fabric(Engine(), spec)
    assert len(fabric.tors) == 32 * 16
    assert len(fabric.spines) == 32 * 16
    assert len(fabric.cores) == 256
    assert len(fabric.switches) == 1280
    # Construction sizes every port table and makes no link: the full
    # ToR<->spine mesh of every pod plus each spine's core group are
    # ports, both directions, of the cables ``cable_targets`` lists.
    group = spec.num_cores // spec.spines_per_pod
    cables = spec.pods * (spec.racks_per_pod * spec.spines_per_pod
                          + spec.spines_per_pod * group)
    assert len(cable_targets(spec)) == cables == 16_384
    for tor in fabric.tors.values():
        assert tor.up_links == [None] * spec.spines_per_pod
    for spine in fabric.spines.values():
        assert spine.up_links == [None] * group  # ECMP group size
        assert spine.down_links == [None] * spec.racks_per_pod
    for core in fabric.cores:
        assert core.pod_links == [None] * spec.pods
    assert sum(len(switch.up_links) + len(switch.down_links)
               + len(switch.pod_links) for switch in fabric.switches) == 2 * cables
    assert switch_links(fabric) == []
    # Attaching hosts adds edge links only.
    fabric.attach_host(Stub("h"), 3, 5, 0)
    fabric.attach_host(Stub("g"), 17, 0, 2)
    assert switch_links(fabric) == []
    assert len(list(fabric.links())) == 2
    # Cabling everything fills every port, once.
    for a, b in cable_ends(fabric):
        fabric.link_between(a, b)
        fabric.link_between(b, a)
    assert len(switch_links(fabric)) == 2 * cables == 32_768
    assert len(set(map(id, fabric.links()))) == 2 * cables + 2


def test_switch_links_are_listed_pod_major():
    """Made in ``cable_targets`` order, the two links of every cable are
    each made once, in the ports the cable names, and ``Fabric.links``
    lists them by the switch they leave: pod by pod, cores last."""
    fabric = build(tiny_spec())
    ends = cable_ends(fabric)
    assert len(set(ends)) == len(ends)
    made = [link for a, b in ends
            for link in (fabric.link_between(a, b), fabric.link_between(b, a))]
    assert [(link.src, link.dst) for link in made] == [
        pair for a, b in ends for pair in ((a, b), (b, a))]
    listed = list(fabric.links())
    assert sorted(map(id, listed)) == sorted(map(id, made))
    pods = [link.src.pod if link.src.layer != Layer.CORE else fabric.spec.pods
            for link in listed]
    assert pods == sorted(pods)


@pytest.mark.parametrize("spec_factory, step", [(FatTreeSpec, 1), (ft32_spec, 97)])
def test_link_between_reads_the_wired_link(spec_factory, step):
    """Every FT8 cable, and every 97th of FT32's 16 384, in both
    directions: ``link_between`` makes the link with the cable's line
    rate, propagation delay and buffer, then reads back that one."""
    fabric = Fabric(Engine(), spec_factory())
    spec = fabric.spec
    for a, b in cable_ends(fabric)[::step]:
        for src, dst in ((a, b), (b, a)):
            link = fabric.link_between(src, dst)
            assert (link.src, link.dst, link.rate_bps, link.propagation_ns,
                    link.buffer_bytes) == (src, dst, spec.fabric_link_bps,
                                           spec.propagation_ns, spec.buffer_bytes)
            assert fabric.link_between(src, dst) is link
    assert len(switch_links(fabric)) == 2 * len(cable_ends(fabric)[::step])


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
    assert switch_links(fabric) == []


def test_link_between_every_ordered_pair_of_nodes():
    """Over every ordered pair of switches, hosts and gateways of a small
    network, ``link_between`` returns the link from the first to the
    second exactly for the cables ``cable_targets`` lists, and for any
    other pair raises a KeyError naming both ends and makes nothing."""
    network = small_network(NoCache(), num_vms=4)
    fabric = network.fabric
    nodes = [*fabric.switches, *network.hosts, *network.gateways]
    cabled = {pair for a, b in cable_ends(fabric) for pair in ((a, b), (b, a))}

    def tables():
        return [list(ports) for switch in fabric.switches
                for ports in (switch.up_links, switch.down_links, switch.pod_links)]

    for a in nodes:
        for b in nodes:
            if (a, b) in cabled:
                link = fabric.link_between(a, b)
                assert (link.src, link.dst) == (a, b)
                continue
            before = tables()
            with pytest.raises(KeyError) as error:
                fabric.link_between(a, b)
            names = [f"switch {node.switch_id}" if node in fabric.switches
                     else repr(node) for node in (a, b)]
            assert error.value.args[0] == f"no link from {names[0]} to {names[1]}"
            assert tables() == before
    assert len(switch_links(fabric)) == len(cabled)
