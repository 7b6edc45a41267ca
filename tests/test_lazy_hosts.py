"""Servers made on first use.

A network makes a server — its ``Host``, its uplink and its ToR's port
to it — the first time something asks for it: ``VirtualNetwork.host``
(through ``host_of``, a migration or a ``VM_MIGRATE`` fault) or a ToR
routing a packet to it.  A server nobody has asked for behaves as an
idle, healthy one; ``test_cabling_equivalence.py`` holds that a run
reports the same with every server made up front.  Here: what is made
when, and the paths that must reach a server made late — fault
targets and the oracles' delivery probes.
"""

import pytest

from repro.baselines import NoCache
from repro.experiments.runner import run_flows
from repro.faults import FaultSchedule
from repro.faults.oracles import OracleSuite
from repro.net.addresses import make_pip
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import msec, usec
from repro.transport.flow import FlowSpec
from repro.transport.player import TrafficPlayer

from conftest import small_network


def unmade(network):
    """The servers not made yet, by PIP, in spec order."""
    return [pip for pip in network.config.spec.server_pips()
            if pip not in network.host_by_pip]


def test_a_built_network_has_made_no_server():
    network = small_network(NoCache(), num_vms=8)
    assert network.host_by_pip == {}
    assert len(unmade(network)) == network.config.spec.num_servers == 8
    assert len(list(network.fabric.links())) == 2 * len(network.gateways)


def test_hosts_makes_every_server_in_spec_order():
    network = small_network(NoCache(), num_vms=8)
    hosts = network.hosts
    assert [host.pip for host in hosts] == network.config.spec.server_pips()
    assert [host.name for host in hosts[:3]] == [
        "host-p0r0h0", "host-p0r0h1", "host-p0r1h0"]
    assert network.hosts == hosts
    assert all(host.handler is network.scheme for host in hosts)
    assert [network.host_of(vip) for vip in range(8)] == hosts


def test_host_makes_one_server_and_its_two_links():
    network = small_network(NoCache(), num_vms=8)
    pip = make_pip(1, 0, 1)
    host = network.host(pip)
    assert network.host(pip) is host
    assert list(network.host_by_pip) == [pip]
    tor = network.fabric.tor_of(1, 0)
    assert host.uplink.src is host and host.uplink.dst is tor
    assert tor.host_links[pip].dst is host
    assert len(list(network.fabric.links())) == 2 * len(network.gateways) + 2


@pytest.mark.parametrize("pip", [make_pip(0, 0, 2), make_pip(2, 0, 0),
                                 make_pip(0, 2, 0), -1],
                         ids=["slot-past-the-servers", "pod", "rack", "negative"])
def test_host_raises_for_a_pip_naming_no_server(pip):
    network = small_network(NoCache(), num_vms=8)
    with pytest.raises(KeyError):
        network.host(pip)
    assert network.host_by_pip == {}


def data_to(pip):
    return Packet(PacketKind.DATA, flow_id=3, seq=0, payload_bytes=64,
                  src_vip=0, dst_vip=1, outer_src=0, outer_dst=pip)


def test_a_tor_makes_a_server_on_its_first_route_miss():
    network = small_network(NoCache(), num_vms=8)
    pip = make_pip(0, 1, 1)
    tor = network.fabric.tor_of(0, 1)
    link = tor.next_hop(data_to(pip))
    assert list(network.host_by_pip) == [pip]
    assert link is tor.host_links[pip] and link.dst is network.host(pip)
    assert tor._route_memo[pip] is link
    assert tor.next_hop(data_to(pip)) is link


def test_a_tor_drops_a_packet_for_a_slot_with_no_server():
    network = small_network(NoCache(), num_vms=8)
    tor = network.fabric.tor_of(0, 1)
    assert tor.next_hop(data_to(make_pip(0, 1, 2))) is None
    assert network.host_by_pip == {}


def test_a_run_makes_the_servers_its_endpoints_run_on():
    network = small_network(NoCache(), num_vms=8)
    flows = [FlowSpec(src_vip=0, dst_vip=5, size_bytes=3000, start_ns=0)]
    result = run_flows(network, flows)
    assert result.completion_rate == 1.0
    assert set(network.host_by_pip) == {network.database.get(0),
                                        network.database.get(5)}


def test_a_vm_migrate_fault_onto_an_unmade_server_migrates_the_vm():
    network = small_network(NoCache(), num_vms=8)
    target = make_pip(1, 1, 1)
    assert network.database.get(3) != target
    schedule = FaultSchedule().migrate_vm(usec(10), 3, 1, 1, 1)
    schedule.apply(network)
    network.run(until=msec(1))
    assert network.database.get(3) == target
    assert network.host_of(3) is network.host_by_pip[target]
    assert schedule.fired == [(usec(10), "vm-migrate vip 3 -> host-p1r1h1")]


def test_a_vm_migrate_fault_onto_no_server_is_a_logged_no_op():
    network = small_network(NoCache(), num_vms=8)
    schedule = (FaultSchedule().migrate_vm(usec(10), 3, 0, 0, 7)
                .migrate_vm(usec(20), 99, 0, 0, 1))
    schedule.apply(network)
    network.run(until=msec(1))
    assert network.database.get(3) == make_pip(0, 1, 1)
    assert [description for _, description in schedule.fired] == [
        "vm-migrate vip 3 -> (0,0,7) skipped: no such vip/server",
        "vm-migrate vip 99 -> (0,0,1) skipped: no such vip/server"]
    assert network.host_by_pip == {}


def test_oracles_attached_before_a_server_is_made_see_its_deliveries():
    """A hop bound of 0 makes every delivery a ``forwarding-loop``
    report, naming the server that delivered it."""
    network = small_network(NoCache(), num_vms=8)
    suite = OracleSuite(network, hop_bound=0)
    destination = network.database.get(5)
    assert destination not in network.host_by_pip
    run_flows(network, [FlowSpec(src_vip=0, dst_vip=5, size_bytes=1000,
                                 start_ns=0)])
    name = network.host_by_pip[destination].name
    assert any(violation.oracle == "forwarding-loop"
               and f"delivered at {name} " in violation.detail
               for violation in suite.violations)


def test_an_endpoint_counts_packets_for_a_flow_it_does_not_hold():
    network = small_network(NoCache(), num_vms=8)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=0, dst_vip=5, size_bytes=1000,
                               start_ns=0)])
    network.run(until=msec(1))
    assert network.collector.unclaimed_packets == 0
    demux = network.endpoints[5]
    for kind in (PacketKind.DATA, PacketKind.ACK):
        demux.on_packet(Packet(kind, flow_id=999, seq=0, payload_bytes=64,
                               src_vip=0, dst_vip=5, outer_src=0, outer_dst=0))
    assert network.collector.unclaimed_packets == 2
