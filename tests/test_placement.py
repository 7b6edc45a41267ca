"""One-pass ``place_vms`` against the loop of ``place_vm`` it replaced.

``VirtualNetwork.place_vms`` fills the hosts' VM sets and bulk-loads
the mapping database without a call per VIP.  The reference below is
the former body — one ``place_vm`` per VIP — and everything an observer
could tell the two apart by is compared: the table *in order*,
``version``, every host's VMs, and the exact
calls subscribed listeners receive (``Direct`` and ``DhtStore`` price
their control planes by counting them).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import DhtStore, Direct, NoCache
from repro.vnet.mapping import MappingDatabase
from repro.vnet.network import NetworkConfig, VirtualNetwork
from repro.vnet.validation import validate_network

from conftest import tiny_spec


def reference_place_vms(network: VirtualNetwork, count: int) -> None:
    """``place_vms`` as it was: VIP by VIP through ``place_vm``."""
    for vip in range(count):
        network.place_vm(vip, network.hosts[vip % len(network.hosts)])


class Recording(NoCache):
    """Subscribes during set-up — before any placement, like ``Direct``
    and ``DhtStore`` — and lists every update call it receives."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def setup(self, network):
        super().setup(network)
        network.database.subscribe(
            lambda vip, old, new: self.calls.append((vip, old, new)))


def build(scheme, servers_per_rack: int) -> VirtualNetwork:
    spec = tiny_spec(servers_per_rack=servers_per_rack)
    return VirtualNetwork(NetworkConfig(spec=spec), scheme)


def observable_state(network: VirtualNetwork):
    database = network.database
    return {
        "items": list(database.items()),
        "version": database.version,
        "vms": [sorted(host.vms) for host in network.hosts],
    }


#: Host counts 4..20 (2 pods x 2 racks x 1..5 servers); VM counts from
#: none, through fewer VMs than hosts, to several uneven rounds.
SERVERS = st.integers(min_value=1, max_value=5)
COUNTS = st.integers(min_value=0, max_value=90)


@settings(max_examples=60, deadline=None)
@given(servers=SERVERS, count=COUNTS)
def test_one_pass_placement_equals_the_place_vm_loop(servers, count):
    fast, slow = build(Recording(), servers), build(Recording(), servers)
    fast.place_vms(count)
    reference_place_vms(slow, count)
    assert observable_state(fast) == observable_state(slow)
    assert fast.scheme.calls == slow.scheme.calls
    assert fast.scheme.calls == [(vip, -1, fast.hosts[vip % len(fast.hosts)].pip)
                                 for vip in range(count)]
    if count:
        assert [fast.host_of(vip) for vip in range(count)] \
            == [fast.hosts[vip % len(fast.hosts)] for vip in range(count)]


@settings(max_examples=25, deadline=None)
@given(servers=SERVERS, count=COUNTS)
def test_control_plane_cost_counters_are_unchanged(servers, count):
    for scheme, counter in ((Direct, "control_plane_pushes"),
                            (DhtStore, "update_messages")):
        fast, slow = build(scheme(), servers), build(scheme(), servers)
        fast.place_vms(count)
        reference_place_vms(slow, count)
        assert getattr(fast.scheme, counter) == getattr(slow.scheme, counter)
    assert fast.scheme.update_messages == count


@settings(max_examples=40, deadline=None)
@given(servers=SERVERS, first=COUNTS, second=COUNTS)
def test_second_placement_goes_vip_by_vip(servers, first, second):
    """A populated database sees updates, not a load: ``version``
    advances per VIP and listeners hear the old PIP."""
    fast, slow = build(Recording(), servers), build(Recording(), servers)
    for count in (first, second):
        fast.place_vms(count)
        reference_place_vms(slow, count)
    assert observable_state(fast) == observable_state(slow)
    assert fast.scheme.calls == slow.scheme.calls


@settings(max_examples=40, deadline=None)
@given(servers=SERVERS, count=COUNTS,
       arrivals=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 3)),
                         max_size=8),
       arrive_first=st.booleans())
def test_single_arrivals_around_a_placement(servers, count, arrivals, arrive_first):
    """``place_vm`` stays the one-VM entry point (the fault
    experiments) before and after a bulk placement."""
    fast, slow = build(Recording(), servers), build(Recording(), servers)

    def arrive(network):
        for vip, host_index in arrivals:
            network.place_vm(vip, network.hosts[host_index])

    for network, place in ((fast, fast.place_vms),
                           (slow, lambda n: reference_place_vms(slow, n))):
        if arrive_first:
            arrive(network)
        place(count)
        if not arrive_first:
            arrive(network)
    assert observable_state(fast) == observable_state(slow)
    assert fast.scheme.calls == slow.scheme.calls


def test_vips_are_held_once_across_tables():
    """The hosts' sets and the table name one ``int`` object per VIP
    (each extra copy would cost k=32 / 100k VMs 3 MB of RSS)."""
    network = build(NoCache(), 2)
    network.place_vms(2_000)
    held = {id(vip) for host in network.hosts for vip in host.vms}
    assert held == {id(vip) for vip in network.database._table}


def test_load_refuses_a_database_that_was_written():
    database = MappingDatabase()
    database.set(5, 50)
    with pytest.raises(ValueError, match="never written"):
        database.load([(1, 10)])


def test_placing_on_a_fabric_without_servers_is_an_error():
    network = build(NoCache(), 0)
    network.place_vms(0)
    with pytest.raises(ValueError, match="no servers"):
        network.place_vms(3)


def test_single_arrivals_then_migrations_keep_hosts_and_database_in_step():
    """Without ``place_vms``: VMs arrive one ``place_vm`` at a time on a
    database nothing ever loaded, and migrate afterwards."""
    network = build(NoCache(), 2)
    hosts = network.hosts
    arrivals = 20
    for vip in range(arrivals):
        network.place_vm(vip, hosts[(3 * vip) % len(hosts)])
    migrations = 0
    for vip in range(0, arrivals, 3):
        before = network.host_of(vip)
        network.migrate(vip, hosts[(3 * vip + 5) % len(hosts)])
        migrations += network.host_of(vip) is not before
    database = network.database
    assert len(database) >= 5
    assert migrations > 0
    assert validate_network(network) == []
    assert database.version == arrivals + migrations
    assert sum(len(host.vms) for host in network.hosts) == len(database)
