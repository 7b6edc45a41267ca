"""Where a VM runs: the mapping database, and nothing else.

A host runs VIP ``v`` exactly when the database maps ``v`` to its PIP,
so placement is a database write.  Three groups:

* one-pass ``place_vms`` (a single ``MappingDatabase.load``) against
  the loop of ``place_vm`` it replaced, compared on everything an
  observer could tell the two apart by: the table *in order*,
  ``version``, and the exact calls subscribed listeners receive
  (``Direct`` and ``DhtStore`` price their control planes by counting
  them);
* a property over random placements, arrivals and migrations: after
  every step ``Host.receive`` delivers a packet exactly where the
  database maps its VIP and misdelivers it everywhere else;
* the VIP-indexed list the database keeps, against a dict keyed by VIP
  (the table it replaced) over random writes, loads and reads —
  negative VIPs, VIPs past the end and sparse ones included.
"""

import inspect
import textwrap
from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import DhtStore, Direct, NoCache
from repro.net.packet import Packet, PacketKind
from repro.vnet import hypervisor, mapping
from repro.vnet.hypervisor import Host
from repro.vnet.mapping import MappingDatabase, MappingError
from repro.vnet.network import NetworkConfig, VirtualNetwork
from repro.vnet.validation import check_invariants

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


def test_load_refuses_a_database_that_was_written():
    database = MappingDatabase()
    database.set(5, 50)
    with pytest.raises(ValueError, match="never written"):
        database.load([10])


def test_placing_on_a_fabric_without_servers_is_an_error():
    network = build(NoCache(), 0)
    network.place_vms(0)
    with pytest.raises(ValueError, match="no servers"):
        network.place_vms(3)
    # A written database takes the VIP-by-VIP branch, which must not
    # reach ``vip % len(hosts)`` with no hosts.
    network.database.set(0, network.gateways[0].pip)
    with pytest.raises(ValueError, match="no servers"):
        network.place_vms(3)
    assert network.place_vms(0) is None


# ----------------------------------------------------------------------
# a host delivers exactly what the database maps to it
# ----------------------------------------------------------------------
VIPS = 10

#: ``(op, vip, host index)``; host indices wrap, so moves back and
#: moves to the VIP's own host come up often, and "back" returns a VIP
#: to the host its last move took it from.
STEPS = st.lists(st.one_of(
    st.tuples(st.just("place_vms"), st.integers(0, VIPS), st.just(0)),
    st.tuples(st.sampled_from(["place_vm", "migrate", "back"]),
              st.integers(0, VIPS - 1), st.integers(0, 5))),
    min_size=1, max_size=10)


class Recorder:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def apply_step(network, where, came_from, op, vip, index) -> int:
    """Run one control-plane step on ``network`` and on the model
    ``where`` (VIP -> host); ``came_from`` holds each VIP's last
    migration source.  Returns the database writes the step makes."""
    hosts = network.hosts
    target = hosts[index % len(hosts)]
    if op == "place_vms":
        network.place_vms(vip)
        where.update((v, hosts[v % len(hosts)]) for v in range(vip))
        return vip
    if op == "place_vm":
        network.place_vm(vip, target)
        where[vip] = target
        return 1
    if vip not in where:
        with pytest.raises(MappingError):
            network.migrate(vip, target)
        return 0
    if op == "back":
        target = came_from.get(vip, target)
    source = where[vip]
    network.migrate(vip, target)
    where[vip] = target
    if target is source:
        return 0
    assert source.follow_me[vip] == target.pip
    came_from[vip] = source
    return 1


def check_delivery(network, where) -> None:
    """Every host receives one packet for every VIP: delivered to the
    VIP's endpoint by the one host the database maps it to, counted as
    a misdelivery by every other."""
    collector = network.collector
    for vip in range(VIPS):
        assert (network.host_of(vip) if vip in network.database
                else None) is where.get(vip)
        for host in network.hosts:
            packet = Packet(PacketKind.DATA, 1, 0, 64, 0, vip, 0)
            received = network.endpoints[vip].packets if vip in where else []
            before = (len(received), collector.deliveries, host.misdeliveries)
            host.receive(packet)
            runs = where.get(vip) is host
            assert (len(received), collector.deliveries, host.misdeliveries) \
                == (before[0] + runs, before[1] + runs, before[2] + (not runs)), \
                (vip, host.name)
            assert not runs or received[-1] is packet


@settings(max_examples=60, deadline=None)
@given(servers=st.integers(1, 3), steps=STEPS)
def test_a_host_delivers_exactly_the_vips_the_database_maps_to_it(servers,
                                                                  steps):
    network = build(NoCache(), servers)
    where, came_from = {}, {}
    writes = 0
    for op, vip, index in steps:
        writes += apply_step(network, where, came_from, op, vip, index)
        assert network.database.version == writes
        for mapped in where:
            network.endpoints.setdefault(mapped, Recorder())
        check_delivery(network, where)
        assert check_invariants(network) == []


def test_a_host_answering_from_a_placement_time_copy_fails_the_property(
        monkeypatch):
    """Seeded mutant: every host reads a copy of the table taken when
    VMs were placed, so a migration leaves it answering for the old
    location."""
    def snapshot(place):
        def placed(network, *args):
            place(network, *args)
            copy = list(network.database.table)
            for host in network.hosts:
                host.placement = copy
        return placed

    monkeypatch.setattr(VirtualNetwork, "place_vms",
                        snapshot(VirtualNetwork.place_vms))
    monkeypatch.setattr(VirtualNetwork, "place_vm",
                        snapshot(VirtualNetwork.place_vm))
    with pytest.raises(AssertionError):
        test_a_host_delivers_exactly_the_vips_the_database_maps_to_it()


def test_a_packet_for_a_vip_outside_the_table_is_a_misdelivery():
    """Past the end, or negative (which must not wrap to the last
    entry): no host runs it."""
    network = build(NoCache(), 2)
    network.place_vms(5)
    collector = network.collector
    for vip in (*range(-6, 0), 5, 6, 40):
        for host in network.hosts:
            before = (collector.deliveries, host.misdeliveries)
            host.receive(Packet(PacketKind.DATA, 1, 0, 64, 0, vip, 0))
            assert (collector.deliveries, host.misdeliveries) \
                == (before[0], before[1] + 1), (vip, host.name)


def seed_mutant(monkeypatch, module, cls, name, old, new):
    """Replace ``cls.name`` by its own source with ``old`` -> ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    mutant = source.replace(old, new)
    assert mutant != source
    namespace = dict(vars(module))
    exec(compile(mutant, module.__file__, "exec"), namespace)
    monkeypatch.setattr(cls, name, namespace[name])


def test_a_host_reading_with_no_negative_guard_fails_the_case(monkeypatch):
    """Seeded mutant: ``Host.receive`` indexes the table with a negative
    VIP, which wraps to the last VIPs' hosts."""
    seed_mutant(monkeypatch, hypervisor, Host, "receive", "vip >= 0 and ", "")
    with pytest.raises(AssertionError):
        test_a_packet_for_a_vip_outside_the_table_is_a_misdelivery()


# ----------------------------------------------------------------------
# the VIP-indexed table against a dict keyed by VIP
# ----------------------------------------------------------------------
class DictDatabase:
    """The database as a dict keyed by VIP, the table the list replaced.

    Its reads are the specification: a VIP is mapped once written, and
    nothing else is; a negative VIP cannot be written; ``load`` maps
    VIP ``i`` to the ``i``-th PIP as one ``set`` per VIP would.
    """

    def __init__(self):
        self._table = {}
        self.version = 0
        self._listeners = []

    def __len__(self):
        return len(self._table)

    def __contains__(self, vip):
        return vip in self._table

    def lookup(self, vip):
        try:
            return self._table[vip]
        except KeyError:
            raise MappingError(vip) from None

    def get(self, vip):
        return self._table.get(vip)

    def set(self, vip, pip):
        if vip < 0:
            raise ValueError(vip)
        old = self._table.get(vip, -1)
        self._table[vip] = pip
        self.version += 1
        for listener in self._listeners:
            listener(vip, old, pip)

    def load(self, pips):
        if self.version:
            raise ValueError("written")
        for vip, pip in enumerate(pips):
            self.set(vip, pip)

    def items(self):
        return sorted(self._table.items())

    def subscribe(self, listener):
        self._listeners.append(listener)


#: Negative VIPs, VIPs past what a load fills, and one far past it.
TABLE_VIPS = st.one_of(st.integers(-3, 24), st.just(200))
READ_VIPS = (*range(-4, 30), 199, 200, 201)
PIPS = (100, 101, 102)
TABLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), TABLE_VIPS, st.sampled_from(PIPS)),
    st.tuples(st.just("load"), st.integers(0, 12), st.integers(1, 3)),
    st.tuples(st.just("subscribe"), st.just(0), st.just(0))),
    max_size=12)


def outcome(call, *args):
    try:
        return call(*args)
    except (MappingError, ValueError) as error:
        return type(error)


def table_state(database):
    """Everything a reader can ask the database, as one value."""
    return (len(database), database.version, list(database.items()),
            [(outcome(database.get, vip), outcome(database.lookup, vip),
              vip in database) for vip in READ_VIPS])


@settings(max_examples=150, deadline=None)
@given(ops=TABLE_OPS)
def test_the_vip_indexed_table_reads_as_the_dict_it_replaced(ops):
    databases = MappingDatabase(), DictDatabase()
    calls = [], []
    for op, a, b in ops:
        seen = []
        for database, heard in zip(databases, calls):
            if op == "set":
                result = outcome(database.set, a, b)
            elif op == "load":
                result = outcome(database.load, islice(cycle(PIPS[:b]), a))
            else:
                result = database.subscribe(
                    lambda *call, heard=heard: heard.append(call))
            seen.append((result, table_state(database), list(heard)))
        assert seen[0] == seen[1], (op, a, b)


def test_a_lookup_with_no_negative_guard_fails_the_property(monkeypatch):
    """Seeded mutant: ``lookup`` lets a negative VIP wrap to the last
    entries instead of raising."""
    seed_mutant(monkeypatch, mapping, MappingDatabase, "lookup",
                "pip is None or vip < 0", "pip is None")
    with pytest.raises(AssertionError):
        test_the_vip_indexed_table_reads_as_the_dict_it_replaced()
