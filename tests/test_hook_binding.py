"""Each switch runs one hook, bound once at set-up.

A hook closes over its switch's cache, role and config flags.  None of
those is ever replaced: a fault empties the cache in place, so the hook
bound when the network was built stays the one that runs.
"""

import pytest

from repro.baselines import (
    Bluebird,
    Controller,
    Direct,
    GwCache,
    LocalLearning,
    NoCache,
    OnDemand,
)
from repro.core import Role, SwitchV2P
from repro.net.node import Layer
from repro.net.packet import Packet, PacketKind
from repro.net.topology import FatTreeSpec

from conftest import deliver, small_network


def data(network, src_vip, dst_vip, resolved=True):
    """A data packet as it looks after a gateway translated it."""
    src, dst = network.host_of(src_vip), network.host_of(dst_vip)
    packet = Packet(PacketKind.DATA, flow_id=9, seq=1, payload_bytes=64,
                    src_vip=src_vip, dst_vip=dst_vip, outer_src=src.pip,
                    outer_dst=dst.pip if resolved else network.gateways[0].pip)
    packet.resolved = resolved
    return packet


def spine_of(network, scheme, role=Role.SPINE):
    return next(s for s in network.fabric.switches
                if scheme.roles[s.switch_id] is role)


def hooked(network) -> set[int]:
    return {s.switch_id for s in network.fabric.switches if s.hook is not None}


@pytest.mark.parametrize("scheme_class", [NoCache, Direct, OnDemand])
def test_schemes_without_switch_state_bind_no_hook(scheme_class):
    network = small_network(scheme_class(), num_vms=8)
    assert all(switch.hook is None for switch in network.fabric.switches)


def test_gwcache_hooks_only_the_switches_it_gave_a_cache():
    scheme = GwCache(total_cache_slots=64)
    network = small_network(scheme, num_vms=8, spec=FatTreeSpec())
    assert hooked(network) == set(scheme.caches)
    assert len(scheme.caches) == 4 and len(network.fabric.switches) == 80


def test_bluebird_hooks_only_the_tors():
    scheme = Bluebird(total_cache_slots=64)
    network = small_network(scheme, num_vms=8, spec=FatTreeSpec())
    tors = {s.switch_id for s in network.fabric.switches
            if s.layer is Layer.TOR}
    assert hooked(network) == set(scheme.caches) == tors
    assert len(tors) == 32


class _CoreController(Controller):
    """A Controller that places caches on the cores alone."""

    def caching_switch_ids(self, network):
        return [switch.switch_id for switch in network.fabric.cores]


@pytest.mark.parametrize("scheme_class", [Controller, _CoreController])
def test_controller_hooks_only_its_cached_switches(scheme_class):
    scheme = scheme_class(total_cache_slots=64)
    network = small_network(scheme, num_vms=8, spec=FatTreeSpec())
    assert hooked(network) == set(scheme.caches)
    assert len(scheme.caches) == (16 if scheme_class is _CoreController
                                  else 80)


def test_every_switch_is_bound_once():
    bound = []

    class Counting(SwitchV2P):
        def bind_hook(self, switch):
            bound.append(switch.switch_id)
            return super().bind_hook(switch)

    network = small_network(Counting(total_cache_slots=200), num_vms=8)
    ids = [s.switch_id for s in network.fabric.switches]
    assert bound == ids
    for switch in network.fabric.switches:
        switch.fail()
        switch.recover()
    assert bound == ids


def test_observer_attached_after_binding_still_hears_the_hook():
    """FluidScheduler attaches cache observers after scheme.setup: a
    hook must not have captured anything the attachment replaces."""
    scheme = SwitchV2P(total_cache_slots=200)
    network = small_network(scheme, num_vms=8)
    spine = spine_of(network, scheme)
    fired = []
    scheme.set_cache_observer(lambda switch_id: lambda: fired.append(switch_id))
    assert spine.hook(data(network, 0, 5), None) is True
    assert fired == [spine.switch_id]
    assert scheme.caches[spine.switch_id].peek(5) == network.host_of(5).pip
    # The refresh the hook settles itself is silent, as insert's is.
    assert spine.hook(data(network, 0, 5), None) is True
    assert fired == [spine.switch_id]


@pytest.mark.parametrize("scheme_class",
                         [SwitchV2P, GwCache, LocalLearning, Bluebird,
                          Controller])
def test_fault_resets_the_cache_in_place_and_keeps_every_hook(scheme_class):
    scheme = scheme_class(total_cache_slots=200)
    network = small_network(scheme, num_vms=8)
    fired = []
    scheme.set_cache_observer(lambda switch_id: lambda: fired.append(switch_id))
    switch = next(s for s in network.fabric.switches
                  if s.switch_id in scheme.caches)
    hooks = {s.switch_id: s.hook for s in network.fabric.switches}
    cache = scheme.cache_of(switch)
    cache.insert(5, network.host_of(5).pip)
    assert cache.lookup(5) is not None and cache.stats.insertions == 1
    switch.fail()
    assert scheme.cache_of(switch) is cache and cache.occupancy() == 0
    assert all(value == 0 for value in
               (getattr(cache.stats, name) for name in cache.stats.__slots__))
    switch.recover()
    assert scheme.cache_of(switch) is cache and cache.occupancy() == 0
    assert all(s.hook is hooks[s.switch_id] for s in network.fabric.switches)
    # The hook bound at set-up still serves from the cache, whose
    # observer is still attached.
    fired.clear()
    pip = network.host_of(6).pip
    cache.insert(6, pip)
    assert fired == [switch.switch_id]
    packet = data(network, 0, 6, resolved=False)
    assert switch.hook(packet, None) is True
    assert packet.resolved and packet.outer_dst == pip
    assert packet.hit_switch == switch.switch_id


def test_a_hook_assigned_after_setup_is_what_runs():
    calls = []

    def recorder(packet, ingress):
        calls.append(packet.dst_vip)
        return False

    network = small_network(SwitchV2P(total_cache_slots=200), num_vms=8)
    switch = network.fabric.tor_of(0, 0)
    switch.hook = recorder
    before = switch.stats.packets
    deliver(network, switch, data(network, 0, 5))
    assert calls == [5] and switch.stats.packets == before + 1
    assert network.engine.pending_events == 0  # consumed: nothing was forwarded
