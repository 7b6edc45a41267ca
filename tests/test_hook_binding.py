"""Each switch runs one hook, bound at set-up: the ways that can go stale.

A hook closes over its switch's cache, role and config flags, so every
control-plane path that replaces one of those has to have the hook
follow — and only there: a fault on one switch rebinds one hook.
"""

import pytest

from repro.baselines import Direct, GwCache, LocalLearning, NoCache, OnDemand
from repro.cache import SwitchCache
from repro.core import Role, SwitchV2P
from repro.net.packet import Packet, PacketKind
from repro.net.topology import FatTreeSpec

from conftest import small_network


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


@pytest.mark.parametrize("scheme_class", [NoCache, Direct, OnDemand])
def test_schemes_without_switch_state_bind_no_hook(scheme_class):
    network = small_network(scheme_class(), num_vms=8)
    assert all(switch.hook is None for switch in network.fabric.switches)


def test_gwcache_hooks_only_the_switches_it_gave_a_cache():
    scheme = GwCache(total_cache_slots=64)
    network = small_network(scheme, num_vms=8, spec=FatTreeSpec())
    hooked = {s.switch_id for s in network.fabric.switches
              if s.hook is not None}
    assert hooked == set(scheme.caches) and len(hooked) == 4
    assert len(network.fabric.switches) == 80


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


def test_fault_rebuild_rebinds_that_switch_and_no_other():
    scheme = SwitchV2P(total_cache_slots=200)
    network = small_network(scheme, num_vms=8)
    spine = spine_of(network, scheme)
    hooks = {s.switch_id: s.hook for s in network.fabric.switches}
    spine.hook(data(network, 0, 5), None)
    stale = scheme.caches[spine.switch_id]
    spine.fail()
    spine.recover()
    fresh = scheme.caches[spine.switch_id]
    assert fresh is not stale and fresh.occupancy() == 0
    changed = {s.switch_id for s in network.fabric.switches
               if s.hook is not hooks[s.switch_id]}
    assert changed == {spine.switch_id}
    spine.hook(data(network, 0, 6), None)
    assert fresh.peek(6) == network.host_of(6).pip and stale.peek(6) is None


def test_replacing_one_cache_entry_rebinds_its_switch():
    for scheme in (SwitchV2P(total_cache_slots=200),
                   LocalLearning(total_cache_slots=200)):
        network = small_network(scheme, num_vms=8)
        switch = network.fabric.spines[(0, 0)]
        replacement = SwitchCache(4, salt=7)
        scheme.caches[switch.switch_id] = replacement
        switch.hook(data(network, 0, 5), None)
        assert replacement.peek(5) == network.host_of(5).pip


def test_handler_assigned_after_setup_is_what_runs():
    calls = []

    class Recorder:
        def on_switch(self, switch, packet, ingress):
            calls.append(switch.switch_id)
            return False

    network = small_network(SwitchV2P(total_cache_slots=200), num_vms=8)
    switch = network.fabric.tor_of(0, 0)
    switch.handler = Recorder()
    before = switch.stats.packets
    switch.receive(data(network, 0, 5))
    assert calls == [switch.switch_id] and switch.stats.packets == before + 1
    assert not network.engine._queue  # consumed: nothing was forwarded
