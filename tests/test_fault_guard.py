"""``Switch.receive`` has a fault-free body and a guarded one; a flag
picks between them, and the choice changes nothing.

The fault-free body tests no failed switch, route path, slowdown, down
link or loss, and routes up by the ECMP hash; the fabric sets every
switch's ``_guarded`` flag while a fault, a gray fault or routed data
is live (``Fabric.guard``).  Three differentials hold it to the guarded
body, which is the one every switch ran before the split:

* (a) the seed-1 ``repro chaos`` trials, plain and gray, give the same
  ``RunResult``, oracle verdicts, fault log and per-switch and per-link
  counters with the automatic guard as with the guard on everywhere
  from the start;
* (b) so do runs in which a switch fails, a link is cut, a link turns
  lossy or a switch slows while packets toward it are on the calendar
  — deliveries scheduled before the guard came on;
* (c) on FT8 and on a four-pod fabric with the k=32 spine and core
  fan-out, the fault-free body's egress for every (switch, destination
  PIP, flow) is the link ``next_hop`` picks with a fresh memo.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.baselines import NoCache
from repro.experiments import runner
from repro.experiments.chaosfuzz import ChaosFuzzParams, gray_chaos_params, run_chaos_fuzz
from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.faults import FaultSchedule
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Fabric, FatTreeSpec
from repro.sim.engine import usec
from repro.traces.spec import TraceSpec

from conftest import small_network


def force_guard(network):
    """Every switch on the guarded body for the whole run, as a scheme
    whose data packets carry a ``route_path`` puts them."""
    network.fabric.routed_data = True
    network.fabric.guard()


def counters(network):
    """Every switch's and every made link's traffic counters."""
    fabric = network.fabric
    return ([(s.stats.packets, s.stats.bytes, s.stats.drops)
             for s in fabric.switches],
            [(link.src.name, link.dst.name, link.packets, link.bytes,
              link.drops, link.lost) for link in fabric.links()])


# ----------------------------------------------------------------------
# (a) the chaos trials
# ----------------------------------------------------------------------
def _chaos(monkeypatch, params, forced):
    """Run the seed-1 trials; return what each trial left behind and
    every value the guard was set to."""
    schedules = []
    guards = set()
    build = runner.build_scenario
    apply = FaultSchedule.apply
    guard = Fabric.guard

    def recording_guard(self):
        guard(self)
        guards.add(self.switches[0]._guarded)

    def recording_build(*args, **kwargs):
        network = build(*args, **kwargs)
        if forced:
            force_guard(network)
        return network

    def recording_apply(self, network):
        apply(self, network)
        schedules.append(self)

    runs = []

    def recording_run(network, *args, **kwargs):
        runs.append((network, run_flows(network, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(runner, "build_scenario", recording_build)
    monkeypatch.setattr(runner, "run_flows", recording_run)
    monkeypatch.setattr(FaultSchedule, "apply", recording_apply)
    monkeypatch.setattr(Fabric, "guard", recording_guard)
    result = run_chaos_fuzz(10, 1, params=params, shrink=False)
    # Every trial fuzzes at least one event, so each applies a schedule.
    assert len(schedules) == len(runs) == len(result.outcomes) == 20
    return ([dataclasses.asdict(outcome) for outcome in result.outcomes],
            [(dataclasses.asdict(run), schedule.fired, counters(network))
             for schedule, (network, run) in zip(schedules, runs)],
            guards)


@pytest.mark.parametrize("params", [ChaosFuzzParams(), gray_chaos_params()],
                         ids=["chaos", "chaos-gray"])
def test_chaos_trials_equal_with_the_guard_forced_on(monkeypatch, params):
    outcomes, runs, guards = _chaos(monkeypatch, params, forced=False)
    # The automatic guard came on and cleared again, or the comparison
    # would show nothing.
    assert guards == {True, False}
    forced_outcomes, forced_runs, forced_guards = _chaos(monkeypatch, params,
                                                         forced=True)
    assert forced_guards == {True}
    assert outcomes == forced_outcomes
    assert runs == forced_runs


# ----------------------------------------------------------------------
# (b) a fault landing on packets already in flight
# ----------------------------------------------------------------------
def _uplink(fabric):
    return fabric.link_between(fabric.tors[(0, 0)], fabric.spines[(0, 0)])


#: What lands on spine 0 of the first gateway pod, or on a ToR's link to it.
FAULTS = {
    "switch fails": lambda network: network.fabric.spines[(0, 0)].fail(),
    "link cut": lambda network: network.fabric.set_link_state(
        _uplink(network.fabric), False),
    "link lossy": lambda network: network.fabric.impair_links(
        [_uplink(network.fabric)], 0.5, network.streams.stream("fault-link-loss")),
    "switch slowed": lambda network: network.fabric.spines[(0, 0)].set_slowdown(usec(5)),
}


def _run_with_fault(fault, forced):
    """Hadoop flows on FT8 under SwitchV2P.  From the median flow start
    on, the first moment a delivery to the spine is on the calendar,
    ``fault`` lands; returns the run, its counters, how many deliveries
    to the spine were pending then and what the spine saw after."""
    flows = TraceSpec.create("hadoop", 6, num_vms=128, num_flows=300,
                             load=0.05).materialize()
    network = build_network(FatTreeSpec(), make_scheme("SwitchV2P", 128, 4.0),
                            128, seed=1)
    if forced:
        force_guard(network)
    engine = network.engine
    spine = network.fabric.spines[(0, 0)]
    landed = []

    def land():
        # Deliveries on the calendar hold the spine's bound receive,
        # taken before the guard came on.
        pending = sum(1 for _at, callback, _args in engine.iter_pending()
                      if getattr(callback, "__self__", None) is spine)
        if not pending:
            engine.schedule_after(100, land)
            return
        fault(network)
        assert all(switch._guarded for switch in network.fabric.switches)
        landed.append((pending, spine.stats.packets + spine.stats.drops))

    starts = sorted(flow.start_ns for flow in flows)
    engine.schedule(starts[len(starts) // 2], land)
    result = run_flows(network, flows)
    (pending, seen), = landed
    return (dataclasses.asdict(result), counters(network),
            (pending, spine.stats.packets + spine.stats.drops - seen))


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_on_packets_in_flight_equals_the_guard_forced_on(fault):
    auto = _run_with_fault(FAULTS[fault], forced=False)
    forced = _run_with_fault(FAULTS[fault], forced=True)
    pending, after = auto[2]
    assert pending > 0 and after > 0
    assert auto == forced


def test_the_guard_clears_when_the_last_fault_heals():
    network = small_network(NoCache(), num_vms=8)
    fabric = network.fabric
    switches = fabric.switches
    tor, spine = fabric.tors[(0, 0)], fabric.spines[(0, 0)]
    link = fabric.link_between(tor, spine)
    assert not any(switch._guarded for switch in switches)
    spine.fail()
    link.set_loss(0.1, random.Random(0))
    tor.set_slowdown(usec(1))
    tor.set_slowdown(usec(2))  # a second slowdown is no second gray fault
    assert fabric.gray_count == 2 and all(switch._guarded for switch in switches)
    spine.recover()
    link.set_loss(0.0, None)
    assert all(switch._guarded for switch in switches)
    tor.set_slowdown(0)
    assert fabric.gray_count == 0
    assert not any(switch._guarded for switch in switches)


# ----------------------------------------------------------------------
# (c) the fault-free body routes as next_hop does
# ----------------------------------------------------------------------
FLOWS = (1, 3, 1 << 20, 0x5bd1e995)


def _packet(dst, flow_id):
    return Packet(PacketKind.DATA, flow_id=flow_id, seq=0, payload_bytes=64,
                  src_vip=0, dst_vip=1, outer_src=0, outer_dst=dst)


def _egress(switch, dst, flow_id):
    """The link the fault-free ``receive`` puts a packet on."""
    engine = switch.fabric.engine
    engine.discard_events()
    packet = _packet(dst, flow_id)
    switch.receive(packet)
    (_, _, (sent, link)), = engine.iter_pending()
    assert sent is packet
    return link


def _reference(switch, dst, flow_id):
    switch._route_memo.clear()
    return switch.next_hop(_packet(dst, flow_id))


FT32_SHAPED = FatTreeSpec(pods=4, racks_per_pod=16, servers_per_rack=1,
                          spines_per_pod=16, num_cores=256, gateway_pods=(0, 2),
                          gateways_per_pod=2)


@pytest.mark.parametrize("spec", [FatTreeSpec(), FT32_SHAPED], ids=["FT8", "FT32-shaped"])
def test_the_fault_free_body_routes_as_next_hop(spec):
    network = small_network(NoCache(), num_vms=8, spec=spec)
    destinations = [*spec.server_pips(), *(gw.pip for gw in network.gateways)]
    for switch in network.fabric.switches:
        assert not switch._guarded
        for dst in destinations:
            for flow_id in FLOWS:
                cold = _egress(switch, dst, flow_id)
                warm = _egress(switch, dst, flow_id)
                assert cold is warm is _reference(switch, dst, flow_id), \
                    (switch.name, hex(dst), flow_id)
