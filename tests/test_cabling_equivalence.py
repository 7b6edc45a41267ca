"""A network that makes its switch-to-switch links and its servers on
first use against one whose every cable, and one whose every server, is
made before the run.

A port nobody has asked for stands for an idle link that is up,
lossless and at base latency, and a server nobody has asked for for an
idle, healthy server, so making every link or every server up front
must change nothing a run reports.  The fully cabled side makes each
link through ``Fabric.link_between`` over ``cable_targets(spec)`` and
checks that it carries the cable's line rate, propagation delay and
buffer; the other side reads ``VirtualNetwork.hosts`` as soon as a
network is built.  Then three runs must come out equal on all three
sides:

* an FT8 Hadoop run with SwitchV2P (``hadoop-v2p`` of ``python -m bench
  --quick``): every ``RunResult`` field ``bench/expected.json`` pins, and
  the per-layer counts the benchmark reads off the network;
* one ``repro chaos`` fuzz trial whose schedule draws link faults: the
  oracle verdicts and the ``RunResult``;
* a short k=32 hybrid run (``k32-scale`` at the quick scale).

On the on-demand side, a built network holds its gateways' cables only,
and a fault-free run makes exactly the servers its flows' endpoints run
on and the switch-to-switch links some packet was offered to.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench.__main__ import QUICK_SCALE
from bench.layers import network_counts
from bench.workloads import WORKLOADS
from repro.experiments import chaosfuzz, runner
from repro.experiments.runner import run_flows
from repro.experiments.scenario import chaos_spec
from repro.faults.fuzz import cable_targets, generate_schedule
from repro.net.node import Switch
from repro.net.topology import Fabric
from repro.sim.randomness import derive_seed
from repro.vnet.network import VirtualNetwork

from conftest import cable_fully

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def _cable_at_build(monkeypatch) -> None:
    """Make every fabric built from here on fully cabled."""
    build = Fabric._build

    def build_and_cable(fabric):
        build(fabric)
        cable_fully(fabric)
        spec = fabric.spec
        made = [(link.rate_bps, link.propagation_ns, link.buffer_bytes)
                for link in fabric.links()]
        assert len(made) == 2 * len(cable_targets(spec))
        assert set(made) == {(spec.fabric_link_bps, spec.propagation_ns,
                              spec.buffer_bytes)}

    monkeypatch.setattr(Fabric, "_build", build_and_cable)


def _make_every_server_at_build(monkeypatch) -> None:
    """Make every network built from here on make all its servers as
    soon as it is built."""
    init = VirtualNetwork.__init__

    def init_and_make(network, *args, **kwargs):
        init(network, *args, **kwargs)
        assert len(network.hosts) == network.config.spec.num_servers

    monkeypatch.setattr(VirtualNetwork, "__init__", init_and_make)


def _sides(monkeypatch, run):
    """``run()`` on demand, fully cabled, and with every server made."""
    on_demand = run()
    with monkeypatch.context() as patch:
        _cable_at_build(patch)
        cabled = run()
    with monkeypatch.context() as patch:
        _make_every_server_at_build(patch)
        servers = run()
    return on_demand, cabled, servers


def _quick(name):
    """One quick-scale bench run: its result, the network's counts, and
    the packets its endpoints held no flow for and the late ACKs of
    completed flows whose senders were forgotten."""
    workload = WORKLOADS[name](QUICK_SCALE, None)
    flows = workload.flows(1)
    network = workload.build(1)
    (result,) = workload.run(network, flows, 1, None, 0)
    collector = network.collector
    return (result, network_counts(network),
            (collector.unclaimed_packets, collector.late_acks))


def test_ft8_hadoop_run_equals_the_fully_cabled_run(monkeypatch):
    sides = _sides(monkeypatch, lambda: _quick("hadoop-v2p"))
    pinned = json.loads(EXPECTED.read_text())["quick"]["hadoop-v2p"]
    (result, counts, (unclaimed, late_acks)), *others = sides
    for other, other_counts, _ in others:
        assert {field: getattr(result, field) for field in pinned} == \
            {field: getattr(other, field) for field in pinned}
        assert counts == other_counts
    assert unclaimed == 0
    # One ACK is overtaken by its flow's final ACK (97 at full scale).
    assert late_acks == 1


def _link_fault_trial():
    """The first trial of ``repro chaos`` (seed 1) whose schedule
    draws a link fault: its seed, events and parameters."""
    params = chaosfuzz.ChaosFuzzParams()
    for trial in range(20):
        trial_seed = derive_seed(1, f"chaos-trial-{trial}")
        events = generate_schedule(chaos_spec(), params.num_vms, params.fuzz,
                                   seed=trial_seed).events
        if any(event.target[0] == "link" for event in events):
            return trial_seed, list(events), params
    raise AssertionError("no trial of the first 20 draws a link fault")


def test_chaos_fuzz_trial_with_link_faults_equals_the_fully_cabled_one(monkeypatch):
    trial_seed, events, params = _link_fault_trial()
    results = []

    def recording_run(*args, **kwargs):
        results.append(run_flows(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(runner, "run_flows", recording_run)

    def trial():
        return chaosfuzz.run_one_trial("SwitchV2P", events, params, trial_seed)

    on_demand, cabled, servers = _sides(monkeypatch, trial)
    assert on_demand == cabled == servers
    assert results[0] == results[1] == results[2]
    assert results[0].packets_sent > 0


def test_k32_hybrid_run_equals_the_fully_cabled_run(monkeypatch):
    (result, counts, _), *others = _sides(monkeypatch, lambda: _quick("k32-scale"))
    for other, other_counts, _ in others:
        assert result == other
        assert counts == other_counts
    assert result.fluid_rounds > 0


@pytest.mark.parametrize("name", ["hadoop-v2p", "k32-scale"])
def test_a_fault_free_run_makes_only_the_links_it_crosses(name):
    """The on-demand side: a fresh network holds its gateways' cables
    only (k=32: 64 gateways, 128 links, no server); after a run without
    faults the servers made are those the flows' endpoints run on, and
    every switch-to-switch link made is one some packet was offered to."""
    workload = WORKLOADS[name](QUICK_SCALE, None)
    network = workload.build(1)
    fabric = network.fabric
    assert network.host_by_pip == {}
    assert len(list(fabric.links())) == 2 * len(network.gateways)
    if name == "k32-scale":
        assert len(network.gateways) == 64 and len(network.database) == 100_000
    flows = workload.flows(1)
    workload.run(network, flows, 1, None, 0)
    endpoints = {network.database.lookup(vip)
                 for flow in flows for vip in (flow.src_vip, flow.dst_vip)}
    assert set(network.host_by_pip) == endpoints
    made = [link for link in fabric.links()
            if isinstance(link.src, Switch) and isinstance(link.dst, Switch)]
    assert made
    assert all(link.packets or link.drops for link in made)
