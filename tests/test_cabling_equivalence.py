"""A fabric that makes its switch-to-switch links on first use against
one whose every cable is made before the run.

A port nobody has asked for stands for an idle link that is up,
lossless and at base latency, so making every link up front must change
nothing a run reports.  The fully cabled side makes each link through
``Fabric.link_between`` over ``cable_targets(spec)`` and checks that it
carries the cable's line rate, propagation delay and buffer; then three
runs must come out equal on both sides:

* an FT8 Hadoop run with SwitchV2P (``hadoop-v2p`` of ``python -m bench
  --quick``): every ``RunResult`` field ``bench/expected.json`` pins, and
  the per-layer counts the benchmark reads off the network;
* one ``repro chaos`` fuzz trial whose schedule draws link faults: the
  oracle verdicts and the ``RunResult``;
* a short k=32 hybrid run (``k32-scale`` at the quick scale).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench.__main__ import QUICK_SCALE
from bench.layers import network_counts
from bench.workloads import WORKLOADS
from repro.experiments import chaosfuzz
from repro.experiments.runner import run_flows
from repro.experiments.scenario import Scenario, chaos_spec
from repro.faults.fuzz import cable_targets, generate_schedule
from repro.net.node import Switch
from repro.net.topology import Fabric
from repro.sim.randomness import derive_seed

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


def _both(monkeypatch, run):
    """``run()`` on demand, then ``run()`` fully cabled."""
    on_demand = run()
    _cable_at_build(monkeypatch)
    return on_demand, run()


def _quick(name):
    """One quick-scale bench run: its result, and the network's counts."""
    workload = WORKLOADS[name](QUICK_SCALE, None)
    flows = workload.flows(1)
    network = workload.build(1)
    (result,) = workload.run(network, flows, 1, None, 0)
    return result, network_counts(network)


def test_ft8_hadoop_run_equals_the_fully_cabled_run(monkeypatch):
    (result, counts), (cabled, cabled_counts) = _both(
        monkeypatch, lambda: _quick("hadoop-v2p"))
    pinned = json.loads(EXPECTED.read_text())["quick"]["hadoop-v2p"]
    assert {field: getattr(result, field) for field in pinned} == \
        {field: getattr(cabled, field) for field in pinned}
    assert counts == cabled_counts


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

    def play(scenario, flows, horizon_ns, transport=None):
        results.append(run_flows(scenario.network, list(flows), transport,
                                 horizon_ns))

    monkeypatch.setattr(Scenario, "play", play)

    def trial():
        return chaosfuzz.run_one_trial("SwitchV2P", events, params, trial_seed)

    on_demand, cabled = _both(monkeypatch, trial)
    assert on_demand == cabled
    assert results[0] == results[1]
    assert results[0].packets_sent > 0


def test_k32_hybrid_run_equals_the_fully_cabled_run(monkeypatch):
    (result, counts), (cabled, cabled_counts) = _both(
        monkeypatch, lambda: _quick("k32-scale"))
    assert result == cabled
    assert counts == cabled_counts
    assert result.fluid_rounds > 0


@pytest.mark.parametrize("name", ["hadoop-v2p", "k32-scale"])
def test_a_fault_free_run_makes_only_the_links_it_crosses(name):
    """The on-demand side: a fresh network holds its host and gateway
    cables only, and after a run without faults every switch-to-switch
    link made is one some packet was offered to."""
    workload = WORKLOADS[name](QUICK_SCALE, None)
    network = workload.build(1)
    fabric = network.fabric
    attached = len(network.hosts) + len(network.gateways)
    assert len(list(fabric.links())) == 2 * attached
    workload.run(network, workload.flows(1), 1, None, 0)
    made = [link for link in fabric.links()
            if isinstance(link.src, Switch) and isinstance(link.dst, Switch)]
    assert made
    assert all(link.packets or link.drops for link in made)
