"""Shared fixtures: small topologies and networks that build fast."""

from __future__ import annotations

import os

import pytest

# Keep the suite hermetic: unless a test (or the invoking environment)
# explicitly opts in, no test may read or write the user's on-disk run
# cache — a stale entry there could mask a real behavioural regression.
# Tests of the cache itself monkeypatch REPRO_RUNCACHE/-_DIR or pass
# explicit RunCache instances rooted in tmp_path.
os.environ.setdefault("REPRO_RUNCACHE", "0")

from repro.net.packet import Packet
from repro.net.topology import FatTreeSpec
from repro.perf import PhaseTimer
from repro.vnet.hypervisor import Host
from repro.vnet.network import NetworkConfig, VirtualNetwork


def tiny_spec(**overrides) -> FatTreeSpec:
    """A 2-pod fabric small enough for microscopic protocol tests.

    2 pods x 2 racks x 2 servers, 2 spines/pod, 2 cores, gateways in
    pod 1 — 10 switches total.
    """
    params = dict(
        pods=2,
        racks_per_pod=2,
        servers_per_rack=2,
        spines_per_pod=2,
        num_cores=2,
        gateway_pods=(1,),
        gateways_per_pod=1,
    )
    params.update(overrides)
    return FatTreeSpec(**params)


def ft32_spec() -> FatTreeSpec:
    """The k=32-class fabric the scale benchmarks run on."""
    return FatTreeSpec(pods=32, racks_per_pod=16, servers_per_rack=16,
                       spines_per_pod=16, num_cores=256,
                       gateway_pods=tuple(range(0, 32, 2)),
                       gateways_per_pod=4)


def cable_ends(fabric) -> list[tuple]:
    """The two switches of each cable ``cable_targets`` lists, in its order."""
    from repro.faults.fuzz import cable_targets

    def find(locator):
        layer, *where = locator
        if layer == "core":
            return fabric.cores[where[0]]
        return (fabric.tors if layer == "tor" else fabric.spines)[tuple(where)]
    return [(find(a), find(b)) for a, b in cable_targets(fabric.spec)]


def cable_fully(fabric) -> None:
    """Make both links of every cable now, through ``link_between``."""
    for a, b in cable_ends(fabric):
        fabric.link_between(a, b)
        fabric.link_between(b, a)


def small_network(scheme, num_vms: int = 8, seed: int = 0,
                  spec: FatTreeSpec | None = None) -> VirtualNetwork:
    """A tiny network with VMs placed, ready for traffic."""
    network = VirtualNetwork(
        NetworkConfig(spec=spec if spec is not None else tiny_spec(), seed=seed),
        scheme)
    network.place_vms(num_vms)
    return network


def vip_on(network: VirtualNetwork, host) -> int:
    """The lowest VIP the database places on ``host``."""
    return min(vip for vip, pip in network.database.items() if pip == host.pip)


def deliver(network: VirtualNetwork, switch, packet: Packet) -> None:
    """Hand ``packet`` to ``switch`` over a link from a neighbouring
    switch, made now, and run just that delivery: a switch's traffic
    counts are read off the links into it."""
    fabric = network.fabric
    peer = fabric.peer(switch, switch.up_links or switch.pod_links, 0)
    assert fabric.link_between(peer, switch).transmit(packet)
    network.engine.run(max_events=1)


class CountingTimer(PhaseTimer):
    """A PhaseTimer that also lists each ``add`` it receives: the sweep
    orchestrator reports one ``"jobs"`` entry per simulation it ran."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        super().__init__()
        self.entries: list[str] = []

    def add(self, name: str, elapsed_ns: int) -> None:
        super().add(name, elapsed_ns)
        self.entries.append(name)


class LoopbackHost(Host):
    """A host whose sends are captured instead of transmitted."""

    def __init__(self, engine):
        super().__init__("loop", engine, [], {})
        self.pip = 42
        self.sent: list[Packet] = []

    def send(self, packet):
        self.sent.append(packet)


@pytest.fixture
def spec() -> FatTreeSpec:
    return tiny_spec()
