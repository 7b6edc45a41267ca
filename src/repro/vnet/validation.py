"""Network invariant checks.

A virtual network accumulates cross-referenced state — the mapping
database (the one record of where each VM runs), the transport
endpoints keyed by VIP, per-ToR host ports, fabric wiring.
``validate_network`` audits all of it and returns human-readable
descriptions of any inconsistencies; tests and long experiments run it
to catch state-corruption bugs early.

``check_invariants`` is the degraded-network-aware superset: it accepts
failed switches, downed links and crashed gateways as legitimate states
(a mid-outage network is *supposed* to look like that) and instead
audits that the failure bookkeeping itself is consistent — fault
counters match the visible failures, a failed switch really lost its
cache SRAM, the hypervisors' live-gateway pool is a well-formed subset.
The chaos oracles sweep it after every fault event.
"""

from __future__ import annotations

from repro.net.addresses import pip_pod, pip_rack
from repro.net.node import Layer
from repro.vnet.network import VirtualNetwork


def validate_network(network: VirtualNetwork) -> list[str]:
    """Audit cross-referenced network state; returns found issues."""
    issues: list[str] = []
    issues.extend(_check_placement(network))
    issues.extend(_check_attachments(network))
    issues.extend(_check_wiring(network))
    issues.extend(_check_gateways(network))
    return issues


def check_invariants(network: VirtualNetwork) -> list[str]:
    """``validate_network`` plus failure-state consistency.

    Safe to run on a degraded network: failed switches, downed links
    and crashed gateways are tolerated, but their *bookkeeping* must be
    coherent — see :func:`_check_fault_state`.
    """
    issues = validate_network(network)
    issues.extend(_check_fault_state(network))
    return issues


def assert_valid(network: VirtualNetwork) -> None:
    """Raise :class:`AssertionError` listing any invariant violations."""
    issues = check_invariants(network)
    if issues:
        raise AssertionError("network invariants violated:\n  "
                             + "\n  ".join(issues))


def _check_placement(network: VirtualNetwork) -> list[str]:
    issues = []
    servers = set(network.config.spec.server_pips())
    for vip, pip in network.database.items():
        if pip not in servers:
            issues.append(f"vip {vip} maps to unknown pip {pip}")
    for vip in network.endpoints:
        if vip not in network.database:
            issues.append(f"an endpoint is registered for vip {vip}, which "
                          "the database does not map")
    return issues


def _check_attachments(network: VirtualNetwork) -> list[str]:
    """Each server made so far hangs off its ToR both ways."""
    issues = []
    for host in network.host_by_pip.values():
        pod, rack = pip_pod(host.pip), pip_rack(host.pip)
        tor = network.fabric.tors.get((pod, rack))
        if tor is None:
            issues.append(f"{host.name} pip names missing ToR ({pod},{rack})")
            continue
        link = tor.host_links.get(host.pip)
        if link is None or link.dst is not host:
            issues.append(f"{host.name} has no consistent downlink at its ToR")
        if host.uplink is None or host.uplink.dst is not tor:
            issues.append(f"{host.name} uplink does not reach its ToR")
    return issues


def _check_wiring(network: VirtualNetwork) -> list[str]:
    """Port tables have the spec's lengths, and every link made so far
    leaves its switch and reaches the switch its port names."""
    issues = []
    fabric = network.fabric
    spec = network.config.spec
    lengths = {Layer.TOR: (spec.spines_per_pod, 0, 0),
               Layer.SPINE: (fabric.group_size, spec.racks_per_pod, 0),
               Layer.CORE: (0, 0, spec.pods)}
    for switch in fabric.switches:
        for name, length in zip(("up_links", "down_links", "pod_links"),
                                lengths[switch.layer]):
            links = getattr(switch, name)
            if len(links) != length:
                issues.append(f"{switch.name} has {len(links)} {name}, "
                              f"expected {length}")
                continue
            for index, link in enumerate(links):
                if link is None:
                    continue
                peer = fabric.peer(switch, links, index)
                if link.src is not switch or link.dst is not peer:
                    issues.append(f"{switch.name} {name}[{index}] reaches "
                                  f"{link.dst.name}, not {peer.name}")
    return issues


def _check_fault_state(network: VirtualNetwork) -> list[str]:
    """Failure bookkeeping is consistent with the visible failures."""
    issues = []
    fabric = network.fabric
    failed_switches = [sw for sw in fabric.switches if sw.failed]
    down_links = sum(1 for link in fabric.links() if not link.up)
    expected = len(failed_switches) + down_links
    if fabric.fault_count != expected:
        issues.append(
            f"fabric.fault_count is {fabric.fault_count} but "
            f"{len(failed_switches)} failed switch(es) + {down_links} down "
            f"link(s) = {expected} faults are visible")
    # A failed switch lost power: its cache SRAM must be empty until the
    # scheme repopulates it after recovery.
    for switch in failed_switches:
        cache = network.scheme.cache_of(switch)
        if cache is not None and cache.occupancy() != 0:
            issues.append(
                f"{switch.name} is failed but its cache still holds "
                f"{cache.occupancy()} entries (SRAM must not survive "
                "power loss)")
    # The hypervisors' live pool is a well-formed view of the fleet: a
    # subset of the attached gateways, no duplicates.  (It may lag the
    # truth — failure detection takes probes — so crashed-but-listed and
    # recovered-but-delisted gateways are legitimate.)
    live = network.live_gateways
    if len(live) != len(set(id(gw) for gw in live)):
        issues.append("live-gateway pool lists a gateway twice")
    fleet = set(id(gw) for gw in network.gateways)
    for gateway in live:
        if id(gateway) not in fleet:
            issues.append(f"live-gateway pool lists unattached "
                          f"{gateway.name}")
    return issues


def _check_gateways(network: VirtualNetwork) -> list[str]:
    issues = []
    if not network.gateways:
        issues.append("no gateways attached")
    seen = set()
    for gateway in network.gateways:
        if gateway.pip in seen:
            issues.append(f"duplicate gateway pip {gateway.pip}")
        seen.add(gateway.pip)
        if gateway.uplink is None:
            issues.append(f"{gateway.name} has no uplink")
        if gateway.pip in network.host_by_pip:
            issues.append(f"{gateway.name} pip collides with a server")
    return issues
