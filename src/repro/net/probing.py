"""Forwarding-path probes.

Deterministic ECMP means a packet's path is a pure function of its
headers and the fabric state; these helpers walk ``next_hop`` decisions
without transmitting anything, returning the node sequence a packet
*would* take.  Used by debugging sessions and tests that assert on
routes, not by any scheme.
"""

from __future__ import annotations

from repro.net.addresses import pip_pod, pip_rack
from repro.net.node import Node, Switch
from repro.net.packet import Packet, PacketKind

#: Upper bound on walked hops — fat-tree paths are <= 6 switches, so
#: exceeding this means a forwarding loop.
_MAX_HOPS = 16


class ForwardingLoopError(RuntimeError):
    """Raised when a probe revisits a switch (a routing bug)."""


def forwarding_path(network, src_pip: int, outer_dst: int, flow_id: int,
                    resolved: bool = True) -> list[Node]:
    """The switch/host sequence from ``src_pip``'s ToR to ``outer_dst``.

    Args:
        network: the :class:`~repro.vnet.network.VirtualNetwork`.
        src_pip: the sending server's physical address.
        outer_dst: the packet's outer destination (a host or gateway
            PIP).
        flow_id: drives the ECMP hash, exactly as a real packet would.
        resolved: header state of the probe packet (affects nothing in
            base forwarding, but mirrors real packets).

    Returns:
        Nodes visited, starting at the source ToR and ending at the
        destination node (host/gateway) if reachable; the list ends at
        the last reachable switch when forwarding would drop.

    Raises:
        ForwardingLoopError: if a switch repeats on the path.
    """
    probe = Packet(PacketKind.DATA, flow_id=flow_id, seq=0, payload_bytes=0,
                   src_vip=0, dst_vip=0, outer_src=src_pip,
                   outer_dst=outer_dst)
    probe.resolved = resolved
    tor = network.fabric.tors[(pip_pod(src_pip), pip_rack(src_pip))]
    path: list[Node] = [tor]
    seen = {tor.switch_id}
    node: Node = tor
    for _ in range(_MAX_HOPS):
        if not isinstance(node, Switch):
            break
        link = node.next_hop(probe)
        if link is None:
            break
        node = link.dst
        if isinstance(node, Switch):
            if node.switch_id in seen:
                raise ForwardingLoopError(
                    f"loop at {node.name} for outer_dst={outer_dst}")
            seen.add(node.switch_id)
        path.append(node)
    return path


def path_length(network, src_pip: int, outer_dst: int, flow_id: int) -> int:
    """Number of switches on the forwarding path (packet stretch)."""
    return sum(1 for node in forwarding_path(network, src_pip, outer_dst,
                                             flow_id)
               if isinstance(node, Switch))
