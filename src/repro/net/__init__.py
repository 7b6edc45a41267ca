"""Physical network substrate: addresses, packets, links, switches, fabric."""

from repro.net.addresses import (
    UNRESOLVED,
    format_pip,
    format_vip,
    make_pip,
    pip_host,
    pip_pod,
    pip_rack,
    split_pip,
)
from repro.net.link import Link
from repro.net.node import Layer, Node, Switch, ecmp_index
from repro.net.packet import HEADER_BYTES, MSS_BYTES, Packet, PacketKind
from repro.net.probing import ForwardingLoopError, forwarding_path, path_length
from repro.net.topology import Fabric, FatTreeSpec

__all__ = [
    "UNRESOLVED",
    "make_pip",
    "split_pip",
    "pip_pod",
    "pip_rack",
    "pip_host",
    "format_pip",
    "format_vip",
    "Packet",
    "PacketKind",
    "HEADER_BYTES",
    "MSS_BYTES",
    "Link",
    "Node",
    "Switch",
    "Layer",
    "ecmp_index",
    "Fabric",
    "FatTreeSpec",
    "forwarding_path",
    "path_length",
    "ForwardingLoopError",
]
