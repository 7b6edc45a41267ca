"""SwitchV2P reproduction: in-network address caching for virtual networks.

A full Python reproduction of *In-Network Address Caching for Virtual
Networks* (ACM SIGCOMM 2024): a packet-level data center simulator, the
SwitchV2P topology-aware in-switch caching protocol, the paper's seven
baselines, its five workload generators, and a benchmark harness that
regenerates every table and figure of the evaluation.

Quickstart::

    from repro import (FatTreeSpec, NetworkConfig, SwitchV2P,
                       VirtualNetwork, TrafficPlayer, FlowSpec)

    config = NetworkConfig(spec=FatTreeSpec())
    scheme = SwitchV2P(total_cache_slots=5000)
    network = VirtualNetwork(config, scheme)
    network.place_vms(1024)
    player = TrafficPlayer(network)
    player.add_flows([FlowSpec(src_vip=1, dst_vip=2, size_bytes=20_000,
                               start_ns=0)])
    player.run()
    print(network.collector.hit_rate, network.collector.average_fct_ns())
"""

from repro.baselines import (
    Bluebird,
    Controller,
    DhtStore,
    Direct,
    GwCache,
    LocalLearning,
    NoCache,
    OnDemand,
    TranslationScheme,
)
from repro.cache import SwitchCache, aggregate_slots, per_switch_slots
from repro.core import (
    CORE_HEAVY,
    EDGE_HEAVY,
    TOR_ONLY,
    UNIFORM,
    AllocationPolicy,
    Role,
    SwitchV2P,
    SwitchV2PConfig,
)
from repro.metrics import Collector, FlowRecord
from repro.net import Fabric, FatTreeSpec, Layer, Packet, PacketKind
from repro.sim import Engine, RandomStreams, msec, usec
from repro.transport import FlowSpec, TrafficPlayer, TransportConfig
from repro.vnet import Gateway, Host, MappingDatabase, NetworkConfig, VirtualNetwork

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "RandomStreams",
    "usec",
    "msec",
    "Packet",
    "PacketKind",
    "Layer",
    "Fabric",
    "FatTreeSpec",
    "SwitchCache",
    "aggregate_slots",
    "per_switch_slots",
    "MappingDatabase",
    "Gateway",
    "Host",
    "NetworkConfig",
    "VirtualNetwork",
    "TranslationScheme",
    "NoCache",
    "Direct",
    "OnDemand",
    "GwCache",
    "LocalLearning",
    "Bluebird",
    "SwitchV2P",
    "SwitchV2PConfig",
    "Role",
    "Controller",
    "DhtStore",
    "AllocationPolicy",
    "UNIFORM",
    "TOR_ONLY",
    "EDGE_HEAVY",
    "CORE_HEAVY",
    "FlowSpec",
    "TrafficPlayer",
    "TransportConfig",
    "Collector",
    "FlowRecord",
    "__version__",
]
