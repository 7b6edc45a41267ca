"""Hadoop workload (Facebook data-center trace; paper §5 "Datasets").

Short flows with high cross-flow destination reuse: at full scale the
paper draws ~100K flows over 10,240 VMs at 30% network load, so nearly
every VM recurs as a destination — the property SwitchV2P's in-network
sharing exploits most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.base import draw_pairs
from repro.traces.distributions import (
    HADOOP_CDF,
    load_to_arrival_rate,
    mean_size,
    poisson_arrival_times,
    sample_sizes,
)
from repro.transport.flow import FlowSpec


@dataclass(frozen=True)
class HadoopTraceParams:
    """Parameters for the Hadoop trace generator.

    Defaults are benchmark scale; the paper-scale settings are
    ``num_vms=10240, num_flows=99297, num_servers=128``.
    """

    num_vms: int = 1024
    num_flows: int = 4000
    num_servers: int = 128
    link_bps: float = 100e9
    load: float = 0.30
    start_offset_ns: int = 0

    def __post_init__(self) -> None:
        if self.num_flows < 0:
            raise ValueError("flow count cannot be negative")


def generate(params: HadoopTraceParams, rng: np.random.Generator) -> list[FlowSpec]:
    """Generate the Hadoop flow list."""
    sizes = sample_sizes(HADOOP_CDF, params.num_flows, rng)
    rate = load_to_arrival_rate(params.load, params.num_servers, params.link_bps,
                                mean_size(HADOOP_CDF))
    starts = poisson_arrival_times(rate, params.num_flows, rng)
    sources, destinations = draw_pairs(params.num_vms, params.num_flows, rng)
    offset = params.start_offset_ns
    return [
        FlowSpec(src_vip=src, dst_vip=dst, size_bytes=size, start_ns=offset + start)
        for src, dst, size, start in zip(sources.tolist(), destinations.tolist(),
                                         sizes.tolist(), starts.tolist())
    ]
