"""Quickstart: run SwitchV2P on a fat-tree and read the core metrics.

Builds the paper's FT8 fabric, places VMs, plays a handful of flows
through SwitchV2P and a NoCache baseline, and prints hit rate, average
FCT, first-packet latency and packet stretch for both.

Run:  python examples/quickstart.py
"""

from repro import (
    FatTreeSpec,
    FlowSpec,
    NetworkConfig,
    NoCache,
    SwitchV2P,
    TrafficPlayer,
    VirtualNetwork,
    usec,
)

NUM_VMS = 256
FLOWS = [
    # Two flows from different senders to the same destination: the
    # second benefits from mappings the first left in the network.
    FlowSpec(src_vip=1, dst_vip=100, size_bytes=20_000, start_ns=0),
    FlowSpec(src_vip=2, dst_vip=100, size_bytes=20_000, start_ns=usec(200)),
    # An RPC: the response exercises source learning at the ToRs.
    FlowSpec(src_vip=3, dst_vip=101, size_bytes=2_000, start_ns=usec(50),
             response_bytes=8_000),
    # Unrelated cross-pod traffic.
    FlowSpec(src_vip=200, dst_vip=17, size_bytes=50_000, start_ns=usec(100)),
]


def run(scheme) -> None:
    network = VirtualNetwork(NetworkConfig(spec=FatTreeSpec(), seed=42), scheme)
    network.place_vms(NUM_VMS)
    player = TrafficPlayer(network)
    player.add_flows(list(FLOWS))
    player.run()

    collector = network.collector
    print(f"--- {scheme.name} ---")
    print(f"  flows completed:      {collector.completion_rate:.0%}")
    print(f"  in-network hit rate:  {collector.hit_rate:.1%}")
    print(f"  avg FCT:              {collector.average_fct_ns() / 1000:.1f} us")
    print(f"  avg first-packet:     "
          f"{collector.average_first_packet_latency_ns() / 1000:.1f} us")
    print(f"  avg packet stretch:   {collector.average_stretch():.1f} switches")
    print(f"  gateway packets:      {collector.gateway_arrivals}")
    print()


def main() -> None:
    # Aggregate cache budget = 8x the address space, split over all 80
    # switches (the paper sweeps 1% ... 1500x; see benchmarks/).
    run(SwitchV2P(total_cache_slots=8 * NUM_VMS))
    run(NoCache())


if __name__ == "__main__":
    main()
