"""Switch failures: opportunistic caching vs the in-switch DHT.

The paper's §2.4 explains why SwitchV2P caches rather than storing the
V2P database in switch memory: a cache lost to a switch failure costs
only performance (misses fall back to the gateway), while a DHT shard
lost with its resolver black-holes part of the address space.

This example warms both designs, fails a spine switch, and shows
SwitchV2P delivering everything while the DHT stalls whenever the
failed switch was a resolver.

Run:  python examples/failure_resilience.py
"""

from repro import (
    DhtStore,
    FatTreeSpec,
    FlowSpec,
    NetworkConfig,
    SwitchV2P,
    TrafficPlayer,
    VirtualNetwork,
    usec,
)

NUM_VMS = 128


def run(scheme, fail_switch_picker):
    network = VirtualNetwork(NetworkConfig(spec=FatTreeSpec(), seed=11), scheme)
    network.place_vms(NUM_VMS)
    player = TrafficPlayer(network)

    # Warm up: a few flows to destination 40.
    player.add_flows([FlowSpec(src_vip=i, dst_vip=40, size_bytes=4_000,
                               start_ns=i * usec(100)) for i in range(4)])
    network.engine.run(until=usec(2_000))
    flows = network.collector.flows.values()
    warm_complete = sum(1 for f in flows if f.completed)

    # Fail a switch, then keep sending to the same destination.
    victim = fail_switch_picker(network, scheme)
    victim.fail()
    player.add_flows([FlowSpec(src_vip=10 + i, dst_vip=40, size_bytes=4_000,
                               start_ns=network.engine.now + i * usec(100))
                      for i in range(4)])
    network.run(until=network.engine.now + 20_000_000)
    total_complete = sum(1 for f in flows if f.completed)
    return victim, warm_complete, total_complete, len(flows)


def pick_any_spine(network, scheme):
    return network.fabric.spines[(0, 1)]


def pick_resolver(network, scheme):
    return scheme.resolver_of(40)


def main() -> None:
    for name, scheme, picker in (
        ("SwitchV2P", SwitchV2P(total_cache_slots=1024), pick_any_spine),
        ("DhtStore", DhtStore(), pick_resolver),
    ):
        victim, warm, total, flows = run(scheme, picker)
        print(f"--- {name} ---")
        print(f"  failed switch:          {victim.name}")
        print(f"  flows before failure:   {warm}/4 complete")
        print(f"  flows overall:          {total}/{flows} complete")
        if total < flows:
            print("  -> the DHT black-holes VIPs whose resolver died "
                  "(the paper's reason for caching instead)")
        else:
            print("  -> opportunistic caching: the failure cost only "
                  "cache state, not reachability")
        print()


if __name__ == "__main__":
    main()
