"""A tour of the paper's five workloads through SwitchV2P.

Generates each trace (Hadoop, WebSearch, Alibaba RPC, Microbursts, 8K
Video), reports its destination-reuse characteristics (§5 "Address
reuse characteristics"), runs it through SwitchV2P at a 50%-of-address-
space cache, and shows where in the topology the cache hits landed
(Table 5's story: ToR-heavy for TCP traces, more core/spine for UDP).

Run:  python examples/workload_tour.py
"""

from repro.experiments import FigureScale, build_trace, ft8_spec, ft16_spec
from repro.experiments.runner import build_network, make_scheme, run_flows
from repro.metrics.reporting import render_table
from repro.net.node import Layer
from repro.traces import summarize

TRACES = ("hadoop", "websearch", "alibaba", "microbursts", "video")


def main() -> None:
    scale = FigureScale(num_vms=256, hadoop_flows=2000, websearch_flows=80,
                        microburst_bursts=200, alibaba_rpcs=1200,
                        alibaba_services=32)
    # The paper's 50% configuration gives each switch 64 entries
    # (10240 VIPs / 80 switches); ratio 4 reproduces a similar
    # per-switch share at this example's reduced address space.
    cache_ratio = 4.0
    rows = []
    for trace in TRACES:
        flows, num_vms = build_trace(trace, scale)
        summary = summarize(flows, num_vms)
        spec = ft16_spec() if trace == "alibaba" else ft8_spec()
        network = build_network(
            spec, make_scheme("SwitchV2P", num_vms, cache_ratio), num_vms,
            scale.seed)
        result = run_flows(network, flows, trace_name=trace,
                           cache_ratio=cache_ratio)
        shares = network.collector.hit_share_by_layer()
        rows.append([
            trace,
            summary.num_flows,
            f"{summary.reuse_fraction:.0%}",
            f"{result.hit_rate:.1%}",
            f"{shares[Layer.CORE]:.0%}",
            f"{shares[Layer.SPINE]:.0%}",
            f"{shares[Layer.TOR]:.0%}",
            f"{result.avg_fct_ns / 1000:.0f}",
        ])
    print(render_table(
        ["trace", "flows", "dst reuse", "hit rate", "core hits",
         "spine hits", "tor hits", "avg FCT [us]"],
        rows,
        title=f"SwitchV2P across the paper's workloads (cache = "
              f"{cache_ratio:g}x address space)"))


if __name__ == "__main__":
    main()
