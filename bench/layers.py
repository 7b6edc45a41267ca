"""Metric names and the per-layer numbers of one traced run.

Everything here measures from outside: host time per layer is a
``cProfile`` run folded by source module, counts are read from the
public stats objects the simulator already keeps.
"""

from __future__ import annotations

import pstats
from pathlib import Path

#: End-to-end metrics: name -> (unit, better, regression bound as a
#: share of the baseline median).  BENCHMARK.json repeats this table.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "sim_pkts_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_fct_avg_us": ("us", "lower", 0.10),
    "sim_hit_rate": ("ratio", "higher", 0.10),
}

#: Simulated results: a fixed seed repeats them exactly.
EXACT = ("sim_fct_avg_us", "sim_hit_rate")

#: Layer -> source files or directories under ``src/repro`` whose
#: profile rows it owns.  Rows of no layer (builtins, numpy, stdlib
#: and the remaining repro modules) fold into ``other``.
LAYER_SOURCES = {
    "engine": ("sim/engine.py",),
    "fluid": ("sim/fluid.py",),
    "link": ("net/link.py",),
    "switch": ("net/node.py",),
    "packet": ("net/packet.py",),
    "host": ("vnet/hypervisor.py",),
    "gateway": ("vnet/gateway.py", "vnet/mapping.py"),
    "vnet": ("vnet/network.py",),
    "cache": ("cache/",),
    "scheme": ("core/", "baselines/"),
    "transport": ("transport/",),
    "metrics": ("metrics/",),
}

_COUNT = "count"

#: Per-layer metrics: name -> (unit, better).  ``<layer>.self_s`` and
#: ``<layer>.calls`` are profile rows; the rest are counts and ratios.
PER_LAYER = {
    "traces.generate_s": ("s", "lower"),
    "traces.flows": (_COUNT, "lower"),
    "build.network_s": ("s", "lower"),
    "build.switches": (_COUNT, "lower"),
    "build.vms": (_COUNT, "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.calls": (_COUNT, "lower"),
    "engine.events": (_COUNT, "lower"),
    "engine.ns_per_event": ("ns", "lower"),
    "engine.events_per_pkt": ("ratio", "lower"),
    "link.self_s": ("s", "lower"),
    "link.calls": (_COUNT, "lower"),
    "link.pkts": (_COUNT, "lower"),
    "link.drops": (_COUNT, "lower"),
    "switch.self_s": ("s", "lower"),
    "switch.calls": (_COUNT, "lower"),
    "switch.pkts": (_COUNT, "lower"),
    "switch.drops": (_COUNT, "lower"),
    "packet.self_s": ("s", "lower"),
    "packet.calls": (_COUNT, "lower"),
    "packet.pool_recycle_rate": ("ratio", "higher"),
    "host.self_s": ("s", "lower"),
    "host.calls": (_COUNT, "lower"),
    "host.misdeliveries": (_COUNT, "lower"),
    "gateway.self_s": ("s", "lower"),
    "gateway.calls": (_COUNT, "lower"),
    "gateway.arrivals": (_COUNT, "lower"),
    "vnet.self_s": ("s", "lower"),
    "vnet.calls": (_COUNT, "lower"),
    "cache.self_s": ("s", "lower"),
    "cache.calls": (_COUNT, "lower"),
    "cache.lookups": (_COUNT, "lower"),
    "cache.hits": (_COUNT, "higher"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.insertions": (_COUNT, "lower"),
    "cache.evictions": (_COUNT, "lower"),
    "cache.invalidations": (_COUNT, "lower"),
    "scheme.self_s": ("s", "lower"),
    "scheme.calls": (_COUNT, "lower"),
    "scheme.learning_pkts": (_COUNT, "lower"),
    "scheme.invalidation_pkts": (_COUNT, "lower"),
    "scheme.spillover_inserts": (_COUNT, "lower"),
    "scheme.promotions": (_COUNT, "lower"),
    "transport.self_s": ("s", "lower"),
    "transport.calls": (_COUNT, "lower"),
    "transport.pkts_sent": (_COUNT, "lower"),
    "transport.reorder_events": (_COUNT, "lower"),
    "fluid.self_s": ("s", "lower"),
    "fluid.calls": (_COUNT, "lower"),
    "fluid.busy_s": ("s", "lower"),
    "fluid.adoptions": (_COUNT, "higher"),
    "fluid.escalations": (_COUNT, "lower"),
    "fluid.rounds": (_COUNT, "lower"),
    "fluid.pkts": (_COUNT, "higher"),
    "fluid.pkt_share": ("ratio", "higher"),
    "fluid.probe_skips": (_COUNT, "higher"),
    "fluid.warm_pairs": (_COUNT, "higher"),
    "metrics.self_s": ("s", "lower"),
    "metrics.calls": (_COUNT, "lower"),
    "runcache.key_s": ("s", "lower"),
    "runcache.hits": (_COUNT, "higher"),
    "runcache.misses": (_COUNT, "lower"),
    "runcache.warm_replay_s": ("s", "lower"),
    "parallel.jobs_s": ("s", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
    "other.self_s": ("s", "lower"),
    "py.calls_per_pkt": ("ratio", "lower"),
    "trace.overhead_x": ("ratio", "lower"),
}


def _layer_of(filename: str, package_dir: str) -> str:
    if filename.startswith(package_dir):
        relative = filename[len(package_dir):]
        for layer, sources in LAYER_SOURCES.items():
            if relative.startswith(sources):
                return layer
    return "other"


def fold_profile(profiler, package_dir: Path) -> tuple[dict[str, float], int]:
    """Fold a profile by layer: ``<layer>.self_s`` / ``.calls``, total calls."""
    prefix = str(package_dir) + "/"
    self_s = dict.fromkeys([*LAYER_SOURCES, "other"], 0.0)
    calls = dict.fromkeys(self_s, 0)
    rows = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in rows.items():
        layer = _layer_of(filename, prefix)
        self_s[layer] += tottime
        calls[layer] += ncalls
    folded = {f"{layer}.self_s": value for layer, value in self_s.items()}
    folded.update({f"{layer}.calls": calls[layer] for layer in LAYER_SOURCES})
    return folded, sum(calls.values())


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def result_counts(results) -> dict[str, float]:
    """Counts the ``RunResult`` summaries carry, summed over simulations."""
    def total(field: str) -> int:
        return sum(getattr(result, field) for result in results)

    packets = total("packets_sent")
    return {
        "switch.drops": total("drops"),
        "host.misdeliveries": total("misdeliveries"),
        "gateway.arrivals": total("gateway_arrivals"),
        "scheme.learning_pkts": total("learning_packets"),
        "scheme.invalidation_pkts": total("invalidation_packets"),
        "transport.pkts_sent": packets,
        "transport.reorder_events": total("reorder_events"),
        "fluid.adoptions": total("fluid_adoptions"),
        "fluid.escalations": total("fluid_escalations"),
        "fluid.rounds": total("fluid_rounds"),
        "fluid.pkts": total("fluid_packets"),
        "fluid.pkt_share": _ratio(total("fluid_packets"), packets),
    }


def network_counts(network) -> dict[str, float]:
    """Counts only the finished network's public stats objects hold."""
    fabric = network.fabric
    links = [node.uplink for node in (*network.hosts, *network.gateways)]
    for switch in fabric.switches:
        links.extend(switch.host_links.values())
        links.extend(switch.up_links)
        links.extend(switch.down_links)
        links.extend(switch.pod_links)
    links = [link for link in links if link is not None]
    caches = [cache.stats for cache in getattr(network.scheme, "caches", {}).values()]
    lookups = sum(stats.lookups for stats in caches)
    hits = sum(stats.hits for stats in caches)
    pool = network.packet_pool
    collector = network.collector
    events = network.engine.events_processed
    counts = {
        "build.switches": len(fabric.switches),
        "engine.events": events,
        "engine.events_per_pkt": _ratio(events, collector.packets_sent),
        "link.pkts": sum(link.stats.packets for link in links),
        "link.drops": sum(link.stats.drops for link in links),
        "switch.pkts": sum(switch.stats.packets for switch in fabric.switches),
        "packet.pool_recycle_rate": _ratio(pool.recycled, pool.allocated + pool.recycled),
        "cache.lookups": lookups,
        "cache.hits": hits,
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.insertions": sum(stats.insertions for stats in caches),
        "cache.evictions": sum(stats.evictions for stats in caches),
        "cache.invalidations": sum(stats.invalidations for stats in caches),
        "scheme.spillover_inserts": collector.spillover_inserts,
        "scheme.promotions": collector.promotions,
    }
    if network.fluid is not None:
        stats = network.fluid.stats_dict()
        counts["fluid.probe_skips"] = stats["probe_skips"]
        counts["fluid.warm_pairs"] = stats["warm_pairs"]
    return counts
