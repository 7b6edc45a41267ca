"""Microbenchmarks of the simulator itself.

The loops ``python -m bench`` cannot express, timed by pytest-benchmark:
the engine's event chain, the reliable transport's RTO re-arm, and cache
lookup/insert churn at one and four ways.  Whole runs — packets per
second, hybrid speed-up, k=32 set-up, sweeps — are ``python -m bench``
workloads.

Each benchmark's fastest round must come in under its ``budget_ms`` in
``BENCH_sim.json`` (repo root); every budget was set at least 1.5x the
median measured with it.  Under ``--benchmark-disable`` only the loops'
assertions run.
"""

import json
from pathlib import Path

from repro.cache import SwitchCache
from repro.sim.engine import Engine

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"


def _check_budget(benchmark, name: str) -> None:
    """The fastest round against the committed budget (no stats when
    timing is disabled)."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return
    entry = json.loads(BASELINE_PATH.read_text())["benchmarks"][name]
    min_ms = stats.stats.min * 1000.0
    assert min_ms <= entry["budget_ms"], (
        f"{name}: min {min_ms:.1f} ms exceeds the BENCH_sim.json budget of "
        f"{entry['budget_ms']:.1f} ms (median {entry['after_ms']['median']:.1f})")


def test_engine_event_throughput(benchmark):
    def run_events():
        engine = Engine()

        def chain(n):
            if n:
                engine.schedule_after(1, chain, n - 1)

        engine.schedule(0, chain, 20_000)
        engine.run()
        return engine.events_processed

    events = benchmark(run_events)
    assert events == 20_001
    _check_budget(benchmark, "test_engine_event_throughput")


def test_engine_rto_rearm_throughput(benchmark):
    """The reliable transport's timer shape: every ACK re-arms an RTO.

    64 flows each run a chain of 300 calendar events 12.8 us apart,
    interleaved 200 ns from one another; every event re-arms its flow's
    timer 100 us - 1 ms out with ``rearm_timer``, as the transport does.
    Each re-arm moves a live timer later, in place; its calendar entry
    is re-pushed only when the clock reaches the key it still carries,
    so a re-push per event, not per crossing, shows here.  Only each
    flow's last timer fires.
    """
    flows, acks_per_flow = 64, 300

    def run_flows_of_acks():
        engine = Engine()
        timers = [None] * flows
        timeouts = []

        def ack(flow, remaining):
            timers[flow] = engine.rearm_timer(
                timers[flow], 100_000 + flow * 14_000, timeouts.append, flow)
            if remaining:
                engine.schedule_after(flows * 200, ack, flow, remaining - 1)

        for flow in range(flows):
            engine.schedule(flow * 200, ack, flow, acks_per_flow - 1)
        engine.run()
        return engine.events_processed, sorted(timeouts)

    events, timeouts = benchmark(run_flows_of_acks)
    assert events == flows * acks_per_flow + flows
    assert timeouts == list(range(flows))
    _check_budget(benchmark, "test_engine_rto_rearm_throughput")


def _cache_churn(benchmark, cache, name: str) -> None:
    """10 000 VIPs over 4096 lines: every insert evicts, every lookup hits."""
    vips = list(range(10_000))

    def churn():
        for vip in vips:
            cache.insert(vip, vip)
            cache.lookup(vip)

    benchmark(churn)
    assert cache.stats.lookups >= len(vips)
    _check_budget(benchmark, name)


def test_cache_lookup_insert_throughput(benchmark):
    _cache_churn(benchmark, SwitchCache(4096, salt=3),
                 "test_cache_lookup_insert_throughput")


def test_cache_lookup_insert_throughput_4way(benchmark):
    _cache_churn(benchmark, SwitchCache(4096, ways=4, salt=3),
                 "test_cache_lookup_insert_throughput_4way")
