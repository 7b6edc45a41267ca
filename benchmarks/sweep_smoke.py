"""CI smoke check for the sweep orchestrator and run cache.

Runs one tiny cache-size sweep three ways and asserts the orchestration
contract end to end:

1. cold, sequential, into a fresh :class:`RunCache` — every point is a
   miss and gets stored;
2. the identical sweep again — every point must be a cache *hit*
   (``misses == 0``), the warm-figure-replay guarantee;
3. cold with 2 workers and no cache — the process-pool path must return
   byte-identical rows to sequential execution, and every distinct
   simulation (the NoCache reference included) must have been
   dispatched as a job, none simulated by the parent.

A tiny gateway-count sweep (Figure 9's, where NoCache is both the
reference and a scheme) then runs sequentially and with 2 workers; the
rows must match there too.

This is a hard pass/fail gate (unlike the wall-clock benchmarks, which
are advisory on shared runners): it checks correctness of the
orchestration, not speed.  Run it as
``PYTHONPATH=src python benchmarks/sweep_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile

from repro.experiments.runcache import RunCache
from repro.experiments.sweeps import cache_size_sweep, gateway_count_sweep
from repro.net.topology import FatTreeSpec
from repro.traces.spec import TraceSpec


def _fingerprint(rows) -> str:
    """Exact-value serialization of a sweep's rows (floats via repr)."""
    def result_dict(result):
        return {f.name: repr(getattr(result, f.name))
                for f in dataclasses.fields(result)
                if f.name not in ("collector", "network")}

    return json.dumps([[row.scheme, repr(row.x_value), repr(row.hit_rate),
                        repr(row.fct_improvement),
                        repr(row.first_packet_improvement),
                        result_dict(row.result)] for row in rows])


def main() -> int:
    spec = FatTreeSpec(pods=2, racks_per_pod=2, servers_per_rack=2,
                       spines_per_pod=2, num_cores=2,
                       gateway_pods=(1,), gateways_per_pod=1)
    trace = TraceSpec.create("hadoop", 7, num_vms=16, num_flows=60)
    sweep_kwargs = dict(spec=spec, flows=trace.materialize(), num_vms=16,
                        ratios=(0.5, 4.0), schemes=("SwitchV2P", "GwCache"),
                        seed=7, trace_name="hadoop", trace_spec=trace)

    with tempfile.TemporaryDirectory() as tmp:
        cold_store = RunCache(tmp)
        cold = cache_size_sweep(workers=0, cache=cold_store, **sweep_kwargs)
        assert cold_store.stats.hits == 0, cold_store.stats
        assert cold_store.stats.stores > 0, cold_store.stats
        print(f"cold sweep: {len(cold)} rows, {cold_store.stats}")

        warm_store = RunCache(tmp)
        warm = cache_size_sweep(workers=0, cache=warm_store, **sweep_kwargs)
        assert warm_store.stats.misses == 0, (
            f"warm replay must be pure cache hits: {warm_store.stats}")
        assert warm_store.stats.hits == cold_store.stats.stores
        print(f"warm sweep: all {warm_store.stats.hits} hits")

    # 2 ratios x 2 schemes + the NoCache reference: all five are jobs.
    simulations = cold_store.stats.stores
    assert simulations == 5, cold_store.stats
    job_ticks = []
    parallel = cache_size_sweep(
        workers=2, cache=None, **sweep_kwargs,
        progress=lambda done, total, cached: job_ticks.append((done, total)))
    assert job_ticks == [(n, simulations) for n in range(1, simulations + 1)], (
        f"{simulations} simulations but the orchestrator saw {job_ticks}")
    print(f"parallel sweep: 2 workers, no cache, {simulations} jobs")

    fingerprint = _fingerprint(cold)
    assert _fingerprint(warm) == fingerprint, "warm replay drifted from cold"
    assert _fingerprint(parallel) == fingerprint, (
        "parallel execution drifted from sequential")
    print("sequential == warm-replay == 2-worker parallel: OK")

    fleet_kwargs = dict(
        base_spec=spec, trace_factory=lambda _: trace.materialize(),
        num_vms=16, gateways_per_pod_values=(2, 1),
        schemes=("SwitchV2P", "NoCache"), cache_ratio=4.0, seed=7,
        trace_name="hadoop", cache=None)
    fleet = gateway_count_sweep(workers=0, **fleet_kwargs)
    assert _fingerprint(gateway_count_sweep(workers=2, **fleet_kwargs)) \
        == _fingerprint(fleet), "gateway sweep: 2 workers drifted"
    assert fleet[1].scheme == "NoCache" and fleet[1].fct_improvement == 1.0
    print(f"gateway sweep: {len(fleet)} rows, sequential == 2-worker: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
