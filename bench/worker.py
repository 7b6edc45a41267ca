"""Measure one workload in this process; print the measurements as JSON.

``python -m bench`` starts one fresh interpreter per workload on this
module (``PYTHONHASHSEED=0``), so module-global caches, the allocator
and the peak-RSS high-water mark of one workload never leak into the
next.  Protocol: one untimed warm-up, the timed repeats with tracing
off, then (optionally) one separate run under ``cProfile`` for the
per-layer table.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from bench.calibration import machine_speed
from bench.layers import END_TO_END, PER_LAYER, fold_profile, result_counts
from bench.report import first_difference
from bench.workloads import WORKLOADS
from repro.experiments.runcache import run_key
from repro.experiments.runner import RunResult
from repro.perf import peak_rss_kb, timed_call

OUT_DIR = Path(__file__).resolve().parent / "out"

_FINGERPRINT_FIELDS = [field.name for field in dataclasses.fields(RunResult)
                       if field.name not in ("collector", "network")]


class Spans:
    """In-memory span recorder, usable as the runner's ``perf=`` timer.

    ``run_flows`` and ``cache_size_sweep`` only call ``phase(name)``
    and ``add(name, ns)`` on their timer, so passing this object
    records their inner phases as child spans of the call.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[dict] = []
        self.run = ""
        self.added_ns: dict[str, int] = {}
        self._open: list[int] = []
        self._origin = time.perf_counter()

    def begin(self, run: str) -> None:
        """Start recording one run (warm-up, repeat or traced run)."""
        self.run = run
        self.added_ns = {}

    @contextmanager
    def phase(self, name: str):
        row = {"id": len(self.rows), "name": name, "workload": self.workload,
               "run": self.run, "parent": self._open[-1] if self._open else None,
               "start_s": time.perf_counter() - self._origin, "end_s": None}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end_s"] = time.perf_counter() - self._origin
            self._open.pop()

    def add(self, name: str, elapsed_ns: int) -> None:
        self.added_ns[name] = self.added_ns.get(name, 0) + int(elapsed_ns)


def _duration(row: dict) -> float:
    return row["end_s"] - row["start_s"]


def _plain(value):
    """JSON hook: numpy scalars to Python numbers."""
    return value.item()


def fingerprint(results: list[RunResult]) -> dict[str, list]:
    """Every summary field of every simulation, as plain JSON values."""
    raw = {name: [getattr(result, name) for result in results]
           for name in _FINGERPRINT_FIELDS}
    return json.loads(json.dumps(raw, default=_plain))


@dataclasses.dataclass
class Run:
    """One execution of a workload: its products and host times."""

    flows: list
    target: object
    results: list[RunResult]
    generate_s: float
    build_s: float
    wall_s: float
    added_ns: dict[str, int]
    #: ``machine_speed()`` around the run; the times above are divided
    #: by it, i.e. they are seconds at the reference machine speed.
    speed: float = 1.0

    def at_reference_speed(self, speed: float) -> None:
        self.speed = speed
        self.generate_s /= speed
        self.build_s /= speed
        self.wall_s /= speed
        self.added_ns = {name: ns / speed for name, ns in self.added_ns.items()}


def one_run(workload, seed: int, spans: Spans, label: str, workers: int,
            profiler: cProfile.Profile | None = None) -> Run:
    spans.begin(label)
    with spans.phase("traces.generate") as generate:
        flows = workload.flows(seed)
    with spans.phase("build.network") as build:
        target = workload.build(seed)
    with spans.phase("measured-call") as call:
        if profiler is None:
            results = workload.run(target, flows, seed, spans, workers)
        else:
            results = profiler.runcall(workload.run, target, flows, seed, spans, workers)
    return Run(flows, target, results, _duration(generate), _duration(build),
               _duration(call), dict(spans.added_ns))


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def end_to_end(runs: list[Run], peak_rss_mb: float) -> tuple[int, int, dict[str, list[float]]]:
    """Flows attempted and failed, and the samples of every end-to-end metric.

    The repeats agree on every simulated result (checked by the
    caller), so those are read from the first one.
    """
    results = runs[0].results
    flows = len(runs[0].flows)
    completed = [round(result.completion_rate * flows) for result in results]
    packets = [result.packets_sent for result in results]
    attempted = flows * len(results)
    walls = [run.wall_s for run in runs]
    values = {
        "wall_s": walls,
        "sim_pkts_per_s": [sum(packets) / wall for wall in walls],
        "setup_s": [run.generate_s + run.build_s for run in runs],
        "peak_rss_mb": [peak_rss_mb],
        "sim_fct_avg_us": [sum(result.avg_fct_ns * done for result, done
                               in zip(results, completed)) / sum(completed) / 1000],
        "sim_hit_rate": [sum(result.hit_rate * sent for result, sent
                             in zip(results, packets)) / sum(packets)],
    }
    return attempted, attempted - sum(completed), values


def measure(options: dict, scratch: Path) -> dict:
    name = options["workload"]
    seed = options["seed"]
    workload = WORKLOADS[name](options["scale"], scratch)
    workers = min(2, os.cpu_count() or 1)
    spans = Spans(name)
    errors: list[str] = []

    one_run(workload, seed, spans, "warmup", workers)
    runs: list[Run] = []
    reference = None
    started = time.perf_counter()
    speed_before = machine_speed()
    while (len(runs) < options["repeats"]
           or time.perf_counter() - started < options["seconds"]):
        # The engine pauses the collector while it runs, so the previous
        # repeat's (cyclic) network is still garbage here; collect it
        # outside the timed region instead of inside the next repeat.
        gc.collect()
        run = one_run(workload, seed, spans, f"repeat-{len(runs)}", workers)
        speed_after = machine_speed()
        run.at_reference_speed((speed_before + speed_after) / 2)
        speed_before = speed_after
        found = fingerprint(run.results)
        if reference is None:
            reference = found
        difference = first_difference(reference, found)
        if difference is not None:
            errors.append(f"repeat {len(runs)} differs from repeat 0: {difference}")
        run.target = None
        runs.append(run)
    peak_rss_mb = peak_rss_kb() / 1024

    attempted, failed, values = end_to_end(runs, peak_rss_mb)
    if failed:
        errors.append(f"{failed} of {attempted} flows did not complete")
    document = {
        "workload": name, "seed": seed, "scale": options["scale"],
        "repeats": len(runs), "attempted": attempted, "failed": failed,
        "errors": errors, "fingerprint": reference,
        "machine_speed": summary([run.speed for run in runs], "ratio"),
        "end_to_end": {metric: summary(values[metric], unit)
                       for metric, (unit, _, _) in END_TO_END.items()},
        "per_layer": None,
    }
    if options["traced"]:
        gc.collect()
        layers = traced_run(workload, seed, spans, runs, workers, reference, errors)
        document["per_layer"] = {metric: {"unit": PER_LAYER[metric][0], "value": value}
                                 for metric, value in layers.items()}
        trace_path = OUT_DIR / f"{name}.trace.json"
        trace_path.write_text(json.dumps(
            {"workload": name, "seed": seed, "scale": options["scale"],
             "spans": spans.rows, "per_layer": document["per_layer"]}, indent=1))
    return document


def traced_run(workload, seed: int, spans: Spans, runs: list[Run], workers: int,
               reference: dict, errors: list[str]) -> dict[str, float]:
    """One run under cProfile; returns every per-layer metric.

    ``runs`` are the untraced repeats (made with ``workers`` pool
    workers): host-time metrics that tracing would distort are their
    medians.
    """
    profiler = cProfile.Profile()
    speed_before = machine_speed()
    # The profiler does not follow pool workers: trace the sweep inline.
    traced = one_run(workload, seed, spans, "traced", 0, profiler)
    traced.at_reference_speed((speed_before + machine_speed()) / 2)
    difference = first_difference(reference, fingerprint(traced.results))
    if difference is not None:
        errors.append(f"traced run differs from the untraced repeats: {difference}")

    wall_s = statistics.median(run.wall_s for run in runs)
    layers: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    folded, total_calls = fold_profile(profiler, Path(repro.__file__).parent)
    layers.update(folded)
    layers.update(result_counts(traced.results))
    layers.update(workload.counts(traced.target, traced.flows, seed))
    events = layers["engine.events"]
    layers["engine.ns_per_event"] = wall_s * 1e9 / events if events else 0.0
    key_ns = timed_call(
        run_key, workload.spec, workload.scheme_name, workload.num_vms,
        workload.cache_ratio, seed, transport=workload.transport,
        horizon_ns=workload.horizon_ns, trace_name=workload.name, flows=traced.flows,
        fidelity=workload.fidelity)[1]
    layers["runcache.key_s"] = key_ns / 1e9

    def phase_s(phase: str) -> float:
        return statistics.median(run.added_ns.get(phase, 0) for run in runs) / 1e9

    layers["traces.generate_s"] = statistics.median(run.generate_s for run in runs)
    layers["traces.flows"] = len(traced.flows)
    layers["build.network_s"] = statistics.median(run.build_s for run in runs)
    layers["build.vms"] = workload.num_vms
    layers["fluid.busy_s"] = phase_s("fluid")
    layers["parallel.jobs_s"] = phase_s("jobs")
    layers["parallel.efficiency"] = phase_s("jobs") / (workers * wall_s)
    layers["py.calls_per_pkt"] = total_calls / layers["transport.pkts_sent"]
    layers["trace.overhead_x"] = traced.wall_s / wall_s
    return layers


def main(argv: list[str]) -> int:
    options = json.loads(argv[0])
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT_DIR) as scratch:
        document = measure(options, Path(scratch))
    print(json.dumps(document, default=_plain))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
