"""Shared benchmark configuration and reporting.

Each benchmark runs one entry of the artifact registry
(``repro.experiments.artifacts``), prints its table to stdout (visible
with ``pytest -s``), saves it under ``benchmarks/results/`` so
EXPERIMENTS.md comparisons can be re-derived from artifacts, and then
asserts the paper's shape on the result.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``fast`` — smoke-test scale (seconds per figure);
* ``default`` — the documented bench scale (tens of seconds);
* ``full`` — closer to paper scale (minutes per figure).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.artifacts import ARTIFACTS, simulate
from repro.experiments.figures import FigureScale

RESULTS_DIR = Path(__file__).parent / "results"

_SCALES = {
    "fast": FigureScale(
        num_vms=160, hadoop_flows=800, websearch_flows=40,
        microburst_bursts=80, video_streams=16, alibaba_rpcs=500,
        alibaba_services=20, ratios=(0.5, 4.0, 32.0)),
    "default": FigureScale(
        num_vms=320, hadoop_flows=3000, websearch_flows=100,
        microburst_bursts=250, video_streams=32, alibaba_rpcs=1500,
        alibaba_services=40, ratios=(0.25, 1.0, 4.0, 16.0, 64.0)),
    "full": FigureScale(
        num_vms=640, hadoop_flows=8000, websearch_flows=200,
        microburst_bursts=500, video_streams=64, alibaba_rpcs=4000,
        alibaba_services=80, ratios=(0.125, 0.5, 2.0, 8.0, 32.0, 128.0)),
}


def bench_scale() -> FigureScale:
    """The scale selected via REPRO_BENCH_SCALE (default: 'default')."""
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    try:
        return _SCALES[name]
    except KeyError:
        known = ", ".join(sorted(_SCALES))
        raise ValueError(
            f"REPRO_BENCH_SCALE={name!r}; expected one of {known}") from None


def report(name: str, result) -> str:
    """Render, print, and persist one registry artifact's table."""
    text = ARTIFACTS[name].render(result)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def run_artifact(benchmark, name: str, *also: str):
    """Simulate one registry artifact at the bench scale and report it.

    ``also`` names further artifacts rendered from the same result
    (Figure 7's heatmap).  Returns what the artifact's table reads, for
    the shape assertions.
    """
    result = benchmark.pedantic(
        lambda: simulate([ARTIFACTS[name]], bench_scale())[name],
        rounds=1, iterations=1)
    for stem in (name, *also):
        report(stem, result)
    return result
