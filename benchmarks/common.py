"""The bench scale the committed tables are regenerated at.

``benchmarks/test_tables.py`` (which writes ``benchmarks/results/`` at
the ``default`` scale, the one those tables are committed at) and
``benchmarks/regen_check.py`` (which only diffs against it) run every
entry of the artifact registry (``repro.experiments.artifacts``) at the
configs :func:`bench_scale` returns.  Scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable:

* ``fast`` — smoke-test scale (seconds per figure);
* ``default`` — the documented bench scale (tens of seconds);
* ``full`` — closer to paper scale (minutes per figure), Table 4 at the
  paper's 64-sender x 1000-packet incast.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.figures import FigureScale
from repro.traces.incast import IncastTraceParams

RESULTS_DIR = Path(__file__).parent / "results"

#: Each scale's configs; an entry sized by none of them runs at its own.
_SCALES = {
    "fast": (FigureScale(
        num_vms=160, hadoop_flows=800, websearch_flows=40,
        microburst_bursts=80, video_streams=16, alibaba_rpcs=500,
        alibaba_services=20, ratios=(0.5, 4.0, 32.0)),),
    "default": (FigureScale(
        num_vms=320, hadoop_flows=3000, websearch_flows=100,
        microburst_bursts=250, video_streams=32, alibaba_rpcs=1500,
        alibaba_services=40, ratios=(0.25, 1.0, 4.0, 16.0, 64.0)),),
    "full": (FigureScale(
        num_vms=640, hadoop_flows=8000, websearch_flows=200,
        microburst_bursts=500, video_streams=64, alibaba_rpcs=4000,
        alibaba_services=80, ratios=(0.125, 0.5, 2.0, 8.0, 32.0, 128.0)),
        IncastTraceParams(num_senders=64, packets_per_sender=1000)),
}


def scale_name() -> str:
    """The scale REPRO_BENCH_SCALE selects (default: 'default')."""
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name not in _SCALES:
        known = ", ".join(sorted(_SCALES))
        raise ValueError(f"REPRO_BENCH_SCALE={name!r}; expected one of {known}")
    return name


def bench_scale() -> tuple:
    """The configs of :func:`scale_name`'s scale, for
    ``simulate(artifacts, *bench_scale())``."""
    return _SCALES[scale_name()]
