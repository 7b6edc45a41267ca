"""Plain-text table rendering for benchmark output.

The benchmark harness prints each reproduced table/figure as an ASCII
table whose rows mirror the paper's series, so paper-vs-measured
comparison (EXPERIMENTS.md) is a visual diff.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any


def format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "n/a"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render rows as a fixed-width ASCII table."""
    text_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("-+-".join("-" * w for w in widths))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


#: Shade ramp for ASCII heatmaps, light to dark.
_SHADES = " .:-=+*#%@"


def heatmap_rows(row_labels: Sequence[str], col_labels: Sequence[str],
                 values: Sequence[Sequence[float]],
                 ) -> tuple[list[str], list[list[str]]]:
    """A matrix as ``(headers, rows)`` of an ASCII heatmap table.

    Cells are shaded relative to the global maximum, so hotspots (the
    gateway pods) stand out exactly as they do in the paper's figures.
    """
    peak = max((cell for row in values for cell in row), default=0.0)
    rows = []
    for label, row in zip(row_labels, values):
        cells = []
        for cell in row:
            if peak <= 0:
                cells.append(_SHADES[0])
            else:
                index = min(len(_SHADES) - 1,
                            int(cell / peak * (len(_SHADES) - 1) + 0.5))
                cells.append(_SHADES[index])
        rows.append([label, " ".join(cells)])
    return ["", " ".join(str(c) for c in col_labels)], rows


def render_heatmap(row_labels: Sequence[str], col_labels: Sequence[str],
                   values: Sequence[Sequence[float]], title: str = "") -> str:
    """Render a matrix as an ASCII heatmap (Figure 7/8 style)."""
    headers, rows = heatmap_rows(row_labels, col_labels, values)
    return render_table(headers, rows, title=title)


def failure_breakdown_rows(failed_flows: int,
                           failure_reasons: dict[str, int],
                           label: str = "failed flows") -> list[list]:
    """Summary-table rows for per-flow availability.

    One row with the failed-flow count, then one indented row per
    ``failure_reason`` (sorted by count, then name).  Callers append
    these to a metric/value table; a run with zero failures still gets
    the headline row so "0 failed" is stated, not implied.
    """
    rows: list[list] = [[label, failed_flows]]
    for reason, count in sorted(failure_reasons.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        rows.append([f"  {label}[{reason}]", count])
    return rows


def improvement(value: float, baseline: float) -> float:
    """Improvement factor of ``value`` over ``baseline`` (higher=better).

    Matches the paper's normalization: FCT and latency improvements are
    ``baseline / value`` so a 2.0 means twice as fast as NoCache.
    """
    if value <= 0 or value != value:
        return float("nan")
    if baseline != baseline or baseline in (float("inf"), float("-inf")):
        return float("nan")
    return baseline / value
