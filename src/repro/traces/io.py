"""Trace persistence: save and load flow lists as JSON lines.

Generated traces are the experiment inputs; persisting them lets a run
be archived, diffed and replayed exactly (including across machines),
and lets externally produced traces be fed into the simulator.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from repro.transport.flow import FlowSpec

_FIELDS = ("src_vip", "dst_vip", "size_bytes", "start_ns", "transport",
           "udp_rate_bps", "response_bytes", "flow_id")


def save_flows(path: str | Path, flows: Iterable[FlowSpec]) -> int:
    """Write flows to ``path`` as JSON lines; returns the count."""
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        for flow in flows:
            record = {field: getattr(flow, field) for field in _FIELDS}
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def load_flows(path: str | Path) -> list[FlowSpec]:
    """Read flows written by :func:`save_flows`.

    Raises:
        ValueError: naming ``path`` and the line, on a line that is not
            a JSON object, an unknown field or an invalid flow record.
    """
    path = Path(path)
    flows = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {error}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_number}: expected a JSON "
                                 f"object, got {type(record).__name__}")
            unknown = set(record) - set(_FIELDS)
            if unknown:
                raise ValueError(f"{path}:{line_number}: unknown fields "
                                 f"{sorted(unknown)}")
            try:
                flows.append(FlowSpec(**record))
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid flow record: {error}"
                ) from None
    return flows


def trace_stats(flows: list[FlowSpec]) -> dict[str, float]:
    """Summary statistics for a flow list (for CLI inspection)."""
    if not flows:
        return {"flows": 0}
    sizes = [flow.size_bytes for flow in flows]
    starts = [flow.start_ns for flow in flows]
    destinations = {flow.dst_vip for flow in flows}
    return {
        "flows": len(flows),
        "total_bytes": float(sum(sizes)),
        "mean_bytes": sum(sizes) / len(sizes),
        "max_bytes": float(max(sizes)),
        "duration_ns": float(max(starts) - min(starts)),
        "distinct_destinations": float(len(destinations)),
        "tcp_flows": float(sum(1 for f in flows if f.transport == "tcp")),
        "udp_flows": float(sum(1 for f in flows if f.transport == "udp")),
    }
