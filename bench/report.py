"""Tables for one set of measurements, and the comparison of two sets."""

from __future__ import annotations

from bench.layers import END_TO_END, EXACT, PER_LAYER


def first_difference(pinned: dict, found: dict) -> str | None:
    """The first fingerprint field on which two runs differ, with both values."""
    for field in sorted(set(pinned) | set(found)):
        if pinned.get(field) != found.get(field):
            return f"{field} is {found.get(field)}, expected {pinned.get(field)}"
    return None


def _number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in [headers, *rows]) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in [headers, *rows]]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_end_to_end(documents: list[dict]) -> str:
    """One row per workload x metric: median [q1 .. q3] of n, with unit."""
    rows = []
    for document in documents:
        for metric, entry in document["end_to_end"].items():
            rows.append([document["workload"], metric, entry["unit"],
                         _number(entry["value"]), _number(entry["q1"]),
                         _number(entry["q3"]), str(entry["n"])])
    return _table(["workload", "metric", "unit", "median", "q1", "q3", "n"], rows)


def render_per_layer(documents: list[dict]) -> str:
    """One row per per-layer metric, one column per traced workload."""
    traced = [document for document in documents if document["per_layer"]]
    if not traced:
        return ""
    rows = [[metric, unit, *(_number(document["per_layer"][metric]["value"])
                             for document in traced)]
            for metric, (unit, _) in PER_LAYER.items()]
    return _table(["metric", "unit", *(document["workload"] for document in traced)], rows)


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def verdict(metric: str, base: dict, change: dict) -> tuple[float, str]:
    """(change / base, pass | regress | unresolved) for one metric.

    ``regress``: the change's median is worse than the base's by more
    than the metric's bound (by anything at all for simulated results,
    which a fixed seed repeats exactly).  ``unresolved``: either side's
    quartile spread exceeds the bound, unless every sample of the
    change beats every sample of the base.
    """
    _, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0
    ratio = change["value"] / base["value"] if base["value"] else 1.0
    worse_by = sign * (change["value"] - base["value"]) / (base["value"] or 1.0)
    if metric in EXACT:
        return ratio, "regress" if worse_by > 0 else "pass"
    if max(_spread(base), _spread(change)) > bound:
        clear_win = (max(change["samples"]) < min(base["samples"]) if better == "lower"
                     else min(change["samples"]) > max(base["samples"]))
        return ratio, "pass" if clear_win else "unresolved"
    return ratio, "regress" if worse_by > bound else "pass"


def render_comparison(base: dict, change: dict) -> tuple[str, bool]:
    """The comparison table of two result files; True if anything regressed."""
    rows = []
    regressed = False
    for name, base_doc in base["workloads"].items():
        change_doc = change["workloads"][name]
        for metric in END_TO_END:
            a = base_doc["end_to_end"][metric]
            b = change_doc["end_to_end"][metric]
            ratio, outcome = verdict(metric, a, b)
            regressed = regressed or outcome == "regress"
            rows.append([name, metric, a["unit"],
                         f"{_number(a['value'])} [{_number(a['q1'])} .. {_number(a['q3'])}]",
                         f"{_number(b['value'])} [{_number(b['q1'])} .. {_number(b['q3'])}]",
                         f"{ratio:.4f}", str(END_TO_END[metric][2]), outcome])
        for field in ("attempted", "failed"):
            if base_doc[field] != change_doc[field]:
                regressed = True
                rows.append([name, field, "count", str(base_doc[field]),
                             str(change_doc[field]), "", "0", "regress"])
        if base_doc["per_layer"] and change_doc["per_layer"]:
            # Counts repeat exactly on one commit; between commits a
            # moved count is information (calls, events), not a verdict.
            for metric, (unit, _) in PER_LAYER.items():
                a = base_doc["per_layer"][metric]["value"]
                b = change_doc["per_layer"][metric]["value"]
                if unit == "count" and a != b:
                    rows.append([name, metric, unit, _number(a), _number(b),
                                 f"{b / a:.4f}" if a else "", "", "changed"])
    headers = ["workload", "metric", "unit", "A median [q1 .. q3]",
               "B median [q1 .. q3]", "B/A", "bound", "verdict"]
    return _table(headers, rows), regressed
