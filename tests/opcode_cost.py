"""The exact cost of a simulated packet: bytecodes executed per packet.

A count, not a time: ``sys.settrace`` delivers one ``opcode`` event per
bytecode the interpreter executes in a Python frame (C code — ``heapq``,
``list.append`` — executes none), so the same run on the same
interpreter minor version gives the same number to the digit, on any
machine and under any load.  PRs 16, 17 and 20 each hand-rolled this
loop when ``wall_s`` could not resolve a few percent; this is the one
copy.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Callable
from typing import Any


def count_opcodes(call: Callable[[], Any],
                  only: tuple[str, ...] = ("",)) -> tuple[Any, Counter]:
    """Run ``call()``; return its result and ``{(file, function): opcodes}``.

    ``file`` is the path from ``repro/`` on (or the base name outside
    the package), ``function`` the qualified name.  Only frames whose
    file name ends with one of ``only`` are counted — the others run at
    nearly full speed, with the same counts for the ones that are.
    """
    counts: Counter = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, event, _arg):
        if not frame.f_code.co_filename.replace("\\", "/").endswith(only):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(None)
    by_name: Counter = Counter()
    for code, opcodes in counts.items():
        path = code.co_filename.replace("\\", "/")
        path = path[path.rfind("/repro/") + 1:] if "/repro/" in path \
            else path.rsplit("/", 1)[-1]
        by_name[path, getattr(code, "co_qualname", code.co_name)] += opcodes
    return result, by_name


def cost_table(by_name: Counter, count: int, top: int = 12,
               unit: str = "packet") -> str:
    """The per-function table a failing tripwire prints, per ``unit``."""
    total = sum(by_name.values())
    rows = [f"{total / count:10.1f} opcodes/{unit} over {count} {unit}s"]
    for (path, function), opcodes in by_name.most_common(top):
        rows.append(f"{opcodes / count:10.1f}  {opcodes / total:6.1%}  "
                    f"{path}::{function}")
    return "\n".join(rows)
