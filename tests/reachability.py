"""Which ``src/repro`` functions the runnable entry points reach.

``reached(call)`` runs ``call()`` with a profile hook on every thread
(``sys.setprofile`` plus ``threading.setprofile``) and returns the
functions it called, as ``(path, first line, qualified name)``; the
qualified name is ``CodeType.co_qualname``, so it needs CPython 3.11
or later.

Run as a script, it calls what this repository is for — all 23
registry artifacts at ``benchmarks/common.py``'s ``fast`` scale, their
jobs in one inline pool call, with the run cache off, each rendered and
its claims checked; ``repro chaos`` and ``repro chaos --gray`` with
their default trials; the seven
``bench`` workloads in-process at scale 0.1; ``repro run`` and
``repro list`` — then compiles every module under ``src/repro`` and
prints, module by module, each function none of them called, with its
line span.  What it lists is what only tests reach; DESIGN.md "What
runs" gives each a verdict.  From the repository root (~4-5 minutes)::

    PYTHONPATH=src:. python tests/reachability.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from pathlib import Path
from types import CodeType
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``(path from the searched directory's parent, first line, qualified
#: name)`` of one function.
Key = tuple[str, int, str]

#: Code objects whose reach follows their enclosing function's.
_INLINE = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _key(code: CodeType, under: Path) -> Key | None:
    """``code``'s key when it is a function defined under ``under``."""
    path = Path(os.path.realpath(code.co_filename))
    if not path.is_relative_to(under) or not code.co_flags & inspect.CO_OPTIMIZED:
        return None
    return (path.relative_to(under.parent).as_posix(), code.co_firstlineno,
            code.co_qualname)


def reached(call: Callable[[], Any], under: Path = PACKAGE
            ) -> tuple[Any, set[Key]]:
    """Run ``call()``; return its result and every function defined under
    ``under`` that it called, from any thread it started."""
    codes: set[CodeType] = set()
    add = codes.add

    def hook(frame, _event, _arg):
        # A C call reports its Python caller, which was called already.
        add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    codes.discard(reached.__code__)  # its C call to sys.setprofile
    under = Path(os.path.realpath(under))
    keys = {_key(code, under) for code in codes}
    keys.discard(None)
    return result, keys


def _span(code: CodeType) -> tuple[int, int]:
    lines = [line for _, _, line in code.co_lines() if line is not None]
    return code.co_firstlineno, max(lines, default=code.co_firstlineno)


def unreached(keys: set[Key], under: Path = PACKAGE
              ) -> dict[str, list[tuple[str, int, int]]]:
    """``{module path: [(function, first line, last line)]}`` of every
    function under ``under`` whose key is not in ``keys``; a function
    nested in an unreached one is not listed again."""
    under = Path(os.path.realpath(under))
    found: dict[str, list[tuple[str, int, int]]] = {}

    def walk(code: CodeType, module: str) -> None:
        for inner in code.co_consts:
            if not isinstance(inner, CodeType):
                continue
            key = _key(inner, under)
            if key is None or inner.co_name in _INLINE or key in keys:
                walk(inner, module)
            else:
                found.setdefault(module, []).append(
                    (inner.co_qualname, *_span(inner)))

    for path in sorted(under.rglob("*.py")):
        module = path.relative_to(under.parent).as_posix()
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             module)
    return found


def entry_points(scratch: Path) -> dict[str, Callable[[], Any]]:
    """What the ledger runs, by name; each call is quiet."""
    os.environ["REPRO_RUNCACHE"] = "0"
    os.environ["REPRO_BENCH_SCALE"] = "fast"
    from bench.workloads import WORKLOADS
    from benchmarks.common import bench_scale
    from repro.cli import main
    from repro.experiments.artifacts import ARTIFACTS, simulate

    def registry():
        results = simulate(ARTIFACTS.values(), *bench_scale(), workers=1)
        for name, entry in ARTIFACTS.items():
            entry.render(results[name])
            entry.false_claims(results[name])

    def workloads():
        for cls in WORKLOADS.values():
            workload = cls(0.1, scratch)
            flows = workload.flows(1)
            target = workload.build(1)
            workload.run(target, flows, 1, None, 0)
            workload.counts(target, flows, 1)

    return {
        "23 artifacts (fast)": registry,
        "repro chaos": lambda: main(["chaos"]),
        "repro chaos --gray": lambda: main(["chaos", "--gray"]),
        "bench workloads (0.1)": workloads,
        "repro run": lambda: main(["run", "--hadoop-flows", "300"]),
        "repro list": lambda: main(["list"]),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        # What runs on import (registry decorators, module constants)
        # counts as reached too.
        points, keys = reached(lambda: entry_points(Path(scratch)))
        print(f"imports: {len(keys)} functions", file=sys.stderr)
        for name, call in points.items():
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                _, found = reached(call)
            keys |= found
            print(f"{name}: {len(found)} functions, "
                  f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
    ledger = unreached(keys)
    total = 0
    for module, functions in ledger.items():
        print(module)
        for function, first, last in functions:
            print(f"  {first:5d}-{last:<5d} {function}")
            total += last - first + 1
    print(f"{sum(map(len, ledger.values()))} functions unreached, "
          f"{total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
