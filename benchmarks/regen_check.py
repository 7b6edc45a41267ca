"""Regeneration gate: every committed table must regenerate to its bytes,
and every paper-shape claim must hold on what it reads.

Runs every entry of the artifact registry at the bench scale, renders
it, and diffs the text against ``benchmarks/results/<name>.txt``.  Any
difference — or a results file the registry does not know — prints a
unified diff and fails the gate; nothing is ever written (re-commit a
table with ``benchmarks/test_tables.py``).  Then it checks each entry's
claims on the results it already holds, naming the artifact and the
claim of every one that is false, which fails the gate too.  Last, it
prints how many distinct simulations the pool ran, in how many calls,
and the wall-clock.  Run it as
``REPRO_RUNCACHE=0 REPRO_PARALLEL=2 PYTHONPATH=src python benchmarks/regen_check.py``
(208 distinct simulations, fault and migration tables included, in one
pool call).
"""

from __future__ import annotations

import difflib
import os
import sys
import time

from common import RESULTS_DIR, bench_scale
from repro.experiments import artifacts
from repro.experiments.artifacts import ARTIFACTS, simulate
from repro.experiments.runcache import job_key


def main() -> int:
    # The run cache is keyed on a run's inputs, not on the code: a warm
    # entry would hide exactly the drift this gate exists to catch.
    os.environ["REPRO_RUNCACHE"] = "0"
    pool_calls: list[int] = []
    pool = artifacts.parallel_run_experiments

    def counted(jobs, *args, **kwargs):
        pool_calls.append(len({job_key(job) for job in jobs}))
        return pool(jobs, *args, **kwargs)

    artifacts.parallel_run_experiments = counted
    start = time.perf_counter()
    results = simulate(ARTIFACTS.values(), *bench_scale())
    texts = {name: entry.render(results[name])
             for name, entry in ARTIFACTS.items()}
    wall_s = time.perf_counter() - start
    for path in sorted(RESULTS_DIR.glob("*.txt")):
        texts.setdefault(path.stem, "")
    stale = 0
    for name, text in texts.items():
        path = RESULTS_DIR / f"{name}.txt"
        committed = path.read_text() if path.exists() else ""
        diff = list(difflib.unified_diff(
            committed.splitlines(keepends=True),
            (text + "\n" if text else "").splitlines(keepends=True),
            f"committed/{name}.txt", f"regenerated/{name}.txt"))
        sys.stdout.writelines(diff)
        stale += bool(diff)
    false = [(name, claim) for name, entry in ARTIFACTS.items()
             for claim in entry.false_claims(results[name])]
    for name, claim in false:
        print(f"regen check: {name}: false claim: {claim}")
    claims = sum(len(entry.claims) for entry in ARTIFACTS.values())
    print(f"regen check: {len(texts) - stale}/{len(texts)} tables regenerate "
          "to their committed bytes")
    print(f"regen check: {claims - len(false)}/{claims} paper-shape claims "
          "hold")
    print(f"regen check: {sum(pool_calls)} distinct simulations in "
          f"{len(pool_calls)} pool call(s), {wall_s:.1f} s")
    return 1 if stale or false else 0


if __name__ == "__main__":
    sys.exit(main())
