"""``python -m bench``: run the workloads, print the tables, check results.

Without ``--workload`` every workload runs, strictly one after
another, each in a fresh interpreter (see ``bench/worker.py``).  With
exactly one ``--workload`` the last line of standard output is the
one-object JSON summary the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from bench.report import (
    first_difference,
    render_comparison,
    render_end_to_end,
    render_per_layer,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
#: Untraced repeats of a run, at least: the issue measured that medians
#: of 7 agree between sets where medians of 5 do not.
REPEATS = 7
QUICK_REPEATS = 2
QUICK_SCALE = 0.1
#: Untraced repeats of a ``--trace 1`` run: enough for the medians the
#: per-layer table borrows (ns/event, fluid busy time, trace overhead).
TRACE_REPEATS = 3


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding timed repeats until this much time is measured")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: timed repeats only; 1: traced run (after "
                             f"{TRACE_REPEATS} repeats) only; default: both")
    parser.add_argument("--quick", action="store_true",
                        help=f"workloads at ~{QUICK_SCALE} size, {QUICK_REPEATS} repeats")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "results.json",
                        help="where to write the full results (default %(default)s)")
    parser.add_argument("--expected", type=Path, default=BENCH_DIR / "expected.json",
                        help="pinned simulated results (default %(default)s)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the pinned results from this run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two result files instead of running")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment(args: argparse.Namespace, repeats: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "repeats": repeats,
        "seed": args.seed,
        "quick": args.quick,
        "git_commit": git_commit(),
    }


def run_worker(options: dict) -> dict:
    """Measure one workload in a fresh interpreter; returns its document."""
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1) - 1:
        print(f"warning: 1-minute load average {load:.2f} before {options['workload']}: "
              "timings will be noisy", file=sys.stderr)
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run([sys.executable, "-m", "bench.worker", json.dumps(options)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench: worker for {options['workload']} failed "
                         f"with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check_expected(document: dict, expected: dict) -> None:
    """Append an error naming the first field that is not as pinned."""
    pinned = expected.get(document["workload"])
    if pinned is None:
        document["errors"].append("no pinned result; run with --update-expected")
        return
    difference = first_difference(pinned, document["fingerprint"])
    if difference is not None:
        document["errors"].append(f"differs from expected.json: {difference}")


def driver_line(document: dict, trace: str | None, manifest: dict) -> str:
    """The one-object summary the benchmark driver reads.

    BENCHMARK.json lists every end-to-end metric but ``sim_hit_rate``:
    it is exactly 0 on hadoop-nocache, and the driver divides by the
    baseline median.
    """
    metrics = {}
    if trace != "1":
        metrics.update({metric["name"]: document["end_to_end"][metric["name"]]
                        for metric in manifest["end_to_end"]})
    if trace != "0":
        metrics.update(document["per_layer"])
    return json.dumps({
        "correct": not document["errors"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    })


def compare(paths: list[Path]) -> int:
    base, change = (json.loads(path.read_text()) for path in paths)
    for key in ("seed", "quick"):
        if base["environment"][key] != change["environment"][key]:
            raise SystemExit(f"bench: the two files differ in {key}; "
                             "only runs of the same inputs compare")
    if set(base["workloads"]) != set(change["workloads"]):
        raise SystemExit("bench: the two files hold different workloads")
    table, regressed = render_comparison(base, change)
    print(table)
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in manifest["workloads"]]
    args = parse_args(argv, workloads)
    if args.compare:
        return compare(args.compare)
    names = args.workload or workloads
    if args.trace == "1":
        repeats, seconds = TRACE_REPEATS, 0.0
    else:
        repeats, seconds = (QUICK_REPEATS if args.quick else REPEATS), args.seconds
    mode = "quick" if args.quick else "full"
    expected = json.loads(args.expected.read_text())
    pinned_seed = args.seed == DEFAULT_SEED
    if args.update_expected and not pinned_seed:
        raise SystemExit(f"bench: expected results are pinned for seed {DEFAULT_SEED}")

    results = {"environment": environment(args, repeats), "workloads": {}}
    for name in names:
        print(f"bench: {name} ...", file=sys.stderr)
        document = run_worker({
            "workload": name, "seed": args.seed,
            "scale": QUICK_SCALE if args.quick else 1.0,
            "repeats": repeats, "seconds": seconds, "traced": args.trace != "0"})
        if args.update_expected:
            expected[mode][name] = document["fingerprint"]
        elif pinned_seed:
            check_expected(document, expected[mode])
        results["workloads"][name] = document
    if args.update_expected:
        args.expected.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    documents = list(results["workloads"].values())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1))
    print(json.dumps(results["environment"]))
    print(render_end_to_end(documents))
    print(render_per_layer(documents))
    failures = [f"{document['workload']}: {error}"
                for document in documents for error in document["errors"]]
    for failure in failures:
        print(f"bench: INCORRECT {failure}", file=sys.stderr)
    if len(documents) == 1:
        print(driver_line(documents[0], args.trace, manifest))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
