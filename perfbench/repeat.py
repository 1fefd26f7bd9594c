"""Repeat the benchmark over seeds, report spreads, compare two sets.

Run a set (one ``run.py`` process per seed) and summarize it::

    python3 perfbench/repeat.py run --workload taxi-syn1060 --seeds 1 2 3 4 5 \\
        --trace 0 --label A

Each end-to-end metric is reported as its median and its quartile spread
(``statistics.quantiles(values, n=4)``, Q3 - Q1, as a share of the
median).  The set is saved to ``perfbench/out/set-<workload>-trace<t>-<label>.json``.

Compare two saved sets of the same workload::

    python3 perfbench/repeat.py compare SET_A.json SET_B.json

prints each metric's median drift (B against A) and whether tour hashes
and exact work counts repeat for the seeds both sets ran.  Comparing an
untraced set (A) with a traced set (B) of the same seeds gives the
tracing overhead on ``solve_s`` and ``req_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import OUT_DIR, ROOT

#: Per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "macro.position_steps", "macro.subproblems", "kernels.anneal_calls",
    "engine.wave_tasks", "engine.task_bytes", "engine.result_bytes",
    "clustering.fixing_calls", "clustering.submatrix_hits",
    "clustering.submatrix_misses", "clustering.submatrix_evictions",
)


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else 0.0


def run_set(args: argparse.Namespace) -> None:
    runs = {}
    for seed in args.seeds:
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        record = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        report = json.loads(record.read_text())
        runs[str(seed)] = {
            "end_to_end": report["end_to_end"],
            "per_layer": report["per_layer"],
            "failed": report["failed"],
            "tour_hashes": report.get("tour_hash_digest") or report["tour_hashes"],
        }
        print(f"seed {seed}: solve_s={report['end_to_end']['solve_s']:.4f} "
              f"failed={report['failed']}", flush=True)
    path = OUT_DIR / f"set-{args.workload}-trace{args.trace}-{args.label}.json"
    path.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                "runs": runs}, indent=1) + "\n")
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s}")
    for name in runs[str(args.seeds[0])]["end_to_end"]:
        mid, share = spread([run["end_to_end"][name] for run in runs.values()])
        print(f"{name:14s} {mid:12.6g} {share:8.2%}")
    print(f"saved {path.relative_to(ROOT)}")


def compare(args: argparse.Namespace) -> None:
    first = json.loads(open(args.first).read())
    second = json.loads(open(args.second).read())
    print(f"{'metric':14s} {'median A':>12s} {'median B':>12s} {'B - A':>12s} {'share':>8s}")
    for name in next(iter(first["runs"].values()))["end_to_end"]:
        a = statistics.median(r["end_to_end"][name] for r in first["runs"].values())
        b = statistics.median(r["end_to_end"][name] for r in second["runs"].values())
        print(f"{name:14s} {a:12.6g} {b:12.6g} {b - a:12.6g} {(b - a) / a:8.2%}")
    common_seeds = sorted(set(first["runs"]) & set(second["runs"]), key=int)
    hashes_equal = all(first["runs"][s]["tour_hashes"] == second["runs"][s]["tour_hashes"]
                       for s in common_seeds)
    print(f"tour hashes identical on seeds {common_seeds}: {hashes_equal}")
    if first["trace"] and second["trace"]:
        counts_equal = all(
            first["runs"][s]["per_layer"].get(key) == second["runs"][s]["per_layer"].get(key)
            for s in common_seeds for key in EXACT_COUNTS)
        print(f"exact counts identical: {counts_equal}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", type=int, nargs="+", required=True)
    run.add_argument("--seconds", type=int, default=20)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--label", default="A")
    run.set_defaults(handler=run_set)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    cmp.set_defaults(handler=compare)
    args = parser.parse_args()
    args.handler(args)


if __name__ == "__main__":
    main()
