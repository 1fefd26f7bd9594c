#!/usr/bin/env python
"""CI scale smoke: a sparse n=50k solve under a hard memory cap.

Three gates, any of which failing is a real regression:

1. ``RLIMIT_AS`` is set before anything heavy imports, so a full
   (n, n) materialization anywhere in the path dies with
   ``MemoryError`` instead of slowly swapping a CI runner (a 50k
   float64 matrix alone is 20 GB).
2. ``TSPInstance.distance_matrix`` is instrumented during the big
   solve: any call for an instance above the sparse threshold is
   recorded and fails the run — the sparse path must never even ask.
3. The ``scale`` bench grid must produce nonzero cells and a finite
   curvature exponent at the (small) smoke sizes.

Usage::

    python tools/scale_smoke.py                  # n=50000, 2 GiB cap
    python tools/scale_smoke.py --n 20000 --mem-gib 3
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50_000,
                        help="clustered instance size for the big solve")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mem-gib", type=float, default=2.0,
                        help="RLIMIT_AS cap in GiB")
    parser.add_argument("--bench-sizes", nargs="*", type=int,
                        default=[5000, 10000],
                        help="scale bench grid sizes for the payload gate")
    parser.add_argument("--out", default=None,
                        help="optional JSON summary path")
    args = parser.parse_args(argv)

    cap = int(args.mem_gib * 1024 ** 3)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    from repro.engine.bench import run_bench
    from repro.engine.registry import build_solver
    from repro.tsp.generators import clustered_instance
    from repro.tsp.instance import TSPInstance
    from repro.utils.hashing import tour_hash

    # Gate 2: record every full-matrix request made while the sparse
    # solve runs.  The small bench cells later are allowed to build
    # matrices (they sit under the dense threshold), so the guard is
    # scoped to the big solve only.
    oversized_calls: list[int] = []
    original = TSPInstance.distance_matrix

    def guarded(self):
        oversized_calls.append(self.n)
        return original(self)

    instance = clustered_instance(args.n, seed=args.seed)
    solver = build_solver("two_opt", seed=0, k=6, max_rounds=2)
    TSPInstance.distance_matrix = guarded
    try:
        start = time.perf_counter()
        tour = solver(instance)
        seconds = time.perf_counter() - start
    finally:
        TSPInstance.distance_matrix = original

    if oversized_calls:
        print(f"FAIL: distance_matrix() called during the sparse solve "
              f"(instance sizes: {sorted(set(oversized_calls))})",
              file=sys.stderr)
        return 1

    rss_unit = 1 if sys.platform == "darwin" else 1024
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * rss_unit
    print(f"sparse solve OK: n={args.n} length={tour.length:.0f} "
          f"hash={tour_hash(tour.order)} wall={seconds:.1f}s "
          f"peak_rss={peak_rss / 2**30:.2f} GiB")

    # Gate 3: the scale bench grid emits nonzero cells + curvature.
    payload = run_bench(
        quick=True, replica_batch_sizes=[], scale_sizes=args.bench_sizes,
        portfolio_sizes=[],
    )
    cells = [e for e in payload["entries"] if e["kind"] == "scale"]
    if not cells:
        print("FAIL: scale bench grid produced no cells", file=sys.stderr)
        return 1
    for cell in cells:
        if not (cell["seconds"] > 0 and cell["peak_rss_bytes"] > 0
                and cell["tour_hash"]):
            print(f"FAIL: degenerate scale cell {cell}", file=sys.stderr)
            return 1
    curvature = payload["scale_curvature"]
    if len(args.bench_sizes) >= 2 and not curvature:
        print("FAIL: no curvature rows for a multi-size grid",
              file=sys.stderr)
        return 1
    for row in curvature:
        print(f"curvature {row['n_from']} -> {row['n_to']}: "
              f"exponent {row['exponent']:.2f}")

    if args.out:
        summary = {
            "n": args.n,
            "seconds": seconds,
            "peak_rss_bytes": peak_rss,
            "tour_hash": tour_hash(tour.order),
            "scale_cells": cells,
            "scale_curvature": curvature,
        }
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    print("scale smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
