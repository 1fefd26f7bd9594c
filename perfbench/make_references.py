"""Regenerate ``references.json``: reference tour lengths for ``tour_ratio``.

Each length comes from the registry's deterministic ``two_opt`` solver
(nearest-neighbour or Hilbert start, k-NN candidate 2-opt/Or-opt, the
registry defaults).  Benchmark runs only read the file.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import time

from common import REFERENCES, import_program

#: Every instance a workload solves.
INSTANCES = ("syn76", "syn101", "syn200", "syn262", "syn1060", "syn33810")


def main() -> None:
    import_program()
    from repro.engine.registry import solve_with
    from repro.tsp.benchmarks import load_benchmark
    from repro.utils.hashing import tour_hash

    entries = {}
    for name in INSTANCES:
        instance = load_benchmark(name)
        start = time.perf_counter()
        tour = solve_with("two_opt", instance)
        seconds = time.perf_counter() - start
        entries[name] = {
            "n": instance.n,
            "length": float(tour.length),
            "tour_hash": tour_hash(tour.order),
        }
        print(f"{name}: n={instance.n} length={tour.length:.0f} "
              f"({seconds:.1f} s)", flush=True)
    payload = {
        "solver": "two_opt (registry defaults)",
        "command": "python3 perfbench/make_references.py",
        "instances": entries,
    }
    REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
