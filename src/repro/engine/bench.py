"""Bench harness for what perfbench does not measure -> ``BENCH_<rev>.json``.

The canonical benchmark is ``perfbench/`` (the paper's solve at n=1060
and n=33810 plus the 2-shard service).  This harness times the three
things it does not, and emits a JSON record keyed by the git revision::

    python -m repro bench --quick          # small grid
    python -m repro bench                  # full grid
    python -m repro bench --out results/   # BENCH_<rev>.json in results/

Three grid kinds:

* ``replica_batch`` — R per-replica taxi tasks vs one folded solve
  (:mod:`repro.engine.replica_batch`), both at ``workers=1``;
  per-replica tour hashes prove the fold is bit-identical to
  per-replica dispatch.
* ``scale`` — the sparse path (candidate-list two_opt, no distance
  matrix) on clustered instances up to n=100,000: seconds-vs-n plus
  each cell's own peak RSS (cells run in fresh spawned subprocesses,
  since ``ru_maxrss`` is a process-lifetime high-water mark), with the
  empirical runtime exponent between consecutive sizes in the
  ``scale_curvature`` payload.
* ``portfolio`` — the deadline-aware racing portfolio
  (:mod:`repro.engine.portfolio`) per (n, deadline) cell: the planned
  arms race at that budget and the ``portfolio_curves`` payload
  reports portfolio quality vs the best and worst fixed arm, so the
  quality-per-deadline tradeoff is tracked per revision.

Timing is best-of-``repeats`` to damp scheduler noise; quality is
reported from the first run of each cell.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone

import numpy as np

from repro.errors import ConfigError

#: Grid defaults per kind.
FULL_GRID = {
    "replica_batch_sizes": (500,),
    "scale_sizes": (5000, 20000, 50000, 100000),
    "portfolio_sizes": (200, 500),
}

QUICK_GRID = {
    "replica_batch_sizes": (120,),
    "scale_sizes": (5000, 10000),
    "portfolio_sizes": (120,),
}


def _time_call(fn, repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall seconds and the first run's result."""
    best = np.inf
    first = None
    for rep in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        if rep == 0:
            first = result
        best = min(best, seconds)
    return float(best), first


def _bench_replica_batch(sizes, sweeps, replicas, seed, repeats) -> list[dict]:
    """Replica-fold cells: R per-replica tasks vs one folded solve.

    Both modes run the same job — TAXI on a clustered instance at
    ``workers=1`` — once as R :func:`~repro.engine.runner.run_tasks`
    tasks and once through :func:`~repro.engine.runner.run_batch`,
    which folds the replicas, so the cell pair isolates the fold
    itself.  Per-replica tour hashes are recorded so the speedup table
    can assert bit-identity, not just equal lengths.
    """
    from repro.core.config import EngineConfig
    from repro.engine.jobs import BatchJob
    from repro.engine.runner import ReplicaTask, run_batch, run_tasks
    from repro.utils.hashing import tour_hash
    from repro.utils.rng import replica_seeds

    entries = []
    for n in sizes:
        job = BatchJob.create(
            [f"clustered:{int(n)}:{seed}"],
            solver="taxi",
            params={"sweeps": int(sweeps)},
            engine=EngineConfig(replicas=replicas, workers=1, seed=seed),
        )
        tasks = [
            ReplicaTask(
                spec=job.instances[0],
                solver=job.solver,
                params=job.params,
                seed=replica_seed,
                index=index,
                instance_index=index,
            )
            for index, replica_seed in enumerate(replica_seeds(seed, replicas))
        ]
        modes = {
            "tasks": lambda tasks=tasks: run_tasks(tasks),
            "folded": lambda job=job: run_batch(job)[0].replicas,
        }
        for mode, run in modes.items():
            seconds, results = _time_call(run, repeats)
            entries.append({
                "kind": "replica_batch",
                "name": f"taxi-{mode}",
                "n": int(n),
                "sweeps": int(sweeps),
                "replicas": int(replicas),
                "mode": mode,
                "seconds": seconds,
                "sweeps_per_sec": (
                    sweeps * replicas / seconds if seconds > 0 else None
                ),
                "quality": min(replica.length for replica in results),
                "replica_hashes": [
                    tour_hash(replica.order) for replica in results
                ],
            })
    return entries


def _scale_cell(n: int, seed: int) -> dict:
    """One scale cell, measured in the process that runs it.

    Module-level so it pickles into the per-cell subprocess.  The
    ``REPRO_BENCH_SCALE_BALLAST`` env hook (``"n:MiB,n:MiB"``) lets the
    RSS-isolation regression test make a designated cell's footprint
    unambiguous without solving a genuinely huge instance.
    """
    import resource

    from repro.engine.registry import build_solver
    from repro.tsp.generators import clustered_instance
    from repro.utils.hashing import tour_hash

    ballast = None
    spec = os.environ.get("REPRO_BENCH_SCALE_BALLAST", "")
    for pair in filter(None, spec.split(",")):
        cell, _, mib = pair.partition(":")
        if cell.strip() == str(n):
            ballast = bytearray(int(mib) << 20)  # zero-filled: pages resident
    solver = build_solver("two_opt", seed=seed, k=6, max_rounds=2)
    instance = clustered_instance(n, seed=seed)
    start = time.perf_counter()
    tour = solver(instance)
    seconds = time.perf_counter() - start
    del ballast
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    rss_unit = 1 if sys.platform == "darwin" else 1024
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "kind": "scale",
        "name": "two_opt-sparse",
        "n": int(n),
        "sweeps": 0,
        "seconds": seconds,
        "sweeps_per_sec": None,
        "quality": float(tour.length),
        "tour_hash": tour_hash(tour.order),
        "peak_rss_bytes": int(peak) * rss_unit,
    }


def _bench_scale(sizes, seed) -> list[dict]:
    """Sparse-mode scale cells: seconds-vs-n and peak RSS, no matrix.

    Each cell solves one clustered coords-only instance with the
    candidate-list two_opt solver (k=6, two improvement rounds) — the
    sizes sit far above ``_FULL_MATRIX_LIMIT``, so a cell that tried to
    materialize an (n, n) array would fail, not just run slowly.
    Cells run once (no best-of-``repeats``): a 100k solve takes minutes
    and repeats would triple the wall time without sharpening either
    column.

    Every cell runs in a **fresh spawned subprocess**: ``ru_maxrss`` is
    a process-lifetime high-water mark, so measuring cells in one
    process silently attributed an earlier big cell's peak to every
    later smaller cell.  Per-cell processes make ``peak_rss_bytes``
    each cell's own, at any size order (the caller's order is
    preserved; ``compute_scale_curvature`` sorts by n itself).
    """
    import concurrent.futures
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    entries = []
    for n in (int(n) for n in sizes):
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=context) as executor:
            entries.append(executor.submit(_scale_cell, n, seed).result())
    return entries


def _bench_portfolio(sizes, deadlines, seed) -> list[dict]:
    """Portfolio cells: quality vs deadline, portfolio vs each fixed arm.

    One cell per (n, deadline): the deadline becomes the portfolio's
    compute budget, the planned arms race in ``mode="best"``, and the
    entry records the winner plus every arm's standalone quality/time —
    so the ``portfolio_curves`` payload can show that the portfolio
    matches the best fixed arm (it picks the minimum over the same
    seeded runs) and by how much it beats the worst.
    """
    from repro.engine.arena import content_key
    from repro.engine.portfolio import plan_arms, race
    from repro.tsp.generators import clustered_instance
    from repro.utils.hashing import tour_hash

    entries = []
    for n in (int(n) for n in sizes):
        instance = clustered_instance(n, seed=seed)
        digest = content_key(instance)
        for deadline in (float(d) for d in deadlines):
            arms = plan_arms(
                n, budget_seconds=deadline, seed=seed, digest=digest)
            result = race(arms, instance=instance, mode="best")
            completed = [o for o in result.outcomes if o.status == "completed"]
            lengths = [o.length for o in completed]
            entries.append({
                "kind": "portfolio",
                "name": f"portfolio-d{deadline:g}",
                "n": n,
                "sweeps": 0,
                "seconds": result.seconds,
                "sweeps_per_sec": None,
                "quality": float(result.length),
                "deadline_seconds": deadline,
                "winner": result.winner.label,
                "tour_hash": tour_hash(result.order),
                "best_arm_quality": min(lengths),
                "worst_arm_quality": max(lengths),
                "arms": [
                    {
                        "label": o.arm.label,
                        "solver": o.arm.solver,
                        "status": o.status,
                        "length": o.length,
                        "seconds": o.seconds,
                    }
                    for o in result.outcomes
                ],
            })
    return entries


def compute_portfolio_curves(entries: list[dict]) -> list[dict]:
    """Quality-vs-deadline rows per portfolio cell, sorted (n, deadline).

    ``beats_worst`` marks cells where racing bought actual quality over
    the worst fixed arm at the same budget; ``matches_best`` should be
    True in every row (the portfolio picks the minimum over the same
    seeded arm runs) — a False here is a racing-driver regression.
    """
    cells = sorted(
        (e for e in entries if e["kind"] == "portfolio"),
        key=lambda e: (e["n"], e["deadline_seconds"]),
    )
    return [
        {
            "kind": "portfolio",
            "n": cell["n"],
            "deadline_seconds": cell["deadline_seconds"],
            "portfolio_quality": cell["quality"],
            "best_arm_quality": cell["best_arm_quality"],
            "worst_arm_quality": cell["worst_arm_quality"],
            "winner": cell["winner"],
            "arms_raced": sum(
                1 for arm in cell["arms"] if arm["status"] != "cancelled"
            ),
            "matches_best": cell["quality"] <= cell["best_arm_quality"],
            "beats_worst": cell["quality"] < cell["worst_arm_quality"],
        }
        for cell in cells
    ]


def compute_scale_curvature(entries: list[dict]) -> list[dict]:
    """Empirical runtime exponent between consecutive scale-grid sizes.

    For each adjacent size pair the exponent is
    ``log(t2/t1) / log(n2/n1)`` — ~1 means the sparse path scales
    linearly in n, ~2 would mean a quadratic term survived somewhere.
    """
    cells = sorted(
        (e for e in entries if e["kind"] == "scale"), key=lambda e: e["n"]
    )
    curvature = []
    for prev, cur in zip(cells, cells[1:]):
        if prev["seconds"] <= 0 or cur["seconds"] <= 0 or cur["n"] <= prev["n"]:
            continue
        curvature.append({
            "kind": "scale",
            "n_from": prev["n"],
            "n_to": cur["n"],
            "seconds_from": prev["seconds"],
            "seconds_to": cur["seconds"],
            "exponent": (
                math.log(cur["seconds"] / prev["seconds"])
                / math.log(cur["n"] / prev["n"])
            ),
            "peak_rss_bytes": cur["peak_rss_bytes"],
        })
    return curvature


def compute_replica_batch_speedups(entries: list[dict]) -> list[dict]:
    """Per-replica-vs-folded wall-time ratio per replica-batch cell."""
    by_cell: dict[tuple[int, int, int], dict[str, dict]] = {}
    for entry in entries:
        if entry["kind"] != "replica_batch":
            continue
        key = (entry["n"], entry["sweeps"], entry["replicas"])
        by_cell.setdefault(key, {})[entry["mode"]] = entry
    speedups = []
    for (n, sweeps, replicas), cell in sorted(by_cell.items()):
        if "tasks" not in cell or "folded" not in cell:
            continue
        tasks = cell["tasks"]
        folded = cell["folded"]
        speedups.append({
            "kind": "replica_batch",
            "n": n,
            "sweeps": sweeps,
            "replicas": replicas,
            "tasks_seconds": tasks["seconds"],
            "folded_seconds": folded["seconds"],
            "speedup": (
                tasks["seconds"] / folded["seconds"]
                if folded["seconds"] > 0 else None
            ),
            # Per-replica tour-order hashes: equality means every
            # replica's tour is bit-identical across dispatch modes.
            "bit_identical": tasks["replica_hashes"] == folded["replica_hashes"],
        })
    return speedups


def failed_checks(payload: dict) -> list[str]:
    """One line per summary row whose correctness check is false.

    A folded replica batch must reproduce every per-replica tour
    (``bit_identical``), and a ``mode="best"`` portfolio can never lose
    to the best arm it raced (``matches_best``).  Timings are never
    checked: they vary with the host.
    """
    failures = [
        f"replica_batch n={row['n']} replicas={row['replicas']}: folded "
        f"tours differ from the per-replica tasks"
        for row in payload["replica_batch_speedups"]
        if not row["bit_identical"]
    ]
    failures += [
        f"portfolio n={row['n']} deadline={row['deadline_seconds']:g}s: "
        f"portfolio {row['portfolio_quality']:.1f} > best arm "
        f"{row['best_arm_quality']:.1f}"
        for row in payload["portfolio_curves"]
        if not row["matches_best"]
    ]
    return failures


def git_revision() -> str:
    """Short git revision of the working tree, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def run_bench(
    quick: bool = False,
    *,
    replica_batch_sizes=None,
    scale_sizes=None,
    portfolio_sizes=None,
    portfolio_deadlines=(0.5, 2.0),
    replica_batch_sweeps: int = 60,
    replica_batch_replicas: int = 8,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Run the bench grid and return the BENCH payload (no file I/O).

    Explicit size lists override the quick/full grid defaults; pass an
    empty list to skip a grid kind entirely.
    """
    grid = QUICK_GRID if quick else FULL_GRID
    replica_batch_sizes = (
        grid["replica_batch_sizes"]
        if replica_batch_sizes is None else replica_batch_sizes
    )
    scale_sizes = grid["scale_sizes"] if scale_sizes is None else scale_sizes
    portfolio_sizes = (
        grid["portfolio_sizes"] if portfolio_sizes is None else portfolio_sizes
    )
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")

    entries: list[dict] = []
    if replica_batch_sizes:
        entries += _bench_replica_batch(
            replica_batch_sizes, replica_batch_sweeps,
            replica_batch_replicas, seed, repeats,
        )
    if scale_sizes:
        entries += _bench_scale(scale_sizes, seed)
    if portfolio_sizes:
        entries += _bench_portfolio(portfolio_sizes, portfolio_deadlines, seed)
    return {
        "schema": "repro-bench/1",
        "revision": git_revision(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": bool(quick),
        "seed": int(seed),
        "repeats": int(repeats),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "entries": entries,
        "replica_batch_speedups": compute_replica_batch_speedups(entries),
        "scale_curvature": compute_scale_curvature(entries),
        "portfolio_curves": compute_portfolio_curves(entries),
    }


def loadtest_entry(report, n: int | None = None) -> dict:
    """One BENCH-convention grid entry from a loadgen report.

    The single ``entries`` record of the ``repro loadtest`` payload, in
    the same shape as a bench cell.  ``quality`` carries requests/s
    (the serving analogue of sweeps/s).
    """
    summary = report.summary()
    sweeps = int(summary["params"].get("sweeps") or 0)
    return {
        "kind": "loadtest",
        "name": f"loadgen-{summary['mode']}",
        "n": int(n) if n is not None else 0,
        "sweeps": sweeps,
        "seconds": summary["wall_seconds"],
        "sweeps_per_sec": None,
        "quality": float(summary["requests_per_sec"] or 0.0),
        "requests": summary["requests"],
        "completed": summary["completed"],
        "errors": summary["errors"],
        "concurrency": summary["concurrency"],
        "requests_per_sec": summary["requests_per_sec"],
        "p50_seconds": summary["p50_seconds"],
        "p95_seconds": summary["p95_seconds"],
        "p99_seconds": summary["p99_seconds"],
        "cache_hit_rate": summary["cache_hit_rate"],
        "mean_batch_size": summary["mean_batch_size"],
        "schedule_digest": summary["schedule_digest"],
    }


def loadtest_payload(report) -> dict:
    """Wrap one loadgen report in the BENCH-convention envelope.

    What ``repro loadtest`` writes (``LOADTEST_<rev>.json``): the same
    schema/revision/platform header and ``entries`` list the bench
    emits, so the same tooling parses both, plus the full run
    ``summary`` and server-side metric snapshot.
    """
    summary = report.summary()
    return {
        "schema": "repro-bench/1",
        "revision": git_revision(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "kind": "loadtest",
        "seed": int(report.config.seed),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "entries": [loadtest_entry(report)],
        "summary": summary,
        "server_metrics": report.metrics,
    }


def write_bench(payload: dict, out: str = ".", prefix: str = "BENCH") -> str:
    """Write the payload as ``<prefix>_<rev>.json``; returns the path.

    ``out`` may be a directory (the canonical name is appended) or an
    explicit ``.json`` file path.
    """
    if out.endswith(".json"):
        path = out
        parent = os.path.dirname(out)
    else:
        path = os.path.join(out, f"{prefix}_{payload['revision']}.json")
        parent = out
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
