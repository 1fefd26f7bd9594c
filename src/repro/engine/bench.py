"""Perf-tracking bench harness: kernel/solver grids -> ``BENCH_<rev>.json``.

Times the annealing hot paths on a solver x size grid, once per
backend, and emits a JSON record (wall seconds, sweeps/sec, solution
quality, reference-vs-fast speedups) keyed by the git revision, so the
repo's perf trajectory is measurable from commit to commit::

    python -m repro bench --quick          # small grid, < ~1 min
    python -m repro bench                  # full grid
    python -m repro bench --out results/   # BENCH_<rev>.json in results/

Four grid kinds:

* ``ising``  — :class:`~repro.ising.annealer.MetropolisAnnealer` on a
  ring-lattice Ising model (sparse couplings: the checkerboard fast
  kernel's home turf, and the shape hardware annealers batch).
* ``sa_tsp`` — :class:`~repro.ising.sa_tsp.SimulatedAnnealingTSP` on
  seeded uniform instances (full distance matrix).
* ``engine`` — registered solvers through the multi-replica engine
  (:func:`~repro.engine.runner.run_replicas`), so macro-backend and
  end-to-end effects are captured too.
* ``pipeline`` — the hierarchical pipeline end-to-end at n >= 1000,
  serial (``workers=1``) vs wavefront dispatch (``workers>1``); tours
  are bit-identical at every width, so the cells measure pure dispatch
  cost/benefit.
* ``service`` — the solve service end-to-end: cold solve latency vs
  cache-hit latency for an identical fingerprint, plus sustained
  cache-hit requests/s through submit -> wait (the ``service_speedups``
  payload records the hit speedup per cell).
* ``loadtest`` — seeded concurrent traffic through the loadgen
  (:mod:`repro.service.loadgen`): closed-loop workers over a cold/warm
  request mix, reporting p50/p95/p99 latency, requests/s, cache hit
  rate, and mean dispatch batch size per cell.
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
reported from the first run of each cell (all cells share seeds, so
backends see identical instances).
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
from repro.kernels import BACKEND_FAST, BACKEND_REFERENCE, BACKENDS

#: Grid defaults: (ising sizes, tsp sizes, engine solvers, engine sizes,
#: hierarchical-pipeline sizes).
FULL_GRID = {
    "ising_sizes": (200, 500, 1000),
    "tsp_sizes": (100, 200, 500),
    "engine_solvers": ("taxi", "sa_tsp"),
    "engine_sizes": (76, 101),
    "pipeline_sizes": (1000, 2000),
    "service_sizes": (101, 262),
    "loadtest_sizes": (101,),
    "replica_batch_sizes": (500,),
    "scale_sizes": (5000, 20000, 50000, 100000),
    "portfolio_sizes": (200, 500),
}

#: The quick grid still covers the acceptance cells (Metropolis n=500
#: at 200 sweeps, SA-TSP n=200 at 400 sweeps, pipeline n=1000 serial
#: vs wavefront, one service cold-vs-cached cell) plus one engine cell.
QUICK_GRID = {
    "ising_sizes": (500,),
    "tsp_sizes": (200,),
    "engine_solvers": ("taxi",),
    "engine_sizes": (76,),
    "pipeline_sizes": (1000,),
    "service_sizes": (101,),
    "loadtest_sizes": (52,),
    "replica_batch_sizes": (120,),
    "scale_sizes": (2000, 5000),
    "portfolio_sizes": (120,),
}


def bench_ising_model(n: int, seed: int = 0):
    """A ring-lattice Ising model (degree 4, random Gaussian couplings).

    Sparse and small-chromatic-number by construction — the model class
    batched hardware annealers (and the checkerboard kernel) target.
    """
    from repro.ising.model import IsingModel

    rng = np.random.default_rng(seed)
    couplings = np.zeros((n, n))
    for offset in (1, 2):
        i = np.arange(n)
        j = (i + offset) % n
        w = rng.normal(size=n)
        couplings[i, j] = w
        couplings[j, i] = w
    fields = 0.1 * rng.normal(size=n)
    return IsingModel(couplings, fields=fields)


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


def _bench_ising(sizes, sweeps, seed, repeats, backends) -> list[dict]:
    from repro.ising.annealer import MetropolisAnnealer

    entries = []
    for n in sizes:
        model = bench_ising_model(n, seed=seed)
        for backend in backends:
            def run():
                annealer = MetropolisAnnealer(
                    sweeps=sweeps, seed=seed, backend=backend
                )
                return annealer.anneal(model)
            seconds, result = _time_call(run, repeats)
            entries.append({
                "kind": "ising",
                "name": "metropolis",
                "n": int(n),
                "sweeps": int(sweeps),
                "backend": backend,
                "seconds": seconds,
                "sweeps_per_sec": sweeps / seconds if seconds > 0 else None,
                "quality": float(result.energy),
            })
    return entries


def _bench_sa_tsp(sizes, sweeps, seed, repeats, backends) -> list[dict]:
    from repro.ising.sa_tsp import SimulatedAnnealingTSP
    from repro.tsp.generators import uniform_instance

    entries = []
    for n in sizes:
        instance = uniform_instance(n, seed=seed)
        matrix = instance.distance_matrix()
        for backend in backends:
            def run():
                solver = SimulatedAnnealingTSP(
                    sweeps=sweeps, seed=seed, backend=backend
                )
                return solver.solve(instance, matrix=matrix)
            seconds, tour = _time_call(run, repeats)
            entries.append({
                "kind": "sa_tsp",
                "name": "sa_tsp",
                "n": int(n),
                "sweeps": int(sweeps),
                "backend": backend,
                "seconds": seconds,
                "sweeps_per_sec": sweeps / seconds if seconds > 0 else None,
                "quality": float(tour.length),
            })
    return entries


def _bench_engine(solvers, sizes, sweeps, replicas, seed, repeats, backends) -> list[dict]:
    from repro.engine.runner import run_replicas

    entries = []
    for solver in solvers:
        for n in sizes:
            for backend in backends:
                def run():
                    return run_replicas(
                        n, solver=solver, replicas=replicas, seed=seed,
                        workers=1, sweeps=sweeps, backend=backend,
                    )
                seconds, batch = _time_call(run, repeats)
                entries.append({
                    "kind": "engine",
                    "name": solver,
                    "n": int(n),
                    "sweeps": int(sweeps),
                    "backend": backend,
                    "seconds": seconds,
                    "sweeps_per_sec": sweeps * replicas / seconds if seconds > 0 else None,
                    "quality": float(batch.best_length),
                })
    return entries


def _bench_pipeline(sizes, sweeps, workers_list, seed, repeats) -> list[dict]:
    """Hierarchical pipeline wall-time: serial vs wavefront dispatch.

    Each cell solves one clustered instance end-to-end through
    :class:`~repro.core.solver.TAXISolver` at a given wavefront pool
    width (``workers=1`` is the serial baseline; tours are
    bit-identical at every width, so the quality column doubles as a
    determinism check).
    """
    from repro.core.config import TAXIConfig
    from repro.core.solver import TAXISolver
    from repro.tsp.generators import clustered_instance
    from repro.utils.hashing import tour_hash

    entries = []
    for n in sizes:
        instance = clustered_instance(n, seed=seed)
        for workers in workers_list:
            def run():
                config = TAXIConfig(sweeps=sweeps, seed=seed, workers=workers)
                return TAXISolver(config).solve(instance)
            seconds, result = _time_call(run, repeats)
            order_hash = tour_hash(result.tour.order)
            entries.append({
                "kind": "pipeline",
                "name": f"taxi-w{workers}",
                "n": int(n),
                "sweeps": int(sweeps),
                "backend": "fast",
                "workers": int(workers),
                "seconds": seconds,
                "sweeps_per_sec": sweeps / seconds if seconds > 0 else None,
                "quality": float(result.tour.length),
                "tour_hash": order_hash,
            })
    return entries


#: Cache-hit submissions timed per service cell (requests/s sample).
_SERVICE_HIT_REQUESTS = 32


def _bench_service(sizes, sweeps, seed, repeats) -> list[dict]:
    """Solve-service cells: cold latency, cache-hit latency, requests/s.

    Each cell spins up one in-process :class:`SolveService`, pays a
    single cold solve, then measures repeated identical submissions
    (same fingerprint) that are answered from the result cache —
    exactly the reuse the serving layer exists for.
    """
    from repro.core.config import ServiceConfig
    from repro.service import SolveRequest, SolveService

    entries = []
    for n in sizes:
        with SolveService(ServiceConfig(batch_window=0.0)) as service:
            request = SolveRequest.create(
                f"uniform:{int(n)}:{seed}", solver="taxi",
                params={"sweeps": int(sweeps)}, seed=seed,
            )
            cold_start = time.perf_counter()
            cold = service.solve(request, timeout=600)
            cold_seconds = time.perf_counter() - cold_start
            assert cold.status == "done", cold.error
            hit_best = np.inf
            hit_total = 0.0
            hit_count = max(_SERVICE_HIT_REQUESTS, repeats)
            for _ in range(hit_count):
                start = time.perf_counter()
                hit = service.solve(request, timeout=60)
                elapsed = time.perf_counter() - start
                hit_best = min(hit_best, elapsed)
                hit_total += elapsed
            assert hit.cached and hit.result["tour_hash"] == cold.result["tour_hash"]
            cache_stats = service.cache.stats()
        entries.append({
            "kind": "service",
            "name": "taxi",
            "n": int(n),
            "sweeps": int(sweeps),
            "backend": "fast",
            "seconds": cold_seconds,
            "sweeps_per_sec": sweeps / cold_seconds if cold_seconds > 0 else None,
            "quality": float(cold.result["length"]),
            "tour_hash": cold.result["tour_hash"],
            "cached_seconds": float(hit_best),
            "cache_hit_requests_per_sec": (
                hit_count / hit_total if hit_total > 0 else None
            ),
            "cache_hits": cache_stats["hits"],
            "cache_misses": cache_stats["misses"],
        })
    return entries


def loadtest_entry(report, n: int | None = None) -> dict:
    """One BENCH-convention grid entry from a loadgen report.

    Shared by the ``loadtest`` grid kind and the standalone ``repro
    loadtest`` payload, so both land in the same perf-trajectory
    pipeline with identical keys.  ``quality`` carries requests/s (the
    serving analogue of sweeps/s).
    """
    summary = report.summary()
    sweeps = int(summary["params"].get("sweeps") or 0)
    return {
        "kind": "loadtest",
        "name": f"loadgen-{summary['mode']}",
        "n": int(n) if n is not None else 0,
        "sweeps": sweeps,
        "backend": "fast",
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


def _bench_loadtest(sizes, sweeps, requests, concurrency, seed) -> list[dict]:
    """Loadgen cells: seeded closed-loop traffic against an in-process
    service, reporting p50/p95/p99, req/s, hit rate, and batch size.

    Not best-of-``repeats``: one load test *is* a population of
    requests (its percentiles already damp scheduler noise), and the
    cold/warm ledger of a repeat run would be altered by the first
    run's warm cache.
    """
    from repro.core.config import LoadgenConfig
    from repro.service.loadgen import run_loadtest

    entries = []
    for n in sizes:
        config = LoadgenConfig(
            instances=(str(int(n)),),
            requests=requests,
            concurrency=concurrency,
            params=(("sweeps", int(sweeps)),),
            seed=seed,
        )
        entries.append(loadtest_entry(run_loadtest(config), n=n))
    return entries


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
                "backend": BACKEND_FAST,
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
        "backend": "fast",
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
                "backend": "fast",
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


def compute_service_speedups(entries: list[dict]) -> list[dict]:
    """Cold-vs-cached latency ratio per service grid cell."""
    speedups = []
    for entry in entries:
        if entry["kind"] != "service":
            continue
        cached = entry["cached_seconds"]
        speedups.append({
            "kind": "service",
            "name": entry["name"],
            "n": entry["n"],
            "sweeps": entry["sweeps"],
            "cold_seconds": entry["seconds"],
            "cached_seconds": cached,
            "requests_per_sec": entry["cache_hit_requests_per_sec"],
            "speedup": entry["seconds"] / cached if cached > 0 else None,
        })
    return speedups


def compute_pipeline_speedups(entries: list[dict]) -> list[dict]:
    """Serial-vs-wavefront wall-time ratio per pipeline grid cell."""
    by_n: dict[tuple[int, int], dict[int, dict]] = {}
    for entry in entries:
        if entry["kind"] != "pipeline":
            continue
        key = (entry["n"], entry["sweeps"])
        by_n.setdefault(key, {})[entry["workers"]] = entry
    speedups = []
    for (n, sweeps), cell in sorted(by_n.items()):
        serial = cell.get(1)
        if serial is None:
            continue
        for workers, entry in sorted(cell.items()):
            if workers == 1:
                continue
            speedups.append({
                "kind": "pipeline",
                "n": n,
                "sweeps": sweeps,
                "workers": workers,
                "serial_seconds": serial["seconds"],
                "wavefront_seconds": entry["seconds"],
                "speedup": (
                    serial["seconds"] / entry["seconds"]
                    if entry["seconds"] > 0 else None
                ),
                # Tour-order hash equality: equal lengths alone would
                # pass e.g. a reversed tour as "identical".
                "identical_quality": entry["tour_hash"] == serial["tour_hash"],
            })
    return speedups


def compute_speedups(entries: list[dict]) -> list[dict]:
    """Reference-vs-fast wall-time ratio for every matched grid cell."""
    by_cell: dict[tuple, dict[str, dict]] = {}
    for entry in entries:
        key = (entry["kind"], entry["name"], entry["n"], entry["sweeps"])
        by_cell.setdefault(key, {})[entry["backend"]] = entry
    speedups = []
    for (kind, name, n, sweeps), cell in sorted(by_cell.items()):
        if "reference" not in cell or "fast" not in cell:
            continue
        ref = cell["reference"]["seconds"]
        fast = cell["fast"]["seconds"]
        speedups.append({
            "kind": kind,
            "name": name,
            "n": n,
            "sweeps": sweeps,
            "reference_seconds": ref,
            "fast_seconds": fast,
            "speedup": ref / fast if fast > 0 else None,
        })
    return speedups


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
    ising_sizes=None,
    tsp_sizes=None,
    engine_solvers=None,
    engine_sizes=None,
    pipeline_sizes=None,
    service_sizes=None,
    loadtest_sizes=None,
    replica_batch_sizes=None,
    scale_sizes=None,
    portfolio_sizes=None,
    portfolio_deadlines=(0.5, 2.0),
    ising_sweeps: int = 200,
    tsp_sweeps: int = 400,
    engine_sweeps: int = 30,
    pipeline_sweeps: int = 60,
    service_sweeps: int = 30,
    loadtest_sweeps: int = 30,
    loadtest_requests: int = 32,
    loadtest_concurrency: int = 4,
    replica_batch_sweeps: int = 60,
    replica_batch_replicas: int = 8,
    pipeline_workers=(1, 4),
    replicas: int = 2,
    seed: int = 0,
    repeats: int = 3,
    backends=None,
) -> dict:
    """Run the bench grid and return the BENCH payload (no file I/O).

    Explicit size/solver lists override the quick/full grid defaults;
    pass an empty list to skip a grid kind entirely.
    """
    grid = QUICK_GRID if quick else FULL_GRID
    ising_sizes = grid["ising_sizes"] if ising_sizes is None else ising_sizes
    tsp_sizes = grid["tsp_sizes"] if tsp_sizes is None else tsp_sizes
    engine_solvers = grid["engine_solvers"] if engine_solvers is None else engine_solvers
    engine_sizes = grid["engine_sizes"] if engine_sizes is None else engine_sizes
    pipeline_sizes = (
        grid["pipeline_sizes"] if pipeline_sizes is None else pipeline_sizes
    )
    service_sizes = (
        grid["service_sizes"] if service_sizes is None else service_sizes
    )
    loadtest_sizes = (
        grid["loadtest_sizes"] if loadtest_sizes is None else loadtest_sizes
    )
    replica_batch_sizes = (
        grid["replica_batch_sizes"]
        if replica_batch_sizes is None else replica_batch_sizes
    )
    scale_sizes = grid["scale_sizes"] if scale_sizes is None else scale_sizes
    portfolio_sizes = (
        grid["portfolio_sizes"] if portfolio_sizes is None else portfolio_sizes
    )
    if backends is None:
        backends = (BACKEND_REFERENCE, BACKEND_FAST)
    backends = tuple(backends)
    unknown = set(backends) - set(BACKENDS)
    if unknown:
        raise ConfigError(
            f"unknown bench backend(s) {sorted(unknown)}; known: {', '.join(BACKENDS)}"
        )
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")

    entries: list[dict] = []
    entries += _bench_ising(ising_sizes, ising_sweeps, seed, repeats, backends)
    entries += _bench_sa_tsp(tsp_sizes, tsp_sweeps, seed, repeats, backends)
    if engine_solvers:
        entries += _bench_engine(
            engine_solvers, engine_sizes, engine_sweeps, replicas, seed,
            repeats, backends,
        )
    if pipeline_sizes:
        entries += _bench_pipeline(
            pipeline_sizes, pipeline_sweeps, tuple(pipeline_workers), seed,
            repeats,
        )
    if service_sizes:
        entries += _bench_service(service_sizes, service_sweeps, seed, repeats)
    if loadtest_sizes:
        entries += _bench_loadtest(
            loadtest_sizes, loadtest_sweeps, loadtest_requests,
            loadtest_concurrency, seed,
        )
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
        "speedups": compute_speedups(entries),
        "pipeline_speedups": compute_pipeline_speedups(entries),
        "service_speedups": compute_service_speedups(entries),
        "replica_batch_speedups": compute_replica_batch_speedups(entries),
        "scale_curvature": compute_scale_curvature(entries),
        "portfolio_curves": compute_portfolio_curves(entries),
    }


def loadtest_payload(report) -> dict:
    """Wrap one loadgen report in the BENCH-convention envelope.

    What ``repro loadtest`` writes (``LOADTEST_<rev>.json``): the same
    schema/revision/platform header and ``entries`` list the bench
    emits, so the perf-trajectory tooling parses both, plus the full
    run ``summary`` and server-side metric snapshot.
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
