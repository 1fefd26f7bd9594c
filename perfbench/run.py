"""The repository's benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload taxi-syn1060 --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``taxi-syn1060``, ``taxi-syn33810`` and
``serve-2shard``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
separate traced run, whose spans are written to ``perfbench/out/``.
Every run also writes its full record (samples, tour hashes, counters)
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SetupError,
    import_program,
    load_references,
    median,
    metric_units,
    percentile,
    program_env,
)

WORKLOADS = {
    # The paper's schedule (1341 sweeps), default TAXIConfig, inline.
    "taxi-syn1060": {"instance": "syn1060", "sweeps": None, "workers": 1},
    # pla33810 stand-in, above the full-matrix limit, 2 pool workers.
    "taxi-syn33810": {"instance": "syn33810", "sweeps": 60, "workers": 2},
    "serve-2shard": {},
}

#: Set-up samples per run: fresh processes (taxi) or fresh fleets (serve).
TAXI_SETUPS = 5
SERVE_SETUPS = 3
CHILD_TIMEOUT = 170.0
#: Cold requests (in schedule order) whose tour hashes form the digest.
HASHED_COLD = 32


# ----------------------------------------------------------------------
# taxi workloads
# ----------------------------------------------------------------------
def _child(args: list[str], env: dict) -> dict:
    spawned_at = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "taxi_child.py"), *args,
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"taxi child failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_taxi(name: str, seed: int, seconds: float, trace: bool, env: dict,
             references: dict) -> dict:
    spec = WORKLOADS[name]
    args = ["--instance", spec["instance"], "--workers", str(spec["workers"]),
            "--seed", str(seed)]
    if spec["sweeps"] is not None:
        args += ["--sweeps", str(spec["sweeps"])]
    setup_runs = []
    if not trace:
        setup_runs = [_child(args + ["--setup-only"], env)
                      for _ in range(TAXI_SETUPS - 1)]
    args += ["--budget", str(seconds)]
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    if trace:
        args += ["--spans", str(spans_path)]
    out = _child(args, env)
    setup_runs.append(out)
    setups = [setup["setup_s"] for setup in setup_runs]

    solves = out["solves"]
    for solve in solves[1:]:
        if solve["error"] is None and solve["tour_hash"] != solves[0]["tour_hash"]:
            solve["error"] = "repeat solve of the same seed gave another tour"
    failed = sum(solve["error"] is not None for solve in solves)
    times = [solve["seconds"] for solve in solves]
    cold, warm = times[:1], times[1:]
    reference = references[spec["instance"]]
    end_to_end = {
        "solve_s": median(times),
        "tour_ratio": median([s["length"] / reference for s in solves]),
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": median(setups),
        "req_per_s": len(times) / sum(times),
        "cold_p50_s": percentile(cold, 50),
        "cold_p90_s": percentile(cold, 90),
        "warm_p50_s": percentile(warm, 50),
        "warm_p90_s": percentile(warm, 90),
    }
    per_layer = {"failed_frac": failed / len(solves)}
    checks = {}
    if trace:
        layers = [_taxi_layers(solve) for solve in solves]
        per_layer.update({key: median([layer[key] for layer in layers])
                          for key in layers[0]})
        # Attribution: the share of a solve's wall time each layer's span
        # covers (spans are raw wall time, probes included, like wall_s).
        wall = median([solve["wall_s"] for solve in solves])
        checks = {f"{key} / wall_s": per_layer[key] / wall
                  for key in ("macro.solve_all_s", "clustering.hierarchy_s")}
    return {
        "attempted": len(solves),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {"solve_s": times, "wall_s": [s["wall_s"] for s in solves],
                    "probe_cpu_s": [s["probe_cpu_s"] for s in solves],
                    "setup_s": setups,
                    "setup_wall_s": [s["setup_wall_s"] for s in setup_runs]},
        "tour_hashes": [solve["tour_hash"] for solve in solves],
        "errors": [solve["error"] for solve in solves if solve["error"]],
        "solves": solves,
        "spans": str(spans_path) if trace else None,
        "checks": checks,
    }


def _taxi_layers(solve: dict) -> dict[str, float]:
    spans = solve["spans"]

    def seconds(span: str) -> float:
        return spans.get(span, (0.0, 0))[0]

    def calls(span: str) -> int:
        return spans.get(span, (0.0, 0))[1]

    counts = solve["counts"]
    return {
        "clustering.hierarchy_s": seconds("clustering.hierarchy"),
        "clustering.fixing_s": seconds("clustering.fixing"),
        "clustering.fixing_calls": calls("clustering.fixing"),
        "clustering.submatrix_hits": counts["clustering.submatrix_hits"],
        "clustering.submatrix_misses": counts["clustering.submatrix_misses"],
        "clustering.submatrix_evictions": counts["clustering.submatrix_evictions"],
        "macro.solve_all_s": seconds("macro.solve_all"),
        "kernels.anneal_s": seconds("kernels.anneal"),
        "kernels.anneal_calls": calls("kernels.anneal"),
        "macro.position_steps": solve["position_steps"],
        "macro.subproblems": solve["subproblems"],
        "pipeline.ising_s": solve["phases"]["ising"],
        "pipeline.merge_s": solve["phases"]["merge"],
        "pipeline.levels": solve["levels"],
        "engine.wave_map_s": seconds("engine.wave_map"),
        "engine.wave_tasks": counts["engine.wave_tasks"],
        "engine.task_bytes": counts["engine.task_bytes"],
        "engine.result_bytes": counts["engine.result_bytes"],
    }


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool, env: dict,
              references: dict) -> dict:
    from repro.tsp.benchmarks import load_benchmark
    from serve import (
        INSTANCES,
        Fleet,
        LoadRun,
        build_schedule,
        counter_deltas,
        hit_latency_p50,
    )
    from tracing import Tracer, self_times, totals

    coords = {}
    for name in INSTANCES:
        instance = load_benchmark(name)
        coords[name] = (instance.coords, instance.metric.name)
    schedule = build_schedule(seed)
    tracer = Tracer(run="serve") if trace else None
    setups = []
    for attempt in range(SERVE_SETUPS):
        fleet = Fleet(env, OUT_DIR / f"serve-seed{seed}-fleet{attempt}.log")
        setups.append(fleet.setup_s)
        if attempt < SERVE_SETUPS - 1:
            fleet.stop()
    try:
        load = LoadRun(fleet.port, schedule, coords, tracer)
        load.warm_up()
        before = fleet.get("/stats")
        wall = load.run(seconds)
        after = fleet.get("/stats")
        metrics = fleet.get("/metrics")
        peak_rss_mb = fleet.peak_rss_mb()
    finally:
        fleet.stop()

    records = load.records
    ok = [r for r in records.values() if r["error"] is None]
    cold = [r for r in ok if r["kind"] == "cold"]
    warm = [r for r in ok if r["kind"] == "warm"]
    if not cold or not warm:
        raise RuntimeError("the run answered no cold or no warm request")
    cold_latency = [r["latency_s"] for r in cold]
    warm_latency = [r["latency_s"] for r in warm]
    solve_seconds = [r["solve_seconds"] for r in cold]
    end_to_end = {
        "solve_s": median(solve_seconds),
        "tour_ratio": median([r["length"] / references[r["instance"]] for r in cold]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setups),
        "req_per_s": len(ok) / wall,
        "cold_p50_s": percentile(cold_latency, 50),
        "cold_p90_s": percentile(cold_latency, 90),
        "warm_p50_s": percentile(warm_latency, 50),
        "warm_p90_s": percentile(warm_latency, 90),
    }
    deltas = counter_deltas(before, after)
    per_layer = {
        "engine.worker_setup_s": median([r["setup_seconds"] for r in cold]),
        "engine.worker_solve_s": median(solve_seconds),
        "engine.arena_bytes": after.get("arena", {}).get("bytes", 0),
        "engine.pool_respawns": deltas["pool_respawns"],
        "engine.retries": deltas["retries"],
        "service.overhead_s": median([
            r["latency_s"] - r["solve_seconds"] - r["setup_seconds"] for r in cold
        ]),
        "service.hit_s": hit_latency_p50(metrics),
        "service.cache_hits": deltas["cache_hits"],
        "service.cache_misses": deltas["cache_misses"],
        "service.windows": deltas["windows"],
        "service.mean_batch": (deltas["batched_requests"] / deltas["windows"]
                               if deltas["windows"] else 0.0),
        "failed_frac": (len(records) - len(ok)) / len(records),
    }
    cold_hashes = {index: records[index]["tour_hash"]
                   for index in sorted(records)
                   if records[index]["kind"] == "cold"}
    hashed = list(cold_hashes.values())[:HASHED_COLD]
    spans_path = None
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-serve-2shard-seed{seed}.jsonl"
        tracer.write(spans_path)
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {
            "setup_s": setups, "cold": len(cold), "warm": len(warm), "wall_s": wall,
            "cold_latency_by_instance": {
                name: sorted(r["latency_s"] for r in cold if r["instance"] == name)
                for name in INSTANCES
            },
        },
        "tour_hashes": cold_hashes,
        "tour_hash_digest": (len(hashed), _digest(hashed)),
        "errors": sorted({r["error"] for r in records.values() if r["error"]}),
        "counters": deltas,
        "spans": str(spans_path) if spans_path else None,
        "span_totals": totals(tracer.spans) if tracer else None,
        "span_self_s": self_times(tracer.spans) if tracer else None,
    }


def _digest(hashes: list[str]) -> str:
    return hashlib.sha256(",".join(hashes).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        env = program_env()
        import_program()
        references = load_references()
        units = metric_units("per_layer" if args.trace else "end_to_end")
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "serve-2shard":
        report = run_serve(args.seed, args.seconds, trace, env, references)
    else:
        report = run_taxi(args.workload, args.seed, args.seconds, trace, env,
                          references)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1, default=str) + "\n")

    # A layer off this workload's traced path reads 0.
    values = report["per_layer"] if trace else report["end_to_end"]
    if trace:
        values = {name: values.get(name, 0.0) for name in units}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['attempted']} attempted, {report['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    if trace:
        for name, value in report.get("checks", {}).items():
            print(f"  check {name} = {value:.3f}")
        print(f"  traced solve_s {report['end_to_end']['solve_s']:.6g} s, "
              f"req_per_s {report['end_to_end']['req_per_s']:.6g} 1/s")
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
