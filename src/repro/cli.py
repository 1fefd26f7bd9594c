"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     solve a benchmark size (or a TSPLIB file) with TAXI
``compare``   run TAXI against the comparator solvers on one instance
``batch``     fan a set of instances over seeded replicas (process pool)
``sweep``     sweep one solver parameter over a value list
``scenarios``  list or run the named workload scenarios
``serve``     run the solve service (HTTP, content-addressed result cache)
``loadtest``  drive the solve service with seeded traffic, report latency
``solvers``   list the solver registry
``bench``     time the replica fold, scale ladder and portfolio -> ``BENCH_<rev>.json``
``table1``    print the Table I circuit-simulation reproduction
``devices``   print the SOT-MRAM switching operating points
``bench-info``  list the benchmark registry

Examples::

    python -m repro solve --size 1060 --bits 4 --sweeps 300
    python -m repro solve --size 262 --workers 4   # cluster-parallel pipeline
    python -m repro solve --tsplib path/to/instance.tsp
    python -m repro compare --size 318
    python -m repro batch --instances 76 101 200 262 --replicas 4 --workers 4
    python -m repro sweep --size 318 --param sweeps --values 30 60 120
    python -m repro scenarios
    python -m repro scenarios --run ring-ladder --sweeps 60 --replicas 2
    python -m repro serve --port 8080 --workers 2
    python -m repro loadtest --instances 101 --concurrency 8 --requests 200
    python -m repro loadtest --http http://127.0.0.1:8080 --requests 50
    python -m repro bench --quick
    python -m repro table1
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import ascii_table, batch_table, format_seconds
from repro.core import TAXIConfig, TAXISolver
from repro.tsp.benchmarks import BENCHMARK_SIZES, benchmark_spec


#: bench --grid name -> the argparse attribute holding that grid's sizes.
_BENCH_GRID_SIZE_ARGS = {
    "replica_batch": "replica_batch_sizes",
    "scale": "scale_sizes",
    "portfolio": "portfolio_sizes",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAXI (DAC 2025) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve one instance (TAXI, or any registered solver)"
    )
    _instance_args(solve)
    solve.add_argument("--solver", default="taxi",
                       help="registered solver name (see `repro solvers`); "
                            "'portfolio' races a deadline-aware arm set")
    solve.add_argument("--budget", type=float, default=None,
                       help="portfolio compute budget in seconds "
                            "(default 2.0; drives the planned arm set)")
    solve.add_argument("--portfolio-mode", choices=("best", "first"),
                       default="best",
                       help="best: race every planned arm; first: stop at "
                            "the first acceptable arm and cancel the rest")
    solve.add_argument("--cluster-size", type=int, default=12,
                       help="maximum cluster size (macro capacity)")
    solve.add_argument("--bits", type=int, default=4, help="W_D bit precision")
    solve.add_argument("--sweeps", type=int, default=None,
                       help="annealing sweeps (default: full 1341-sweep ramp)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--clustering", choices=("ward", "kmeans"), default="ward")
    solve.add_argument("--no-fixing", action="store_true",
                       help="disable inter-cluster endpoint fixing")
    solve.add_argument("--workers", type=int, default=1,
                       help="wavefront pool width for the cluster-parallel "
                            "pipeline (any width is bit-identical to 1)")
    solve.add_argument("--reference", action="store_true",
                       help="also compute the Concorde-surrogate reference")

    compare = sub.add_parser("compare", help="TAXI vs comparator solvers")
    _instance_args(compare)
    compare.add_argument("--sweeps", type=int, default=134)
    compare.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch", help="solve a batch of instances over seeded replicas"
    )
    batch.add_argument(
        "--instances", nargs="+", default=["76", "101", "200", "262"],
        metavar="SPEC",
        help="instance tokens: benchmark size/name, TSPLIB path, or "
             "family:n[:seed] generator spec",
    )
    _engine_args(batch)
    batch.add_argument("--csv", type=str, default=None,
                       help="also export the summary table as CSV")

    sweep = sub.add_parser(
        "sweep", help="sweep one solver parameter over a value list"
    )
    _instance_args(sweep)
    _engine_args(sweep)
    sweep.add_argument("--param", required=True,
                       help="solver parameter to sweep (e.g. sweeps, bits)")
    sweep.add_argument("--values", nargs="+", required=True,
                       help="values to sweep (parsed as int/float/bool/str)")

    scenarios = sub.add_parser(
        "scenarios", help="list or run the named workload scenarios"
    )
    scenarios.add_argument("--run", metavar="NAME", default=None,
                           help="run one scenario through the batch engine "
                                "(default: list the registry)")
    _engine_args(scenarios)
    # No --solver means "the scenario's own default solver", so the
    # shared engine default of "taxi" must not mask Scenario.solver.
    scenarios.set_defaults(solver=None)
    scenarios.add_argument("--csv", type=str, default=None,
                           help="also export the summary table as CSV")

    serve = sub.add_parser(
        "serve", help="run the solve service (HTTP, result caching)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=1,
                       help="process-pool width for dispatched solve batches")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard the service across N worker processes "
                            "behind a routing front-end (fingerprints are "
                            "hash-routed, each shard owns its own queue, "
                            "cache, and pool; 1 = single process)")
    serve.add_argument("--arena", choices=("auto", "on", "off"),
                       default="auto",
                       help="shared-memory instance arena (auto = enabled "
                            "when workers > 1)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-connection socket timeout; frees handler "
                            "threads pinned by stalled or half-open clients")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max admitted-but-unsolved requests (backpressure)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="max requests taken into one dispatch round")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache capacity (LRU entries)")
    serve.add_argument("--cache-path", default=None,
                       help="JSON file for cache persistence across restarts")
    serve.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="deadline applied to requests that do not "
                            "send deadline_seconds themselves")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="pool-respawn and transient-retry budget "
                            "per dispatch round")
    serve.add_argument("--chaos-seed", type=int, default=None,
                       metavar="SEED",
                       help="enable server-side chaos injection with this "
                            "fault-schedule seed (worker kills, slow "
                            "solves, transient errors)")
    serve.add_argument("--chaos-kill-rate", type=float, default=0.08,
                       help="chaos: per-dispatch worker SIGKILL probability")
    serve.add_argument("--chaos-slow-rate", type=float, default=0.10,
                       help="chaos: per-task slow-solve probability")
    serve.add_argument("--chaos-slow-seconds", type=float, default=0.25,
                       help="chaos: max injected slow-solve delay")
    serve.add_argument("--chaos-transient-rate", type=float, default=0.05,
                       help="chaos: per-task transient-exception probability")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")

    loadtest = sub.add_parser(
        "loadtest",
        help="drive the solve service with seeded traffic and report "
             "latency percentiles, req/s, and cache behavior",
    )
    loadtest.add_argument("--instances", nargs="+", default=["101"],
                          metavar="SPEC",
                          help="instance tokens cold requests draw from "
                               "(registry size/name, TSPLIB path, "
                               "family:n[:seed] spec, or scenario:<name> "
                               "to expand a workload scenario)")
    loadtest.add_argument("--requests", type=int, default=100,
                          help="total requests in the schedule")
    loadtest.add_argument("--concurrency", type=int, default=8,
                          help="closed-loop worker count")
    loadtest.add_argument("--warm-ratio", type=float, default=0.5,
                          help="fraction of requests repeating an earlier "
                               "fingerprint (guaranteed cache hits)")
    loadtest.add_argument("--mode", choices=("closed", "open"),
                          default="closed",
                          help="closed-loop (issue on completion) or "
                               "open-loop (seeded Poisson arrivals)")
    loadtest.add_argument("--rate", type=float, default=50.0,
                          help="open-loop mean arrivals per second")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="master seed (fully determines the schedule)")
    loadtest.add_argument("--solver", default="taxi",
                          help="registered solver name")
    loadtest.add_argument("--sweeps", type=int, default=30,
                          help="annealing sweeps per request")
    loadtest.add_argument("--set", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="extra solver parameter (repeatable)")
    loadtest.add_argument("--http", default=None, metavar="URL",
                          help="drive a running repro serve at URL instead "
                               "of an in-process service")
    loadtest.add_argument("--workers", type=int, default=1,
                          help="in-process service pool width")
    loadtest.add_argument("--shards", type=int, default=1,
                          help="spawn a sharded fleet of N service "
                               "processes for the run and route to it "
                               "client-side by fingerprint")
    loadtest.add_argument("--timeout", type=float, default=300.0,
                          help="per-request completion timeout (seconds)")
    loadtest.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="per-request deadline_seconds sent with "
                               "every request")
    loadtest.add_argument("--max-retries", type=int, default=3,
                          help="client retries per request on 503 shed "
                               "responses (honors Retry-After)")
    loadtest.add_argument("--chaos", action="store_true",
                          help="inject seeded faults (worker kills, slow "
                               "solves, transient errors) into the "
                               "in-process service while driving it")
    loadtest.add_argument("--chaos-seed", type=int, default=None,
                          help="fault-schedule seed (default: --seed)")
    loadtest.add_argument("--chaos-kill-rate", type=float, default=0.08,
                          help="chaos: per-dispatch worker SIGKILL "
                               "probability")
    loadtest.add_argument("--chaos-slow-rate", type=float, default=0.10,
                          help="chaos: per-task slow-solve probability")
    loadtest.add_argument("--chaos-slow-seconds", type=float, default=0.25,
                          help="chaos: max injected slow-solve delay")
    loadtest.add_argument("--chaos-transient-rate", type=float, default=0.05,
                          help="chaos: per-task transient-exception "
                               "probability")
    loadtest.add_argument("--out", default=".",
                          help="output directory or explicit .json path "
                               "(default: LOADTEST_<rev>.json in the cwd)")

    bench = sub.add_parser(
        "bench",
        help="time the replica fold, the sparse scale ladder and the "
             "portfolio; exits 1 if a bit-identity or best-arm check fails",
    )
    bench.add_argument("--quick", action="store_true",
                       help="small grid (one cell or two per kind)")
    bench.add_argument("--grid", choices=tuple(_BENCH_GRID_SIZE_ARGS),
                       default=None,
                       help="run only one grid kind (explicit --*-sizes "
                            "lists still apply)")
    bench.add_argument("--out", default=".",
                       help="output directory or explicit .json path "
                            "(default: BENCH_<rev>.json in the cwd)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing repetitions per cell (best-of)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--replica-batch-sizes", nargs="*", type=int,
                       default=None,
                       help="replica-fold cell instance sizes "
                            "(empty list skips)")
    bench.add_argument("--scale-sizes", nargs="*", type=int, default=None,
                       help="sparse-path scale-ladder sizes (single run "
                            "per cell; empty list skips)")
    bench.add_argument("--portfolio-sizes", nargs="*", type=int, default=None,
                       help="portfolio-cell instance sizes (empty list "
                            "skips)")
    bench.add_argument("--portfolio-deadlines", nargs="*", type=float,
                       default=(0.5, 2.0),
                       help="deadline budgets (seconds) per portfolio cell")
    bench.add_argument("--replica-batch-replicas", type=int, default=8,
                       help="replicas per replica-fold cell")
    bench.add_argument("--replica-batch-sweeps", type=int, default=60)

    sub.add_parser("solvers", help="list the solver registry")
    sub.add_parser("table1", help="print the Table I reproduction")
    sub.add_parser("devices", help="print SOT-MRAM operating points")
    sub.add_parser("bench-info", help="list the benchmark registry")
    return parser


def _instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", nargs="?", default=None,
                        help="instance token: family:n[:seed] (e.g. "
                             "clustered:100000:7), a benchmark size, or a "
                             "TSPLIB path")
    group = parser.add_mutually_exclusive_group(required=False)
    group.add_argument("--size", type=int,
                       help="benchmark registry size (other sizes get a "
                            "seeded uniform instance)")
    group.add_argument("--tsplib", type=str, help="path to a TSPLIB file")


def _engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--solver", default="taxi",
                        help="registered solver name (see `repro solvers`)")
    parser.add_argument("--replicas", type=int, default=4,
                        help="seeded solver starts per instance")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: cpu count; "
                             "1 = serial, bit-identical to parallel)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--sweeps", type=int, default=None,
                        help="annealing sweeps (stochastic solvers)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="extra solver parameter (repeatable)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-replica progress lines")


def _instance_token(args: argparse.Namespace):
    """The instance token an ``_instance_args`` command was given.

    The positional token and the legacy ``--size``/``--tsplib`` flags
    are mutually exclusive; with neither, the paper's syn318 default.
    """
    token = getattr(args, "instance", None)
    if token is not None:
        if getattr(args, "size", None) is not None or getattr(args, "tsplib", None):
            raise SystemExit(
                "give either a positional instance token or "
                "--size/--tsplib, not both"
            )
        return token
    if getattr(args, "tsplib", None):
        return args.tsplib
    size = getattr(args, "size", None)
    return 318 if size is None else size


def _load_instance(args: argparse.Namespace):
    from repro.engine import resolve_instance

    return resolve_instance(_instance_token(args))


def _parse_value(text: str):
    """CLI value parsing for solver params: int, float, bool, else str."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _solver_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if getattr(args, "sweeps", None) is not None:
        params["sweeps"] = args.sweeps
    for item in getattr(args, "set", []):
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        params[key] = _parse_value(value)
    return params


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.clustering.agglomerative import ward_path
    from repro.kernels.macro import sweep_path
    from repro.utils.hashing import tour_hash

    instance = _load_instance(args)
    if args.solver == "portfolio":
        return _solve_portfolio(args, instance)
    if args.solver != "taxi":
        from repro.engine import solve_with

        params: dict = {}
        if args.sweeps is not None:
            params["sweeps"] = args.sweeps
        tour = solve_with(args.solver, instance, seed=args.seed, **params)
        print(f"instance      : {instance.name} ({instance.n} cities)")
        print(f"solver        : {args.solver}")
        print(f"tour length   : {tour.length:.0f}")
        print(f"tour hash     : {tour_hash(tour.order)}")
        return 0
    config = TAXIConfig(
        max_cluster_size=args.cluster_size,
        bits=args.bits,
        sweeps=args.sweeps,
        seed=args.seed,
        clustering=args.clustering,
        endpoint_fixing=not args.no_fixing,
        workers=args.workers,
    )
    result = TAXISolver(config).solve(instance)
    # The tour hash makes worker-count parity checkable from the CLI:
    # identical hashes mean bit-identical tours, not just equal lengths.
    # Shared with the service layer, so `repro serve` results are
    # directly comparable.
    print(f"instance      : {instance.name} ({instance.n} cities)")
    print(f"tour length   : {result.tour.length:.0f}")
    print(f"tour hash     : {tour_hash(result.tour.order)}")
    print(f"hierarchy     : {result.hierarchy_depth} levels, "
          f"{result.total_subproblems} sub-problems")
    for phase, seconds in result.phase_seconds.as_dict().items():
        print(f"  {phase:<10s}: {format_seconds(seconds)}")
    print(f"macro sweep   : {sweep_path(config.crossbar.variation.read_noise_sigma)}")
    if config.clustering == "ward":
        print(f"ward chain    : {ward_path()}")
    if args.reference:
        from repro.baselines import reference_length

        reference = reference_length(instance)
        print(f"reference     : {reference:.0f}")
        print(f"optimal ratio : {result.optimal_ratio(reference):.4f}")
    return 0


def _solve_portfolio(args: argparse.Namespace, instance) -> int:
    """``repro solve --solver portfolio``: race arms, print the ledger."""
    from repro.engine.portfolio import solve_portfolio
    from repro.utils.hashing import tour_hash

    result = solve_portfolio(
        instance,
        seed=args.seed,
        budget_seconds=args.budget if args.budget is not None else 2.0,
        mode=args.portfolio_mode,
    )
    print(f"instance      : {instance.name} ({instance.n} cities)")
    print(f"budget        : {result.budget_seconds:g}s ({result.mode})")
    print(f"winner        : {result.winner.label}")
    print(f"tour length   : {result.length:.0f}")
    print(f"tour hash     : {tour_hash(result.order)}")
    print(f"race wall     : {format_seconds(result.seconds)}")
    rows = [
        [
            outcome.arm.label,
            outcome.status,
            "-" if outcome.length is None else f"{outcome.length:.0f}",
            format_seconds(outcome.seconds),
            "warm" if outcome.warm else "",
        ]
        for outcome in result.outcomes
    ]
    print(ascii_table(
        ["arm", "status", "length", "wall", ""],
        rows, title="portfolio ledger",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import (
        CIMASolver,
        HVCSolver,
        IMASolver,
        NeuroIsingSolver,
        reference_length,
    )

    instance = _load_instance(args)
    reference = reference_length(instance)
    rows = []
    taxi = TAXISolver(TAXIConfig(sweeps=args.sweeps, seed=args.seed)).solve(instance)
    rows.append(["TAXI", f"{taxi.tour.length:.0f}",
                 f"{taxi.tour.length / reference:.3f}"])
    for solver in (
        HVCSolver(sweeps=args.sweeps, seed=args.seed),
        IMASolver(sweeps=args.sweeps, seed=args.seed),
        CIMASolver(sweeps=args.sweeps, seed=args.seed),
        NeuroIsingSolver(sweeps=args.sweeps, seed=args.seed),
    ):
        result = solver.solve(instance)
        rows.append([solver.name, f"{result.tour.length:.0f}",
                     f"{result.tour.length / reference:.3f}"])
    print(ascii_table(["solver", "length", "ratio vs reference"], rows,
                      title=f"{instance.name} ({instance.n} cities)"))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.core import EngineConfig
    from repro.engine import BatchJob, run_batch

    job = BatchJob.create(
        args.instances,
        solver=args.solver,
        params=_solver_params(args),
        engine=EngineConfig(
            replicas=args.replicas, workers=args.workers, seed=args.seed,
        ),
    )
    progress = None if args.quiet else _print_progress
    results = run_batch(job, progress=progress)
    workers = job.engine.resolved_workers(len(job.instances) * args.replicas)
    print(batch_table(
        results,
        title=f"batch: solver={args.solver} replicas={args.replicas} "
              f"workers={workers} seed={args.seed}",
    ))
    if args.csv:
        from repro.analysis import write_batch_csv

        write_batch_csv(results, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core import EngineConfig
    from repro.engine import BatchJob, run_batch

    token = _instance_token(args)
    base_params = _solver_params(args)
    if args.param == "seed":
        raise SystemExit("sweep the master seed via --seed, not --param seed")
    rows = []
    for raw in args.values:
        value = _parse_value(raw)
        params = dict(base_params)
        params[args.param] = value
        job = BatchJob.create(
            [token],
            solver=args.solver,
            params=params,
            engine=EngineConfig(
                replicas=args.replicas, workers=args.workers, seed=args.seed,
            ),
        )
        progress = None if args.quiet else _print_progress
        result = run_batch(job, progress=progress)[0]
        rows.append([
            str(raw),
            f"{result.best_length:.0f}",
            f"{result.median_length:.0f}",
            f"{result.percentile(90):.0f}",
            format_seconds(result.wall_seconds),
        ])
    print(ascii_table(
        [args.param, "best", "median", "p90", "wall"],
        rows,
        title=f"sweep: {args.param} on {token} "
              f"(solver={args.solver}, replicas={args.replicas})",
    ))
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.tsp.scenarios import get_scenario, scenario_job, scenario_names

    if args.run is None:
        rows = []
        for name in scenario_names():
            scenario = get_scenario(name)
            rows.append([
                name,
                str(len(scenario.tokens)),
                " ".join(scenario.tokens[:4])
                + (" ..." if len(scenario.tokens) > 4 else ""),
                scenario.description,
            ])
        print(ascii_table(["name", "instances", "tokens", "description"], rows,
                          title="scenario registry"))
        return 0

    from repro.analysis import batch_table
    from repro.engine import run_batch

    job = scenario_job(
        args.run,
        replicas=args.replicas,
        workers=args.workers,
        seed=args.seed,
        solver=args.solver,
        params=_solver_params(args),
    )
    progress = None if args.quiet else _print_progress
    results = run_batch(job, progress=progress)
    workers = job.engine.resolved_workers(len(job.instances) * args.replicas)
    print(batch_table(
        results,
        title=f"scenario {args.run}: solver={job.solver} "
              f"replicas={args.replicas} workers={workers} seed={args.seed}",
    ))
    if args.csv:
        from repro.analysis import write_batch_csv

        write_batch_csv(results, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.engine.bench import failed_checks, run_bench, write_bench

    if args.grid is not None:
        # Zero every other grid's sizes unless the user listed them
        # explicitly (an explicit --*-sizes always wins).
        for name, attr in _BENCH_GRID_SIZE_ARGS.items():
            if name != args.grid and getattr(args, attr) is None:
                setattr(args, attr, [])
    payload = run_bench(
        quick=args.quick,
        replica_batch_sizes=args.replica_batch_sizes,
        scale_sizes=args.scale_sizes,
        portfolio_sizes=args.portfolio_sizes,
        portfolio_deadlines=args.portfolio_deadlines,
        replica_batch_replicas=args.replica_batch_replicas,
        replica_batch_sweeps=args.replica_batch_sweeps,
        seed=args.seed,
        repeats=args.repeats,
    )
    rows = [
        [
            entry["kind"],
            entry["name"],
            str(entry["n"]),
            str(entry["sweeps"]),
            format_seconds(entry["seconds"]),
            "-" if entry["sweeps_per_sec"] is None else f"{entry['sweeps_per_sec']:.0f}",
            f"{entry['quality']:.1f}",
        ]
        for entry in payload["entries"]
    ]
    print(ascii_table(
        ["kind", "name", "n", "sweeps", "wall", "sweeps/s", "quality"],
        rows,
        title=f"bench @ {payload['revision']} (best of {payload['repeats']})",
    ))
    if payload.get("replica_batch_speedups"):
        rows = [
            [
                str(cell["n"]),
                str(cell["replicas"]),
                format_seconds(cell["tasks_seconds"]),
                format_seconds(cell["folded_seconds"]),
                f"{cell['speedup']:.2f}x",
                "yes" if cell["bit_identical"] else "NO",
            ]
            for cell in payload["replica_batch_speedups"]
        ]
        print()
        print(ascii_table(
            ["n", "replicas", "per-replica", "folded", "speedup",
             "bit-identical"],
            rows, title="folded replicas vs per-replica tasks",
        ))
    scale_cells = [e for e in payload["entries"] if e["kind"] == "scale"]
    if scale_cells:
        rows = [
            [
                str(cell["n"]),
                format_seconds(cell["seconds"]),
                f"{cell['peak_rss_bytes'] / 2**20:.0f} MiB",
                cell["tour_hash"],
            ]
            for cell in scale_cells
        ]
        print()
        print(ascii_table(
            ["n", "wall", "peak RSS", "tour hash"],
            rows, title="sparse-path scale ladder (single run per cell)",
        ))
    if payload.get("scale_curvature"):
        rows = [
            [
                f"{cell['n_from']} -> {cell['n_to']}",
                format_seconds(cell["seconds_from"]),
                format_seconds(cell["seconds_to"]),
                f"{cell['exponent']:.2f}",
            ]
            for cell in payload["scale_curvature"]
        ]
        print()
        print(ascii_table(
            ["sizes", "from", "to", "exponent"],
            rows, title="scale-ladder runtime curvature (1 = linear)",
        ))
    if payload.get("portfolio_curves"):
        rows = [
            [
                str(cell["n"]),
                f"{cell['deadline_seconds']:g}s",
                f"{cell['portfolio_quality']:.0f}",
                f"{cell['best_arm_quality']:.0f}",
                f"{cell['worst_arm_quality']:.0f}",
                cell["winner"],
                str(cell["arms_raced"]),
                "yes" if cell["beats_worst"] else "tie",
            ]
            for cell in payload["portfolio_curves"]
        ]
        print()
        print(ascii_table(
            ["n", "deadline", "portfolio", "best arm", "worst arm",
             "winner", "arms", "beats worst"],
            rows, title="portfolio quality vs deadline",
        ))
    path = write_bench(payload, args.out)
    print(f"wrote {path}")
    failures = failed_checks(payload)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _format_latency(seconds) -> str:
    return "-" if seconds is None else format_seconds(seconds)


def cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.core.config import LoadgenConfig
    from repro.engine.bench import loadtest_payload, write_bench
    from repro.service.loadgen import HTTPDriver, run_loadtest

    params: dict = {"sweeps": args.sweeps}
    for item in args.set:
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        params[key] = _parse_value(value)
    if args.chaos and args.http:
        raise SystemExit(
            "--chaos drives an in-process service; to chaos-test over "
            "HTTP start the server with `repro serve --chaos-seed ...` "
            "and drop --chaos here"
        )
    if args.shards > 1 and args.http:
        raise SystemExit(
            "--shards spawns its own fleet; to drive an existing sharded "
            "server point --http at its router and drop --shards here"
        )
    config = LoadgenConfig(
        instances=tuple(args.instances),
        requests=args.requests,
        concurrency=args.concurrency,
        warm_ratio=args.warm_ratio,
        mode=args.mode,
        rate=args.rate,
        solver=args.solver,
        params=tuple(sorted(params.items())),
        seed=args.seed,
        shards=args.shards,
        timeout=args.timeout,
        deadline=args.deadline,
        max_retries=args.max_retries,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        chaos_kill_rate=args.chaos_kill_rate,
        chaos_slow_rate=args.chaos_slow_rate,
        chaos_slow_seconds=args.chaos_slow_seconds,
        chaos_transient_rate=args.chaos_transient_rate,
    )
    driver = HTTPDriver(args.http) if args.http else None
    report = run_loadtest(config, driver=driver, workers=args.workers)
    summary = report.summary()
    rows = []
    for label in ("overall", "cold", "warm"):
        cell = summary["latency"][label]
        rows.append([
            label,
            str(cell["count"]),
            _format_latency(cell["p50"]),
            _format_latency(cell["p95"]),
            _format_latency(cell["p99"]),
            _format_latency(cell["mean"]),
            _format_latency(cell["max"]),
        ])
    print(ascii_table(
        ["requests", "count", "p50", "p95", "p99", "mean", "max"],
        rows,
        title=f"loadtest: {summary['driver']} {summary['mode']}-loop "
              f"concurrency={summary['concurrency']} seed={summary['seed']}"
              + (f" shards={summary['shards']}"
                 if summary.get("shards", 1) > 1 else ""),
    ))
    rps = summary["requests_per_sec"]
    print(f"wall          : {format_seconds(summary['wall_seconds'])}")
    print(f"throughput    : {rps:.1f} req/s" if rps else "throughput    : -")
    print(f"completed     : {summary['completed']}/{summary['requests']} "
          f"({summary['errors']} errors)")
    print(f"cold / warm   : {summary['scheduled_cold']} / "
          f"{summary['scheduled_warm']} scheduled")
    print(f"cache         : {summary['cache_hits']} hits, "
          f"{summary['cache_misses']} misses "
          f"(hit rate {summary['cache_hit_rate']:.2f})")
    print(f"mean batch    : {summary['mean_batch_size']:.2f} requests/dispatch")
    print(f"schedule hash : {summary['schedule_digest'][:16]}")
    classes = summary["error_classes"]
    if summary["errors"] or summary["client_retries"]:
        print("error classes : " + ", ".join(
            f"{name}={classes[name]}" for name in sorted(classes)
        ) + f" (client retries {summary['client_retries']})")
    chaos = summary.get("chaos")
    if chaos:
        injected = chaos.get("injected") or {}
        print(f"chaos         : {chaos['injection']} schedule "
              f"{(chaos.get('schedule_digest') or '-')[:16]} "
              f"(kills {injected.get('kills_injected', 0)}, "
              f"slow {injected.get('slow_injected', 0)}, "
              f"transient {injected.get('transient_injected', 0)})")
    for sample in summary["error_samples"]:
        print(f"error sample  : {sample}")
    path = write_bench(loadtest_payload(report), args.out, prefix="LOADTEST")
    print(f"wrote {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.config import ServiceConfig

    config = ServiceConfig(
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        cache_path=args.cache_path,
        workers=args.workers,
        default_deadline=args.default_deadline,
        max_retries=args.max_retries,
        arena=args.arena,
        request_timeout=args.request_timeout,
    )
    fault_config = None
    if args.chaos_seed is not None:
        from repro.service.faults import FaultConfig

        fault_config = FaultConfig(
            seed=args.chaos_seed,
            kill_rate=args.chaos_kill_rate,
            slow_rate=args.chaos_slow_rate,
            slow_seconds=args.chaos_slow_seconds,
            transient_rate=args.chaos_transient_rate,
        )
    if args.shards > 1:
        from repro.service.shards import ShardedService

        backend = ShardedService(args.shards, config, host=args.host,
                                 verbose=args.verbose,
                                 fault_config=fault_config)
    else:
        from repro.service.faults import FaultInjector
        from repro.service.queue import SolveService

        backend = SolveService(config, fault_injector=(
            FaultInjector(fault_config) if fault_config is not None else None
        ))
    from repro.service.http import serve_forever

    serve_forever(backend, host=args.host, port=args.port,
                  verbose=args.verbose)
    return 0


def cmd_solvers(_args: argparse.Namespace) -> int:
    from repro.engine import get_solver, solver_names

    rows = []
    for name in solver_names():
        spec = get_solver(name)
        params = ", ".join(p for p in spec.accepted_params() if p != "seed")
        rows.append([
            name,
            "stochastic" if spec.stochastic else "deterministic",
            spec.description,
            params or "-",
        ])
    print(ascii_table(["name", "kind", "description", "extra params"], rows,
                      title="solver registry"))
    return 0


def _print_progress(event) -> None:
    print(event, file=sys.stderr, flush=True)


def cmd_table1(_args: argparse.Namespace) -> int:
    from repro.macro.circuit_sim import CircuitSimulator

    print(CircuitSimulator.format_table(CircuitSimulator().table_i()))
    return 0


def cmd_devices(_args: argparse.Namespace) -> int:
    from repro.devices import (
        DETERMINISTIC_MIN_CURRENT,
        STOCHASTIC_CURRENT_RANGE,
        SwitchingCharacteristic,
    )
    from repro.utils.units import MICRO

    ch = SwitchingCharacteristic.from_paper_anchors()
    rows = [
        [f"{ua} uA", f"{100 * ch.probability(ua * MICRO):.2f} %"]
        for ua in (300, 353, 380, 420, 500, 650)
    ]
    print(ascii_table(["I_write", "P_sw"], rows, title="SOT-MRAM switching"))
    low, high = STOCHASTIC_CURRENT_RANGE
    print(f"stochastic window : {low / MICRO:.0f}-{high / MICRO:.0f} uA")
    print(f"deterministic     : > {DETERMINISTIC_MIN_CURRENT / MICRO:.0f} uA")
    return 0


def cmd_bench_info(_args: argparse.Namespace) -> int:
    rows = []
    for size in BENCHMARK_SIZES:
        spec = benchmark_spec(size)
        rows.append([spec.name, size, spec.real_name, spec.family])
    print(ascii_table(["name", "size", "stands in for", "family"], rows,
                      title="benchmark registry (synthetic, seeded)"))
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "batch": cmd_batch,
    "sweep": cmd_sweep,
    "scenarios": cmd_scenarios,
    "serve": cmd_serve,
    "loadtest": cmd_loadtest,
    "solvers": cmd_solvers,
    "bench": cmd_bench,
    "table1": cmd_table1,
    "devices": cmd_devices,
    "bench-info": cmd_bench_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def script_main() -> None:  # pragma: no cover - thin console-script wrapper
    """Entry point for the installed ``repro`` command.

    Same behavior as ``python -m repro``: library errors are reported
    as one-line messages, not tracebacks.
    """
    from repro.errors import ReproError

    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
