"""One fresh process of a taxi workload: set up, then solve (or just set up).

Started by ``run.py`` with the parent's ``time.monotonic()`` at spawn, so
``setup_s`` covers interpreter start, imports, instance generation and
solver construction.  ``--setup-only`` exits right where the solve would
start.  Otherwise the process solves the instance at least twice (the
first solve is cold, later ones are warm) and keeps solving while the
next solve is expected to end within ``--budget`` seconds.  Prints one
JSON object on stdout.

The host's speed swings by tens of percent within seconds (a shared
2-core VM), so set-up and solve times are normalised by a host-speed
probe: a fixed loop of small numpy operations, like the anneal kernel's,
run from ``SIGALRM`` every ``PROBE_INTERVAL_S``.  A normalised time is
the wall time minus the probes' wall time, scaled by
``PROBE_REFERENCE_S`` / the probes' mean CPU time over the same
interval: the time the step would take on a host where the probe loop
takes ``PROBE_REFERENCE_S``.  The probe runs in the measured thread
between the program's own steps, so it samples the host's speed over
the same seconds, and it starts no process.  On this VM a slow host
shows in CPU time as much as in wall time; CPU time leaves out the
probe's waits for a core while the solve's own pool workers run.
Set-up also counts ``SETUP_CALIBRATION`` probe samples taken right
after it.  Raw wall times are kept as ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

PROBE_ITERATIONS = 150
PROBE_INTERVAL_S = 0.05
#: About the probe loop's CPU time on a quiet 2-core Xeon VM.
PROBE_REFERENCE_S = 0.0014
#: Probe samples taken right after set-up: set-up is too short for the
#: timer alone to sample the host's speed well.
SETUP_CALIBRATION = 100


class Probe(NamedTuple):
    wall_s: float
    cpu_s: float


class SpeedProbe:
    """Times a fixed loop on every ``SIGALRM`` while active."""

    def __init__(self) -> None:
        self.samples: list[Probe] = []
        self._busy = False
        self._rng = np.random.default_rng(0)
        self._weights = self._rng.random((16, 16))
        self._order = np.arange(16)

    def sample(self) -> Probe:
        """One run of the probe loop, timed now."""
        self._busy = True
        cpu_start = time.thread_time()
        start = time.perf_counter()
        order = self._order
        for _ in range(PROBE_ITERATIONS):
            cost = self._weights[order] @ self._rng.random(16)
            best = int(np.argmin(cost))
            order[[0, best]] = order[[best, 0]]
        probe = Probe(time.perf_counter() - start, time.thread_time() - cpu_start)
        self._busy = False
        return probe

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.samples.append(self.sample())

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[Probe]:
        samples, self.samples = self.samples, []
        return samples


def probe_cpu_s(speed: list[Probe]) -> float:
    """The probe loop's mean CPU time over ``speed``: the host's slowness."""
    if not speed:
        raise SystemExit("the step ended before the first speed probe")
    return statistics.fmean(probe.cpu_s for probe in speed)


def normalised(wall_s: float, probed: list[Probe], speed: list[Probe]) -> float:
    """``wall_s`` less the ``probed`` time inside it, at the reference speed.

    ``speed`` holds the probe samples that stand for the host's speed
    over the interval.
    """
    return ((wall_s - sum(probe.wall_s for probe in probed))
            * PROBE_REFERENCE_S / probe_cpu_s(speed))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--instance", required=True)
    parser.add_argument("--sweeps", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="trace the solves and write spans here")
    args = parser.parse_args()
    with SpeedProbe() as speed:
        measure(args, speed)


def measure(args: argparse.Namespace, speed: SpeedProbe) -> None:
    from common import ROUNDING, check_tour, import_program

    import_program()
    from repro.core.config import TAXIConfig
    from repro.core.solver import TAXISolver
    from repro.tsp.benchmarks import load_benchmark
    from repro.utils.hashing import tour_hash

    tracer = probes = None
    if args.spans:
        from tracing import TaxiProbes, Tracer, self_times, totals

        tracer = Tracer()
        probes = TaxiProbes(tracer)
        probes.install()

    instance = load_benchmark(args.instance)
    metric = instance.metric.name
    if metric not in ROUNDING or instance.coords is None:
        raise SystemExit(f"{args.instance}: unsupported metric {metric}")
    solver = TAXISolver(TAXIConfig(
        sweeps=args.sweeps, workers=args.workers, seed=args.seed,
    ))
    setup_wall_s = time.monotonic() - args.spawned_at
    probed = speed.take()
    calibration = [speed.sample() for _ in range(SETUP_CALIBRATION)]
    setup_s = normalised(setup_wall_s, probed, probed + calibration)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    solves = []
    loop_start = time.monotonic()
    while True:
        run = f"solve{len(solves)}"
        span = nullcontext()
        if tracer is not None:
            tracer.run = run
            span = tracer.span("core.solve")
        speed.take()
        with span:
            start = time.perf_counter()
            result = solver.solve(instance)
            wall_s = time.perf_counter() - start
        probed = speed.take()
        record = {
            "seconds": normalised(wall_s, probed, probed),
            "wall_s": wall_s,
            "probe_cpu_s": probe_cpu_s(probed),
            "length": result.length,
            "tour_hash": tour_hash(result.tour.order),
            "error": check_tour(instance.coords, metric, result.tour.order,
                                result.length),
            "position_steps": result.total_iterations,
            "subproblems": result.total_subproblems,
            "phases": result.phase_seconds.as_dict(),
            "levels": result.hierarchy_depth,
        }
        if tracer is not None:
            spans = tracer.of_run(run)
            record["spans"] = totals(spans)
            record["self_s"] = self_times(spans)
            record["counts"] = probes.take_counts()
        solves.append(record)
        elapsed = time.monotonic() - loop_start
        if len(solves) >= 2 and elapsed + wall_s > args.budget:
            break

    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n": instance.n,
        "solves": solves,
    }))


if __name__ == "__main__":
    main()
