"""TAXISolver: the end-to-end public API."""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.clustering.agglomerative import cluster_with_max_size
from repro.clustering.hierarchy import build_hierarchy
from repro.clustering.kmeans import kmeans_with_max_size
from repro.core.config import TAXIConfig
from repro.core.pipeline import solve_hierarchical
from repro.core.result import PhaseTimes, TAXIResult
from repro.engine.wavefront import WavefrontPool
from repro.errors import ConfigError, SolverError
from repro.macro.batch import BatchedMacroSolver
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour
from repro.utils.rng import ensure_rng


class TAXISolver:
    """Hierarchical-clustering + Ising-macro TSP solver (the paper's system).

    Usage::

        result = TAXISolver(TAXIConfig(seed=0)).solve(instance)
        result.tour.length, result.phase_seconds.as_dict()

    The solver is deterministic for a given (config, instance) pair.
    """

    def __init__(self, config: TAXIConfig | None = None) -> None:
        self.config = config if config is not None else TAXIConfig()

    def solve(self, instance: TSPInstance, executor=None) -> TAXIResult:
        """Solve ``instance`` and return the tour with phase statistics.

        ``executor`` optionally overrides the wavefront pool implied by
        ``config.workers`` (tests inject thread/inline executors).
        """
        [result] = solve_taxi_replicas(
            instance, self.config, [self.config.seed], executor=executor
        )
        return result


def solve_taxi_replicas(
    instance: TSPInstance,
    config: TAXIConfig,
    seeds: list[int | None],
    executor=None,
) -> list[TAXIResult]:
    """Solve one instance once per replica seed, in one pipeline run.

    Each seed gets the result ``TAXISolver(replace(config,
    seed=seed)).solve(instance)`` would produce, bit-for-bit.  The
    replicas share one hierarchy and one distance-submatrix cache, and
    each level's chunks of every replica anneal as one ragged kernel
    batch (see :func:`repro.core.pipeline.solve_hierarchical`).  Sharing one
    hierarchy needs ``clustering="ward"`` once there are several seeds:
    k-means clusters with a per-seed draw.
    """
    if instance.n <= 3:
        # Degenerate: any permutation is optimal.
        return [
            TAXIResult(
                tour=Tour(instance, np.arange(instance.n)),
                phase_seconds=PhaseTimes(),
                hierarchy_depth=1,
                max_cluster_size=config.max_cluster_size,
                bits=config.bits,
            )
            for _ in seeds
        ]
    if instance.coords is None:
        raise SolverError(
            "TAXI requires coordinate instances (clustering operates "
            "on city coordinates)"
        )
    if len(seeds) > 1 and config.clustering != "ward":
        raise ConfigError(
            "replicas share one hierarchy, which needs clustering='ward' "
            f"(got {config.clustering!r})"
        )
    rngs = [ensure_rng(seed) for seed in seeds]
    # Every solve's first draw is the cluster seed (ward ignores it).
    cluster_seeds = [int(rng.integers(0, 2**31 - 1)) for rng in rngs]
    # One pool per solve: the Ward KD blocks and re-splits, then the waves.
    with WavefrontPool(workers=config.workers, executor=executor) as pool:
        if config.clustering == "ward":
            cluster_fn = functools.partial(cluster_with_max_size, map=pool.map)
        else:
            def cluster_fn(points: np.ndarray, max_size: int) -> np.ndarray:
                return kmeans_with_max_size(points, max_size, seed=cluster_seeds[0])

        start = time.perf_counter()
        hierarchy = build_hierarchy(instance, config.max_cluster_size, cluster_fn)
        clustering_seconds = (time.perf_counter() - start) / len(seeds)

        solvers = [
            BatchedMacroSolver(config.macro_config(), seed=rng)
            for rng in rngs
        ]
        results = solve_hierarchical(
            hierarchy,
            solvers,
            config.schedule(),
            endpoint_fixing=config.endpoint_fixing,
            chunk_size=config.chunk_size,
            pool=pool,
        )
    out: list[TAXIResult] = []
    for order, times, level_stats in results:
        times.clustering = clustering_seconds
        out.append(
            TAXIResult(
                tour=Tour(instance, order, closed=True),
                phase_seconds=times,
                level_stats=level_stats,
                hierarchy_depth=hierarchy.depth,
                max_cluster_size=config.max_cluster_size,
                bits=config.bits,
            )
        )
    return out
