"""Neuro-Ising baseline (paper ref [5]).

Neuro-Ising (Sanyal & Roy, TCAD 2022) accelerates large TSPs by
clustering the problem and letting a graph neural network decide which
localized sub-problems an Ising solver should (re-)optimize under a
fixed compute budget, executing sequentially on CPU/GPU.

Surrogate model (DESIGN.md substitution):

* k-means clustering into macro-sized sub-problems (their localized
  solvers are also size-bounded);
* a *selection budget* replaces the GNN: only the fraction of clusters
  with the worst initial routes is annealed; the rest keep their
  construction-order routes.  The budget is fixed in absolute terms, so
  the optimized fraction shrinks as the problem grows — reproducing the
  quality degradation with size the paper reports for Neuro-Ising;
* the latency model is sequential: per selected cluster, one GNN
  inference plus one software anneal — no macro parallelism — which is
  what makes TAXI 8x faster on average across the TSPLIB suite.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.hvc import BaselineResult
from repro.clustering.hierarchy import build_hierarchy
from repro.clustering.kmeans import kmeans_with_max_size
from repro.core.pipeline import solve_hierarchical
from repro.core.result import LevelStats, PhaseTimes
from repro.errors import SolverError
from repro.macro.batch import BatchedMacroSolver, SubProblem
from repro.macro.config import MacroConfig
from repro.macro.schedule import paper_schedule
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour
from repro.utils.rng import ensure_rng
from repro.utils.units import MICRO, MILLI

#: Modeled GNN inference time per cluster (one forward pass, small graph).
GNN_INFERENCE_SECONDS = 1.2 * MILLI

#: Modeled software Ising solve per cluster sweep (CPU, sequential).
CPU_SWEEP_SECONDS = 18.0 * MICRO

#: Clusters the selection budget can afford, independent of problem size.
DEFAULT_CLUSTER_BUDGET = 220


class NeuroIsingSolver:
    """GNN-guided localized Ising solver surrogate."""

    name = "Neuro-Ising"

    def __init__(
        self,
        max_cluster_size: int = 12,
        bits: int = 4,
        sweeps: int | None = None,
        cluster_budget: int = DEFAULT_CLUSTER_BUDGET,
        seed: int | None = 0,
    ) -> None:
        if max_cluster_size < 4:
            raise SolverError(
                f"max_cluster_size must be >= 4, got {max_cluster_size}"
            )
        if cluster_budget < 1:
            raise SolverError(f"cluster_budget must be >= 1, got {cluster_budget}")
        self.max_cluster_size = max_cluster_size
        self.bits = bits
        self.sweeps = sweeps
        self.cluster_budget = cluster_budget
        self.seed = seed

    def solve(self, instance: TSPInstance) -> BaselineResult:
        rng = ensure_rng(self.seed)
        kmeans_seed = int(rng.integers(0, 2**31 - 1))

        def cluster_fn(points: np.ndarray, max_size: int) -> np.ndarray:
            return kmeans_with_max_size(points, max_size, seed=kmeans_seed)

        hierarchy = build_hierarchy(instance, self.max_cluster_size, cluster_fn)
        macro = BatchedMacroSolver(
            MacroConfig(
                max_cities=self.max_cluster_size,
                bits=self.bits,
                guarded_updates=True,
            ),
            seed=rng,
        )
        selective = _SelectiveSolver(macro, self.cluster_budget)
        order, times, level_stats = solve_hierarchical(
            hierarchy, selective, paper_schedule(self.sweeps), endpoint_fixing=True
        )
        tour = Tour(instance, order)
        modeled = self.modeled_seconds(times, level_stats, selective.solved_clusters)
        return BaselineResult(self.name, tour, times, modeled_seconds=modeled)

    def modeled_seconds(
        self,
        times: PhaseTimes,
        level_stats: list[LevelStats],
        solved_clusters: int,
    ) -> float:
        """Sequential latency: clustering + per-cluster GNN + CPU anneal."""
        schedule_sweeps = paper_schedule(self.sweeps).sweeps
        anneal = solved_clusters * schedule_sweeps * CPU_SWEEP_SECONDS
        gnn = solved_clusters * GNN_INFERENCE_SECONDS
        return times.clustering + times.fixing + gnn + anneal


class _SelectiveSolver:
    """Batched-solver adapter that only anneals the worst clusters.

    Ranks sub-problems by their initial-route length relative to a
    nearest-neighbour-style lower proxy (the "GNN score") and solves
    only the top ``budget`` of them; the rest return their initial
    orders untouched — the fixed optimization budget of Neuro-Ising.
    """

    def __init__(self, macro: BatchedMacroSolver, budget: int) -> None:
        self._macro = macro
        self._budget = budget
        self.solved_clusters = 0

    def solve_all(self, problems: list[SubProblem], schedule):
        if not problems:
            return []
        if len(problems) <= self._budget:
            self.solved_clusters += len(problems)
            return self._macro.solve_all(problems, schedule)
        scores = np.asarray([_gain_score(p) for p in problems])
        chosen = set(np.argsort(-scores)[: self._budget].tolist())
        selected = [p for i, p in enumerate(problems) if i in chosen]
        solved = self._macro.solve_all(selected, schedule)
        self.solved_clusters += len(selected)
        solved_iter = iter(solved)
        results = []
        from repro.macro.batch import SubSolution

        for i, problem in enumerate(problems):
            if i in chosen:
                results.append(next(solved_iter))
            else:
                order = np.asarray(problem.initial_order)
                length = float(
                    problem.distances[order[:-1], order[1:]].sum()
                )
                results.append(
                    SubSolution(
                        order=order,
                        tag=problem.tag,
                        sweeps=0,
                        iterations=0,
                        length=length,
                    )
                )
        return results


def _gain_score(problem: SubProblem) -> float:
    """Estimated improvement potential: initial length vs greedy proxy.

    Cheap stand-in for the GNN's learned cluster scoring: the gap
    between the initial route and a nearest-neighbour route bound.
    """
    order = np.asarray(problem.initial_order)
    dist = problem.distances
    initial = float(dist[order[:-1], order[1:]].sum())
    # Sum of each city's nearest-other distance: a crude lower proxy.
    masked = dist + np.diag(np.full(dist.shape[0], np.inf))
    lower = float(masked.min(axis=1).sum())
    return initial - lower
