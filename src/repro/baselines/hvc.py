"""HVC-style hierarchical vertex clustering solver (paper ref [4]).

HVC (Dan et al., DAC 2020) pioneered hierarchical clustering for Ising
TSP but differs from TAXI in the three ways the paper calls out:

* clusters come from **k-means** (spherical, outlier-sensitive);
* intra- and inter-cluster routes are co-optimized on **one sparse
  crossbar** — no endpoint fixing, so sub-solutions can degrade the
  inter-cluster route;
* spin updates are the plain always-write dynamics (no guarded
  commit), which our macro model exposes as
  ``guarded_updates=False``.

The solver therefore reuses TAXI's hierarchy/pipeline machinery with
exactly those knobs flipped; the resulting quality degradation with
problem size reproduces HVC's curve in Fig 5c.  Its energy figure in
Table II is the paper's cited CPU measurement (1.1 J at 101 cities),
kept as a constant in :mod:`repro.analysis.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.hierarchy import build_hierarchy
from repro.clustering.kmeans import kmeans_with_max_size
from repro.core.pipeline import solve_hierarchical
from repro.core.result import PhaseTimes
from repro.errors import SolverError
from repro.macro.batch import BatchedMacroSolver
from repro.macro.config import MacroConfig
from repro.macro.schedule import AnnealSchedule, paper_schedule
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour
from repro.utils.rng import ensure_rng


@dataclass
class BaselineResult:
    """Outcome of a comparator solve (shared across baseline solvers)."""

    name: str
    tour: Tour
    phase_seconds: PhaseTimes
    modeled_seconds: float | None = None

    @property
    def length(self) -> float:
        return self.tour.length


class HVCSolver:
    """Hierarchical Vertex Clustering baseline (k-means, no fixing)."""

    name = "HVC"

    def __init__(
        self,
        max_cluster_size: int = 12,
        bits: int = 4,
        sweeps: int | None = None,
        seed: int | None = 0,
    ) -> None:
        if max_cluster_size < 4:
            raise SolverError(
                f"max_cluster_size must be >= 4, got {max_cluster_size}"
            )
        self.max_cluster_size = max_cluster_size
        self.bits = bits
        self.sweeps = sweeps
        self.seed = seed

    def _schedule(self) -> AnnealSchedule:
        return paper_schedule(self.sweeps)

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
                guarded_updates=False,  # plain always-write spin updates
            ),
            seed=rng,
        )
        order, times, _ = solve_hierarchical(
            hierarchy, macro, self._schedule(), endpoint_fixing=False
        )
        return BaselineResult(self.name, Tour(instance, order), times)
