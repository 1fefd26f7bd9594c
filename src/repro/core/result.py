"""Solve results: tour, phase timing, per-level and batch statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tsp.tour import Tour


@dataclass
class PhaseTimes:
    """Wall-clock seconds per pipeline phase (the Fig 6b breakdown).

    ``clustering`` and ``fixing`` run in software (host CPU) in TAXI
    too; ``ising`` here is the *simulation* wall-clock of the macro
    annealing — the modelled hardware latency lives in the architecture
    simulator's report.  ``merge`` covers the host work around each
    wave: building the level's sub-problems (distance blocks, initial
    orders) and expanding the solved orders into the next sequence.
    """

    clustering: float = 0.0
    fixing: float = 0.0
    ising: float = 0.0
    merge: float = 0.0

    @property
    def total(self) -> float:
        return self.clustering + self.fixing + self.ising + self.merge

    def as_dict(self) -> dict[str, float]:
        return {
            "clustering": self.clustering,
            "fixing": self.fixing,
            "ising": self.ising,
            "merge": self.merge,
        }


@dataclass
class LevelStats:
    """Workload shape of one hierarchy level's solve wave.

    The architecture simulator consumes these to model latency/energy
    of mapping and annealing the level's clusters on parallel macros.
    """

    level: int
    n_subproblems: int
    subproblem_sizes: list[int]
    sweeps: int
    total_iterations: int


@dataclass
class TAXIResult:
    """Everything produced by one end-to-end solve."""

    tour: Tour
    phase_seconds: PhaseTimes
    level_stats: list[LevelStats] = field(default_factory=list)
    hierarchy_depth: int = 0
    max_cluster_size: int = 0
    bits: int = 0

    @property
    def length(self) -> float:
        return self.tour.length

    @property
    def total_subproblems(self) -> int:
        return sum(stats.n_subproblems for stats in self.level_stats)

    @property
    def total_iterations(self) -> int:
        return sum(stats.total_iterations for stats in self.level_stats)

    def optimal_ratio(self, reference_length: float) -> float:
        """Tour length divided by a reference (exact or surrogate) length."""
        if reference_length <= 0:
            raise ValueError(f"reference length must be positive: {reference_length}")
        return self.tour.length / reference_length


@dataclass(frozen=True)
class ReplicaResult:
    """One replica's outcome inside a multi-start batch solve.

    Carries the raw city order instead of a :class:`Tour` so replicas
    can cross process boundaries without shipping the instance back.
    """

    index: int
    seed: int
    order: np.ndarray
    length: float
    seconds: float
    #: Wall-clock spent materializing the instance and building the
    #: solver before the solve proper (cache hits make this ~0 after a
    #: worker's first replica).
    setup_seconds: float = 0.0

    def tour(self, instance) -> Tour:
        """Rebuild the full :class:`Tour` against ``instance``."""
        return Tour(instance, self.order, closed=True)


@dataclass
class BatchResult:
    """Aggregate of every replica run against one instance.

    Produced by :mod:`repro.engine.runner`; replicas are stored in
    replica-index order so the aggregate is independent of worker count
    and completion order.
    """

    instance_name: str
    n: int
    solver: str
    replicas: list[ReplicaResult]
    #: Wall-clock of the *whole batch run* this instance belonged to —
    #: shared by every BatchResult of the same job, since instances run
    #: interleaved on one pool.  Per-instance cost is ``solve_seconds``.
    wall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("BatchResult needs at least one replica")
        self.replicas = sorted(self.replicas, key=lambda r: r.index)

    @property
    def lengths(self) -> np.ndarray:
        """Replica tour lengths in replica-index order."""
        return np.asarray([replica.length for replica in self.replicas], dtype=float)

    @property
    def best(self) -> ReplicaResult:
        """The winning replica (shortest tour; ties go to the lowest index)."""
        return min(self.replicas, key=lambda r: (r.length, r.index))

    @property
    def best_length(self) -> float:
        return self.best.length

    @property
    def median_length(self) -> float:
        return float(np.median(self.lengths))

    @property
    def mean_length(self) -> float:
        return float(self.lengths.mean())

    @property
    def worst_length(self) -> float:
        return float(self.lengths.max())

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of replica tour lengths (0..100)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.lengths, q))

    @property
    def solve_seconds(self) -> float:
        """Total solver CPU-side seconds summed over replicas."""
        return float(sum(replica.seconds for replica in self.replicas))

    @property
    def setup_seconds(self) -> float:
        """Total instance/solver setup seconds summed over replicas."""
        return float(sum(replica.setup_seconds for replica in self.replicas))

    def as_dict(self) -> dict[str, float | int | str]:
        """Flat summary row (for tables and CSV export)."""
        return {
            "instance": self.instance_name,
            "n": self.n,
            "solver": self.solver,
            "replicas": len(self.replicas),
            "best": self.best_length,
            "median": self.median_length,
            "p90": self.percentile(90.0),
            "mean": self.mean_length,
            "best_seed": self.best.seed,
            "setup_seconds": self.setup_seconds,
            "solve_seconds": self.solve_seconds,
            "batch_wall_seconds": self.wall_seconds,
        }
