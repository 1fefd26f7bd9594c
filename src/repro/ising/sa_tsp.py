"""Classic simulated annealing directly on tours (CPU baseline).

Anneals over the 2-opt neighbourhood of closed tours.  This is the
software point of comparison for the Ising-hardware solvers: same
stochastic-acceptance idea, but executed sequentially on a CPU with
full-precision distances.

The annealing loop itself lives in :mod:`repro.kernels.twoopt`: the
fast kernel evaluates blocks of 2-opt candidates against the distance
matrix in vectorized passes.  Without a distance matrix, or above
:data:`~repro.kernels.twoopt.FAST_MATRIX_LIMIT` cities, the solver runs
the per-proposal reference loop instead, which is bit-exact with the
fast kernel for any seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.kernels.twoopt import (
    FAST_MATRIX_LIMIT,
    anneal_tours_fast,
    anneal_tours_reference,
)
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour
from repro.utils.rng import ensure_rng


@dataclass
class SimulatedAnnealingTSP:
    """2-opt simulated annealing for closed tours.

    Parameters
    ----------
    sweeps:
        Number of temperature steps; each step proposes ``n`` moves.
    t_start_frac, t_end_frac:
        Temperature endpoints as fractions of the average edge length of
        the initial tour (scale-free across instances).
    seed:
        RNG seed or generator.
    """

    sweeps: int = 400
    t_start_frac: float = 1.0
    t_end_frac: float = 0.001
    seed: int | None | np.random.Generator = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ConfigError(f"sweeps must be >= 1, got {self.sweeps}")
        if not 0 < self.t_end_frac <= self.t_start_frac:
            raise ConfigError("need 0 < t_end_frac <= t_start_frac")
        self._rng = ensure_rng(self.seed)

    def solve(
        self,
        instance: TSPInstance,
        initial: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ) -> Tour:
        """Anneal from ``initial`` (or a random permutation) and return the best tour.

        ``matrix`` optionally supplies a precomputed distance matrix
        (e.g. the engine's per-process shared one) so repeated solves
        of the same instance skip the O(n^2) rebuild.  It must equal
        ``instance.distance_matrix()``.
        """
        rng = self._rng
        n = instance.n
        order = (
            rng.permutation(n) if initial is None else np.asarray(initial, dtype=int).copy()
        )
        dist, matrix = _distance_lookup(instance, matrix)
        length = instance.tour_length(order)
        if not np.isfinite(length):
            raise ConfigError(
                f"instance {instance.name!r} has non-finite distances "
                f"(initial tour length {length}); refusing to anneal"
            )
        avg_edge = length / n
        t_start = self.t_start_frac * avg_edge
        t_end = self.t_end_frac * avg_edge
        ratio = (t_end / t_start) ** (1.0 / max(self.sweeps - 1, 1))

        if matrix is not None and n <= FAST_MATRIX_LIMIT:
            best_order, _ = anneal_tours_fast(
                rng, order, length, self.sweeps, t_start, ratio, matrix
            )
        else:
            # No full matrix (huge coordinate instances) or one too big
            # to box into scalar-mode lists: run the reference loop.
            best_order, _ = anneal_tours_reference(
                rng, order, length, self.sweeps, t_start, ratio, matrix, dist
            )
        return Tour(instance, best_order, closed=True)


def _distance_lookup(instance: TSPInstance, matrix: np.ndarray | None = None):
    """Pairwise distance access: ``(callable, matrix-or-None)``.

    When a full matrix is available (supplied, or small enough to
    build) it is returned directly so hot loops index it raw instead of
    paying a ``float(...)`` wrapper call per lookup; the callable then
    simply mirrors it for sites that want one.  Matrix-backed lookups
    are validated up front: annealing on a NaN/inf matrix would
    silently corrupt every delta, so reject it here.
    """
    if matrix is None and instance.n <= 4096:
        matrix = instance.distance_matrix()
    if matrix is not None:
        if matrix.shape != (instance.n, instance.n):
            raise ConfigError(
                f"distance matrix shape {matrix.shape} does not match "
                f"instance {instance.name!r} (n={instance.n})"
            )
        if not np.isfinite(matrix).all():
            raise ConfigError(
                f"instance {instance.name!r} has a non-finite distance "
                "matrix; refusing to anneal"
            )
        lookup = matrix
        return (lambda a, b: float(lookup[a, b])), matrix
    coords = instance.coords
    if coords is None:
        return instance.distance, None

    # Large coordinate instances: compute single pairs directly.
    def pair(a: int, b: int) -> float:
        return float(instance._edge_lengths(np.asarray([a]), np.asarray([b]))[0])

    return pair, None
