"""2-opt and Or-opt local search with neighbour lists and don't-look bits.

This is the improvement engine of the Concorde surrogate.  The actual
pass implementations live in :mod:`repro.kernels.neighbor` (the
vectorized passes that run, and the scalar scans they are bit-exact
with); this module keeps the historical entry point and re-exports the
scalar pass functions.
Moves are evaluated only against each city's k nearest neighbours (the
standard candidate-list restriction), and don't-look bits keep passes
focused on recently-changed regions — together these make local search
practical at the paper's largest size (85,900 cities) in pure
Python/numpy, with no distance matrix required at any size.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.neighbor import (
    DistFn,
    NeighborLocalSearch,
    make_dist_fns,
    or_opt_pass,
    two_opt_pass,
)
from repro.tsp.instance import TSPInstance
from repro.tsp.neighbors import CandidateLists, build_candidate_lists

__all__ = ["two_opt", "two_opt_pass", "or_opt_pass"]


def _make_dist(instance: TSPInstance) -> DistFn:
    """Backwards-compatible scalar edge-length oracle."""
    return make_dist_fns(instance)[0]


def two_opt(
    instance: TSPInstance,
    order: np.ndarray,
    neighbors: np.ndarray | CandidateLists | None = None,
    k: int = 8,
    max_rounds: int = 30,
    use_or_opt: bool = True,
) -> np.ndarray:
    """Improve a closed tour until 2-opt (+ optional Or-opt) is exhausted.

    Parameters
    ----------
    order:
        Starting tour (a permutation).
    neighbors:
        Precomputed ``(n, k)`` candidate lists or a
        :class:`CandidateLists` artifact (built if omitted).
    max_rounds:
        Hard cap on improvement rounds (each round = one full pass of
        2-opt and, if enabled, Or-opt).
    """
    n = instance.n
    if isinstance(neighbors, CandidateLists):
        candidates = neighbors
    elif neighbors is not None:
        candidates = build_candidate_lists(instance, k, neighbors=neighbors)
    else:
        candidates = build_candidate_lists(instance, min(k, n - 1))
    search = NeighborLocalSearch(
        candidates,
        use_or_opt=use_or_opt,
        max_rounds=max_rounds,
    )
    return search.improve(order)
