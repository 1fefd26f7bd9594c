"""Nearest-neighbor candidate lists for large instances.

Local-search baselines (2-opt, Or-opt) and the inter-cluster endpoint
fixing step need "closest cities" queries at scale.  This module wraps
:class:`scipy.spatial.cKDTree` for coordinate instances and falls back
to the explicit matrix otherwise.

The :class:`CandidateLists` artifact bundles the neighbor index table
with per-candidate metric distances.  It is the sparse-mode stand-in
for a distance matrix: O(n·k) memory instead of O(n²), content-addressed
(geometry digest + k) so the engine arena can publish one physical copy
that every worker process shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import InstanceError
from repro.tsp.instance import EdgeWeightType, TSPInstance


def nearest_neighbor_lists(instance: TSPInstance, k: int) -> np.ndarray:
    """For each city, its ``k`` nearest other cities, nearest first.

    Returns an ``(n, k)`` int array.  For coordinate instances the
    neighbors are computed in Euclidean space (a faithful proxy for all
    supported coordinate metrics, which are monotone in Euclidean
    distance except GEO, where it remains a good candidate heuristic).

    Invariants (tested): no row contains the row's own city, and no row
    contains duplicate entries — even for degenerate inputs where many
    cities share one coordinate.
    """
    n = instance.n
    if k < 1:
        raise InstanceError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)
    if instance.coords is not None and instance.metric is not EdgeWeightType.EXPLICIT:
        tree = cKDTree(instance.coords)
        # k+1 because each point's own index lands somewhere in its
        # nearest k+1 (usually first, but ties at distance zero may
        # push it anywhere in the prefix — or out of it entirely).
        _, idx = tree.query(instance.coords, k=k + 1, workers=-1)
        idx = np.atleast_2d(idx)
        self_col = idx == np.arange(n)[:, None]
        # Drop each row's self entry; rows whose self was tie-displaced
        # out of the prefix drop their (k+1)-th entry instead.  Either
        # way exactly k distinct non-self cities remain per row.
        drop = np.where(self_col.any(axis=1), self_col.argmax(axis=1), k)
        keep = np.arange(k + 1)[None, :] != drop[:, None]
        return np.ascontiguousarray(idx[keep].reshape(n, k))
    matrix = instance.distance_matrix()
    rows = np.arange(n)[:, None]
    # Partial selection: the k+1 smallest entries per row (self included
    # when its zero survives ties), then an exact sort of just that
    # prefix — O(n·(n + k log k)) instead of a full-matrix copy + row
    # sort at O(n² log n).
    prefix = np.sort(np.argpartition(matrix, k, axis=1)[:, : k + 1], axis=1)
    dists = matrix[rows, prefix].astype(float, copy=True)
    dists[prefix == rows] = np.inf  # exile self from the prefix
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return np.ascontiguousarray(prefix[rows, order])


@dataclass(frozen=True)
class CandidateLists:
    """k-NN candidate lists plus their metric edge lengths.

    The sparse-mode distance artifact: ``neighbors[i, j]`` is city
    ``i``'s j-th candidate and ``distances[i, j]`` the metric length of
    edge ``(i, neighbors[i, j])`` — the exact float64 the full matrix
    would hold (both derive elementwise from the same formulas), so
    kernels evaluating moves against these values are bit-identical to
    matrix-backed runs.  Both arrays are read-only; ``neighbors`` is
    int32 so a published copy costs ``n·k·12`` bytes.
    """

    instance: TSPInstance
    neighbors: np.ndarray
    distances: np.ndarray

    @property
    def n(self) -> int:
        return int(self.neighbors.shape[0])

    @property
    def k(self) -> int:
        return int(self.neighbors.shape[1])

    @property
    def nbytes(self) -> int:
        return int(self.neighbors.nbytes + self.distances.nbytes)

    @cached_property
    def content_key(self) -> str:
        """Geometry digest + k: equal keys mean interchangeable lists."""
        from repro.engine.arena import content_key

        return f"{content_key(self.instance)}:knn{self.k}"

    def validate(self) -> None:
        """Raise :class:`InstanceError` on any broken invariant."""
        n, k = self.neighbors.shape
        if n != self.instance.n:
            raise InstanceError(
                f"candidate lists cover {n} cities, instance has "
                f"{self.instance.n}"
            )
        if self.distances.shape != (n, k):
            raise InstanceError("neighbors/distances shape mismatch")
        if (self.neighbors < 0).any() or (self.neighbors >= n).any():
            raise InstanceError("candidate index out of range")
        rows = np.arange(n)[:, None]
        if (self.neighbors == rows).any():
            raise InstanceError("candidate list contains a self edge")
        sorted_rows = np.sort(self.neighbors, axis=1)
        if k > 1 and (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any():
            raise InstanceError("candidate list contains duplicate entries")


def candidate_edge_lengths(
    instance: TSPInstance, neighbors: np.ndarray
) -> np.ndarray:
    """Metric lengths of every ``(i, neighbors[i, j])`` edge, float64."""
    n, k = neighbors.shape
    if instance.metric is EdgeWeightType.EXPLICIT:
        dists = instance.matrix[np.arange(n)[:, None], neighbors]
    else:
        rows = np.repeat(np.arange(n), k)
        dists = instance._edge_lengths(rows, neighbors.ravel()).reshape(n, k)
    return np.ascontiguousarray(dists, dtype=np.float64)


def build_candidate_lists(
    instance: TSPInstance,
    k: int,
    neighbors: np.ndarray | None = None,
) -> CandidateLists:
    """Build the :class:`CandidateLists` artifact for ``instance``.

    ``neighbors`` wraps a precomputed index table (its width overrides
    ``k``); otherwise :func:`nearest_neighbor_lists` supplies one.
    """
    if neighbors is None:
        neighbors = nearest_neighbor_lists(instance, min(k, instance.n - 1))
    neighbors = np.ascontiguousarray(neighbors, dtype=np.int32)
    distances = candidate_edge_lengths(instance, neighbors)
    neighbors.setflags(write=False)
    distances.setflags(write=False)
    lists = CandidateLists(
        instance=instance, neighbors=neighbors, distances=distances
    )
    lists.validate()
    return lists


def closest_pair_between(
    instance: TSPInstance,
    group_a: np.ndarray,
    group_b: np.ndarray,
) -> tuple[int, int, float]:
    """The closest city pair ``(a, b)`` with ``a`` in group A, ``b`` in group B.

    Returns ``(a, b, distance)`` using the instance metric.  Used by the
    endpoint-fixing step (Section IV-2 of the paper).
    """
    group_a = np.asarray(group_a, dtype=int)
    group_b = np.asarray(group_b, dtype=int)
    if group_a.size == 0 or group_b.size == 0:
        raise InstanceError("closest_pair_between requires non-empty groups")
    if (
        instance.coords is not None
        and instance.metric is not EdgeWeightType.EXPLICIT
        and group_a.size * group_b.size > 4096
    ):
        # KD-tree path for big groups: query B against a tree on A.
        # Single-threaded: at these sizes starting a thread pool per
        # query costs more than it saves.
        tree = cKDTree(instance.coords[group_a])
        dists, idx = tree.query(instance.coords[group_b], k=1)
        best_b = int(np.argmin(dists))
        best_a = int(idx[best_b])
        a_city, b_city = int(group_a[best_a]), int(group_b[best_b])
        return a_city, b_city, float(instance.distance(a_city, b_city))
    block = instance.distance_block(group_a, group_b)
    flat = int(np.argmin(block))
    ai, bi = np.unravel_index(flat, block.shape)
    a_city, b_city = int(group_a[ai]), int(group_b[bi])
    return a_city, b_city, float(block[ai, bi])
