"""Bottom-up cluster hierarchy (paper Section IV-1).

Level 0 holds the cities themselves.  Each higher level clusters the
previous level's nodes (by their centroids) into groups of at most
``max_cluster_size``; the group centroids become the next level's
nodes.  Building stops when a level has no more nodes than one Ising
macro can hold — that level's single closed tour is the top problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.clustering.agglomerative import cluster_with_max_size
from repro.errors import ClusteringError
from repro.tsp.instance import TSPInstance


@dataclass
class HierarchyLevel:
    """One level of the hierarchy.

    Attributes
    ----------
    level:
        0 for cities, increasing upward.
    centroids:
        ``(k, 2)`` node centroid coordinates.
    children:
        For level > 0: ``children[i]`` lists the previous level's node
        indices grouped into node ``i``.  Empty for level 0.
    leaves:
        ``leaves[i]`` is the array of original city ids under node ``i``.
    """

    level: int
    centroids: np.ndarray
    children: list[np.ndarray] = field(default_factory=list)
    leaves: list[np.ndarray] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return int(self.centroids.shape[0])


@dataclass
class Hierarchy:
    """The full bottom-up hierarchy for one instance."""

    instance: TSPInstance
    max_cluster_size: int
    levels: list[HierarchyLevel]

    @property
    def depth(self) -> int:
        """Number of levels including level 0 (the cities)."""
        return len(self.levels)

    @property
    def top(self) -> HierarchyLevel:
        return self.levels[-1]

    def validate(self) -> None:
        """Check structural invariants (used by tests and after building)."""
        n = self.instance.n
        if self.levels[0].n_nodes != n:
            raise ClusteringError("level 0 must hold every city")
        for level in self.levels[1:]:
            child_total = sum(len(c) for c in level.children)
            if child_total != self.levels[level.level - 1].n_nodes:
                raise ClusteringError(
                    f"level {level.level} children do not partition level "
                    f"{level.level - 1}"
                )
            leaf_total = sum(len(leaf) for leaf in level.leaves)
            if leaf_total != n:
                raise ClusteringError(
                    f"level {level.level} leaves do not cover all cities"
                )
            for children in level.children:
                if len(children) > self.max_cluster_size:
                    raise ClusteringError(
                        f"level {level.level} has a cluster of {len(children)} "
                        f"children (max {self.max_cluster_size})"
                    )
        if self.top.n_nodes > self.max_cluster_size:
            raise ClusteringError("top level exceeds macro capacity")


def build_hierarchy(
    instance: TSPInstance,
    max_cluster_size: int,
    cluster_fn: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> Hierarchy:
    """Build the bottom-up hierarchy for ``instance``.

    Parameters
    ----------
    max_cluster_size:
        Macro capacity (the paper sweeps 12-20 in Fig 5a).
    cluster_fn:
        ``cluster_fn(points, max_size) -> labels`` override; defaults to
        Ward agglomerative
        (:func:`~repro.clustering.agglomerative.cluster_with_max_size`).
        The K-means baseline passes
        :func:`~repro.clustering.kmeans.kmeans_with_max_size`.
    """
    if max_cluster_size < 2:
        raise ClusteringError(
            f"max_cluster_size must be >= 2, got {max_cluster_size}"
        )
    if instance.coords is None:
        raise ClusteringError(
            "hierarchical clustering requires coordinate instances"
        )
    if cluster_fn is None:
        cluster_fn = cluster_with_max_size

    n = instance.n
    levels = [
        HierarchyLevel(
            level=0,
            centroids=np.asarray(instance.coords, dtype=float).copy(),
            children=[],
            # Row views of one (n, 1) array: at n=10^5 this is one
            # allocation instead of n tiny ones, with identical
            # per-node arrays.
            leaves=list(np.arange(n, dtype=int).reshape(n, 1)),
        )
    ]
    # The level below's leaves, node after node, and each node's count.
    flat_leaves = np.arange(n, dtype=int)
    leaf_counts = np.ones(n, dtype=np.intp)
    while levels[-1].n_nodes > max_cluster_size:
        below = levels[-1]
        labels = np.asarray(cluster_fn(below.centroids, max_cluster_size))
        if labels.shape != (below.n_nodes,):
            raise ClusteringError(
                f"cluster_fn returned labels of shape {labels.shape} for "
                f"{below.n_nodes} nodes"
            )
        children, flat_leaves, leaf_counts = _group(
            labels, flat_leaves, leaf_counts, max_cluster_size
        )
        if len(children) >= below.n_nodes:
            raise ClusteringError(
                "clustering failed to reduce the level size; "
                f"{below.n_nodes} -> {len(children)}"
            )
        # Leaf-weighted centroid = mean of the original cities.  bincount
        # sums each cluster's coordinates from 0.0 one by one in leaf
        # order, as ``.mean(axis=0)`` does, so the centroids are
        # bit-identical to the per-cluster means.
        cluster_of_leaf = np.repeat(np.arange(len(children)), leaf_counts)
        coords = instance.coords[flat_leaves]
        sums = np.column_stack([
            np.bincount(cluster_of_leaf, weights=coords[:, axis]) for axis in range(2)
        ])
        levels.append(
            HierarchyLevel(
                level=len(levels),
                centroids=sums / leaf_counts[:, None],
                children=children,
                leaves=_runs(flat_leaves, np.cumsum(leaf_counts)[:-1]),
            )
        )
    hierarchy = Hierarchy(instance, max_cluster_size, levels)
    hierarchy.validate()
    return hierarchy


def _group(
    labels: np.ndarray,
    flat_leaves: np.ndarray,
    leaf_counts: np.ndarray,
    max_cluster_size: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Group one level's nodes by label in one stable sort.

    Returns the new level's children (members ascending, clusters in
    label order), its leaves node after node, and its leaf counts.
    ``flat_leaves`` and ``leaf_counts`` describe the level below the
    same way, so each cluster's leaves are its members' leaves in
    member order.
    """
    sort_idx = np.argsort(labels, kind="stable")
    sorted_labels = labels[sort_idx]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    sizes = np.diff(boundaries, prepend=0, append=labels.size)
    oversized = np.flatnonzero(sizes > max_cluster_size)
    if oversized.size:
        raise ClusteringError(
            f"cluster_fn produced a cluster of {sizes[oversized[0]]} nodes "
            f"(max {max_cluster_size})"
        )
    # Each member's leaves, members in sorted order: a gather of runs.
    counts = leaf_counts[sort_idx]
    run_starts = (np.cumsum(leaf_counts) - leaf_counts)[sort_idx]
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    grouped = flat_leaves[np.repeat(run_starts, counts) + offsets]
    cluster_counts = np.add.reduceat(counts, np.concatenate(([0], boundaries)))
    return _runs(sort_idx, boundaries), grouped, cluster_counts


def _runs(array: np.ndarray, boundaries: np.ndarray) -> list[np.ndarray]:
    """``np.split(array, boundaries)``, as one slice per run."""
    bounds = [0, *boundaries.tolist(), array.size]
    return [array[start:stop] for start, stop in zip(bounds, bounds[1:])]
