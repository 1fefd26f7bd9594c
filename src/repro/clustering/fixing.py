"""Inter-cluster endpoint fixing (paper Section IV-2).

Unlike HVC, which co-optimizes intra- and inter-cluster routes on one
sparse crossbar, TAXI *fixes* each cluster's first and last cities
before solving it: for consecutive clusters (A, B) in the current route
order, the closest leaf-city pair (a in A, b in B) pins ``a`` as A's
exit and ``b`` as B's entry.  Sub-problem solutions therefore can never
degrade the inter-cluster route, and every cluster of a level can be
solved in parallel.

Conflict handling (the paper leaves it unspecified): if a cluster's
chosen exit would fall in the same child sub-cluster as its entry while
other children exist, the next-closest pair avoiding that child is
used, so the child path has distinct first/last children whenever
possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.cache import PAIR_BLOCK_LIMIT, SubmatrixCache, padded_ids
from repro.errors import ClusteringError
from repro.tsp.instance import TSPInstance
from repro.tsp.neighbors import closest_pair_between

#: Most bytes of one padded cross-block slice.  A memory bound on the
#: level-wide pass, NOT part of the solve identity: slice boundaries
#: never change a pair's candidates.
FIXING_SLICE_BYTES = 256 * 1024


@dataclass(frozen=True)
class EndpointFixing:
    """Endpoint assignment for one cluster in the route order.

    ``entry_leaf``/``exit_leaf`` are original city ids; for the cyclic
    top level every cluster has both.
    """

    entry_leaf: int
    exit_leaf: int


def fix_level_endpoints(
    instance: TSPInstance,
    leaves_in_order: list[np.ndarray],
    child_of_leaf: np.ndarray | None = None,
    cache: SubmatrixCache | None = None,
    cluster_keys: list[object] | None = None,
) -> list[EndpointFixing]:
    """Fix entry/exit leaves for an ordered (cyclic) cluster sequence.

    Parameters
    ----------
    instance:
        The TSP instance (for distances).
    leaves_in_order:
        ``leaves_in_order[t]`` are the original city ids under the
        ``t``-th cluster of the route.  The sequence is treated as
        cyclic (the global tour is a cycle at every level).
    child_of_leaf:
        Optional array indexed by city id: the local index, within its
        cluster, of the child sub-cluster holding that city.  It must
        cover every leaf of ``leaves_in_order`` and enables the
        entry/exit child-conflict avoidance described in the module
        docstring.
    cache:
        Optional :class:`~repro.clustering.cache.SubmatrixCache`; each
        cluster pair's cross-block is then sliced from the instance at
        most once — the conflict-avoidance choice reads rows of the
        same block instead of re-slicing the metric per child.
        Passing a cache requires ``cluster_keys``: position-derived
        default keys would silently alias different cluster sets
        across calls sharing the cache.
    cluster_keys:
        Stable cache keys aligned with ``leaves_in_order`` (the
        pipeline passes ``(level, node)``); defaults to the route
        positions, which are only unique within one call.

    Returns
    -------
    One :class:`EndpointFixing` per cluster, aligned with the input.

    Notes
    -----
    Pair ``t`` joins cluster ``t`` to cluster ``t + 1``; its exit row
    must avoid the child holding the entry leaf that pair ``t - 1``
    chose, so the pairs are walked in order.  Every pair small enough
    for a cross-block (at most ``PAIR_BLOCK_LIMIT`` entries) first gets
    two candidates in a level-wide pass: its closest pair, and its
    closest pair whose row lies outside the child holding that one's
    row.  The walk then takes the second exactly when the forbidden
    child holds the first.  Bigger pairs query a KD-tree in the walk.
    """
    count = len(leaves_in_order)
    if count < 2:
        raise ClusteringError("endpoint fixing needs at least 2 clusters")
    if cache is None:
        cache = SubmatrixCache(instance, retain_cross_blocks=False)
    elif cluster_keys is None:
        raise ClusteringError(
            "a shared cache needs explicit cluster_keys: position-based "
            "defaults would alias unrelated clusters across calls"
        )
    if cluster_keys is None:
        cluster_keys = list(range(count))
    elif len(cluster_keys) != count:
        raise ClusteringError(
            f"{len(cluster_keys)} cluster keys for {count} clusters"
        )
    groups = [np.asarray(group, dtype=int) for group in leaves_in_order]
    sizes = [group.size for group in groups]
    small = [
        t for t in range(count)
        if sizes[t] * sizes[(t + 1) % count] <= PAIR_BLOCK_LIMIT
    ]
    candidates = _small_pair_candidates(
        cache, cluster_keys, groups, small, child_of_leaf
    )
    # pair[t] joins cluster t to cluster (t+1) % count.
    exit_leaf = [-1] * count
    entry_leaf = [-1] * count
    for t in range(count):
        nxt = (t + 1) % count
        forbidden = None
        if child_of_leaf is not None and entry_leaf[t] >= 0:
            forbidden = int(child_of_leaf[entry_leaf[t]])
        pair = candidates.get(t)
        if pair is None:
            a, b = _kd_pair(instance, groups[t], groups[nxt], child_of_leaf, forbidden)
        else:
            best_a, best_b, alt_a, alt_b, best_child = pair
            if forbidden is not None and forbidden == best_child:
                a, b = alt_a, alt_b
            else:
                a, b = best_a, best_b
        exit_leaf[t] = a
        entry_leaf[nxt] = b
    return [EndpointFixing(entry_leaf[t], exit_leaf[t]) for t in range(count)]


def _small_pair_candidates(
    cache: SubmatrixCache,
    keys: list[object],
    groups: list[np.ndarray],
    pairs: list[int],
    child_of_leaf: np.ndarray | None,
) -> dict[int, tuple[int, int, int, int, int]]:
    """Both candidates of every small pair, in padded cross-block slices.

    Returns ``t -> (best a, best b, alternative a, alternative b, child
    of the best a)``.  The best is the first minimum, row-major over
    the pair's block.  The alternative is the same over the rows whose
    child differs from the best row's; it is the best when there is no
    such row (or no child map).
    """
    count = len(groups)
    out: dict[int, tuple[int, int, int, int, int]] = {}
    for batch in _slices(groups, pairs):
        nxt = [(t + 1) % count for t in batch]
        block = cache.cross_blocks(
            [keys[t] for t in batch], [groups[t] for t in batch],
            [keys[u] for u in nxt], [groups[u] for u in nxt],
        )
        slice_pairs, _, width = block.shape
        flat = block.reshape(slice_pairs, -1)
        rows, row_sizes = padded_ids([groups[t] for t in batch])
        cols, _ = padded_ids([groups[u] for u in nxt])
        index = np.arange(slice_pairs)
        best = flat.argmin(axis=1)
        best_a = rows[index, best // width]
        best_b = cols[index, best % width]
        alt_a, alt_b, best_child = best_a, best_b, np.full(slice_pairs, -1)
        if child_of_leaf is not None:
            children = child_of_leaf[rows]
            best_child = children[index, best // width]
            allowed = (children != best_child[:, None]) & (
                np.arange(rows.shape[1]) < row_sizes[:, None]
            )
            entries = np.broadcast_to(allowed[:, :, None], block.shape).reshape(
                slice_pairs, -1
            )
            alt = np.where(entries, flat, np.inf).argmin(axis=1)
            # An all-inf allowed part ties with the masked entries: take
            # its first entry, as an argmin over the allowed rows would.
            stray = ~entries[index, alt]
            alt[stray] = entries[stray].argmax(axis=1)
            has_alt = allowed.any(axis=1)
            alt_a = np.where(has_alt, rows[index, alt // width], best_a)
            alt_b = np.where(has_alt, cols[index, alt % width], best_b)
        out.update(
            zip(
                batch,
                zip(
                    best_a.tolist(), best_b.tolist(), alt_a.tolist(),
                    alt_b.tolist(), best_child.tolist(),
                ),
            )
        )
    return out


def _slices(groups: list[np.ndarray], pairs: list[int]) -> list[list[int]]:
    """Cut the pairs, in order, into runs whose padded block fits the bound."""
    count = len(groups)
    limit = FIXING_SLICE_BYTES // 8
    out: list[list[int]] = []
    batch: list[int] = []
    rows = cols = 0
    for t in pairs:
        a, b = groups[t].size, groups[(t + 1) % count].size
        wide_rows, wide_cols = max(rows, a), max(cols, b)
        if batch and (len(batch) + 1) * wide_rows * wide_cols > limit:
            out.append(batch)
            batch, wide_rows, wide_cols = [], a, b
        batch.append(t)
        rows, cols = wide_rows, wide_cols
    if batch:
        out.append(batch)
    return out


def _kd_pair(
    instance: TSPInstance,
    group_a: np.ndarray,
    group_b: np.ndarray,
    child_of_leaf: np.ndarray | None,
    forbidden: int | None,
) -> tuple[int, int]:
    """Closest pair of a big pair, A's leaf outside ``forbidden`` if it can.

    Stays on the KD-tree path rather than materializing an oversized
    cross-block.
    """
    rows = group_a
    if child_of_leaf is not None and forbidden is not None and group_a.size > 1:
        mask = child_of_leaf[group_a] != forbidden
        if mask.any():
            rows = group_a[mask]
    a, b, _ = closest_pair_between(instance, rows, group_b)
    return a, b


def centroid_distance_matrix(centroids: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between cluster centroids.

    Upper hierarchy levels order *clusters*, whose pairwise distances
    the paper takes between centroids.  Leading batch axes are allowed:
    ``(..., k, 2)`` gives ``(..., k, k)``, each slice bit-identical to
    its own call.
    """
    centroids = np.asarray(centroids, dtype=float)
    if centroids.ndim < 2:
        raise ClusteringError(f"centroids must be (k, 2), got {centroids.shape}")
    diff = centroids[..., :, None, :] - centroids[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))
