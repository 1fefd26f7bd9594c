"""Ward-linkage agglomerative clustering, from scratch.

The paper clusters with *agglomerative* hierarchical clustering under
Ward linkage (Section IV-3), preferring its compact irregular clusters
over k-means' spherical ones.  This implementation uses the
nearest-neighbour-chain algorithm with the centroid/size form of the
Ward dissimilarity:

    d(A, B) = |A||B| / (|A| + |B|) * ||centroid_A - centroid_B||^2

which equals the increase in total within-cluster variance caused by
merging A and B.  NN-chain needs only O(n) memory (no distance matrix),
and Ward linkage is *reducible*, so the dendrogram it produces is
exactly the one a naive greedy merge would build.

The chain runs in C when the compiled kernels load
(``kernels/_ward.c`` through :mod:`repro.kernels.compiled`), with the
NumPy chain below as its fallback and test oracle; :func:`ward_path`
says which.  The NumPy chain scans every live slot per step, O(n^2) in
all; the C chain keeps its walk and arithmetic but scans only the grid
cells that can hold the nearest slot, near-linear on typical inputs and
O(n^2) at worst.  Both give bit-identical merges and labels.

Scalability: exact NN-chain is used up to ``exact_threshold`` points;
beyond that the point set is recursively median-split (KD fashion) into
blocks that are clustered exactly, a standard locality approximation
whose only error is at block boundaries (see the Ward bullet in
``docs/scaling.md``).

Parallelism: the KD blocks, and the oversized clusters of a re-split
pass, are independent.  :func:`ward_labels` and
:func:`cluster_with_max_size` run them through a ``map``-style callable
(the builtin ``map`` by default, or a pool's) and assign labels in task
order, so the labels never depend on it.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from repro.errors import ClusteringError
from repro.kernels import compiled

#: Largest level clustered by exact NN-chain before KD-splitting kicks in.
DEFAULT_EXACT_THRESHOLD = 4096

#: Points per ``map`` task, on average: consecutive KD blocks or
#: oversized clusters share a task.  A dispatch bound, NOT part of the
#: clustering identity.  It keeps the ~1,400 tiny re-splits of a
#: pla33810-scale level from each becoming a pickled task.
MAP_TASK_POINTS = 2048


def ward_linkage_matrix(points: np.ndarray) -> np.ndarray:
    """The full Ward dendrogram as an ``(n-1, 4)`` scipy-style linkage.

    Columns: merged cluster ids (original points are 0..n-1, merges are
    n, n+1, ...), merge dissimilarity ``sqrt(2 * d(A, B))``, the scipy
    convention, and new cluster size.
    """
    points = _check_points(points)
    n = points.shape[0]
    merges = _nn_chain_merges(points)
    # Convert to scipy convention: sort merges by height, relabel.
    order = np.argsort([m[2] for m in merges], kind="stable")
    linkage = np.zeros((n - 1, 4))
    cluster_ids = {i: i for i in range(n)}  # slot -> current dendrogram id
    next_id = n
    for row, merge_idx in enumerate(order):
        a, b, height, new_size = merges[merge_idx]
        ida, idb = cluster_ids[a], cluster_ids[b]
        linkage[row] = (min(ida, idb), max(ida, idb), np.sqrt(2 * height), new_size)
        cluster_ids[a] = next_id
        next_id += 1
    return linkage


def ward_path() -> str:
    """Which exact Ward chain runs: ``compiled`` or ``numpy (<reason>)``.

    Builds the compiled kernels if no call has yet.  Point sets with a
    coordinate beyond ``compiled.WARD_COORD_LIMIT`` take the NumPy chain
    either way.
    """
    library, reason = compiled.load()
    return reason if library is not None else f"numpy ({reason})"


def ward_labels(
    points: np.ndarray,
    n_clusters: int,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    map=map,
) -> np.ndarray:
    """Cluster ``points`` into ``n_clusters`` groups under Ward linkage.

    Returns integer labels ``0..n_clusters-1`` (label ids are dense but
    arbitrary).  Uses exact NN-chain up to ``exact_threshold`` points
    and KD-split blocks beyond, clustered through ``map``.
    """
    points = _check_points(points)
    n = points.shape[0]
    if not 1 <= n_clusters <= n:
        raise ClusteringError(
            f"n_clusters must be in 1..{n}, got {n_clusters}"
        )
    if n_clusters == n:
        return np.arange(n)
    if n <= exact_threshold:
        return _ward_labels_exact(points, n_clusters)
    return _ward_labels_kdsplit(points, n_clusters, exact_threshold, map)


def cluster_with_max_size(
    points: np.ndarray,
    max_size: int,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    map=map,
) -> np.ndarray:
    """Ward clustering into ceil(n / max_size) groups, none exceeding ``max_size``.

    Ward merging alone does not bound cluster sizes, so oversized
    clusters are recursively re-split with Ward until every cluster
    fits an Ising macro (the paper's "maximum TSP size confidently
    solvable by an Ising macro").  KD blocks and re-splits run through ``map``.
    """
    points = _check_points(points)
    if max_size < 1:
        raise ClusteringError(f"max_size must be >= 1, got {max_size}")
    n = points.shape[0]
    n_clusters = int(np.ceil(n / max_size))
    labels = ward_labels(points, n_clusters, exact_threshold, map)
    return _split_oversized(points, labels, max_size, exact_threshold, map)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _check_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or min(points.shape) < 1:
        raise ClusteringError(f"points must be (n, d) with n, d >= 1, got {points.shape}")
    if not np.isfinite(points).all():
        raise ClusteringError("points must have finite coordinates (no NaN or inf)")
    return points


def _nn_chain_merges(points: np.ndarray) -> list[tuple[int, int, float, int]]:
    """All n-1 merges via NN-chain: (slot_a, slot_b, ward_dist, new_size).

    Slot ``a`` survives each merge (holding the union), slot ``b``
    deactivates.  Merge heights are *not* sorted.

    Each coordinate is one contiguous column and a merged-away slot's
    coordinates become ``inf``, so its distance is ``inf`` with no mask.
    Once half the slots are dead they are compacted out in order, so
    ``argmin`` still breaks ties towards the lowest slot.  Summing the
    squared differences column by column rounds exactly like a NumPy row
    sum of fewer than 8 terms, and the merge height is the distance row
    entry of the slot merged away.

    This NumPy chain is the fallback and oracle of the compiled one,
    which returns the same merges bit for bit.
    """
    chain = _compiled_chain(points, 0)
    if chain is not None:
        slot_a, slot_b, heights, sizes, _ = chain
        return list(zip(slot_a.tolist(), slot_b.tolist(), heights.tolist(), sizes.tolist()))
    n = points.shape[0]
    columns = [column.copy() for column in points.T]
    sizes = np.ones(n)
    slots = np.arange(n)  # original slot of each compacted position
    merges: list[tuple[int, int, float, int]] = []
    chain: list[int] = []
    remaining = n
    while remaining > 1:
        if not chain:
            chain.append(int((columns[0] != np.inf).argmax()))
        top = chain[-1]
        size = sizes[top]
        sq = columns[0] - columns[0][top]
        sq *= sq
        for column in columns[1:]:
            diff = column - column[top]
            diff *= diff
            sq += diff
        dists = size * sizes
        dists /= size + sizes
        dists *= sq
        dists[top] = np.inf
        nearest = int(dists.argmin())
        if len(chain) >= 2 and nearest == chain[-2]:
            a, b = chain.pop(), chain.pop()
            total = size + sizes[b]
            for column in columns:
                column[a] = (size * column[a] + sizes[b] * column[b]) / total
                column[b] = np.inf
            sizes[a] = total
            merges.append((int(slots[a]), int(slots[b]), float(dists[b]), int(total)))
            remaining -= 1
            if 2 * remaining <= sizes.size:
                alive = columns[0] != np.inf
                chain = [int(pos) for pos in (np.cumsum(alive) - 1)[chain]]
                columns = [column[alive] for column in columns]
                sizes, slots = sizes[alive], slots[alive]
        else:
            chain.append(nearest)
    return merges


def _ward_labels_exact(points: np.ndarray, n_clusters: int) -> np.ndarray:
    chain = _compiled_chain(points, n_clusters)
    if chain is not None:
        return chain[-1]  # the same cut, in C
    n = points.shape[0]
    merges = _nn_chain_merges(points)
    order = np.argsort([m[2] for m in merges], kind="stable")
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Apply the n - n_clusters cheapest merges (dendrogram cut).
    for merge_idx in order[: n - n_clusters]:
        a, b, _, _ = merges[merge_idx]
        ra, rb = find(a), find(b)
        parent[rb] = ra
    roots = np.fromiter((find(i) for i in range(n)), dtype=int, count=n)
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def _compiled_chain(points: np.ndarray, n_clusters: int):
    """``compiled.ward``'s result, or ``None`` where the NumPy chain runs."""
    library, _ = compiled.load()
    return None if library is None else compiled.ward(library, points, n_clusters)


def _ward_labels_kdsplit(
    points: np.ndarray, n_clusters: int, exact_threshold: int, map=map
) -> np.ndarray:
    """Locality-approximate Ward for very large point sets.

    Recursively median-split along the widest axis until blocks fit the
    exact solver, allocate each block a share of clusters proportional
    to its size, and cluster blocks independently (through ``map``).
    """
    n = points.shape[0]
    leaves: list[tuple[np.ndarray, int]] = []

    def recurse(indices: np.ndarray, k: int) -> None:
        if k <= 1 or indices.size <= exact_threshold:
            leaves.append((indices, k))
            return
        block = points[indices]
        axis = int(np.argmax(block.max(axis=0) - block.min(axis=0)))
        median = np.median(block[:, axis])
        left_mask = block[:, axis] <= median
        # Guard against degenerate splits on duplicated coordinates.
        if left_mask.all() or not left_mask.any():
            half = indices.size // 2
            sorted_idx = np.argsort(block[:, axis], kind="stable")
            left_mask = np.zeros(indices.size, dtype=bool)
            left_mask[sorted_idx[:half]] = True
        left = indices[left_mask]
        right = indices[~left_mask]
        k_left = max(1, min(k - 1, int(round(k * left.size / indices.size))))
        recurse(left, k_left)
        recurse(right, k - k_left)

    recurse(np.arange(n), n_clusters)
    blocks = [(points[indices], min(k, indices.size)) for indices, k in leaves if k > 1]
    solved = _map_ward_labels(map, blocks, exact_threshold)
    labels = np.empty(n, dtype=int)
    next_label = 0
    for indices, k in leaves:
        sub = next(solved) if k > 1 else 0  # a one-cluster leaf is one label
        labels[indices] = sub + next_label
        next_label += int(np.max(sub)) + 1
    return labels


def _split_oversized(
    points: np.ndarray, labels: np.ndarray, max_size: int, exact_threshold: int, map=map
) -> np.ndarray:
    """Recursively re-split any cluster larger than ``max_size``."""
    labels = labels.copy()
    next_label = int(labels.max()) + 1
    # Iterate until fixed point; each pass strictly shrinks violators.
    while True:
        sizes = np.bincount(labels)
        oversized = np.flatnonzero(sizes > max_size)
        if oversized.size == 0:
            return labels
        # A re-split only hands out labels above every oversized one, so
        # the pass's members can all be collected before any relabel:
        # one stable sort groups them, each label's members ascending.
        by_label = np.argsort(labels, kind="stable")
        starts = np.cumsum(sizes) - sizes
        groups = [by_label[starts[label] : starts[label] + sizes[label]] for label in oversized]
        parts = [-(-members.size // max_size) for members in groups]
        problems = [(points[members], count) for members, count in zip(groups, parts)]
        solved = _map_ward_labels(map, problems, exact_threshold)
        for members, count, sub in zip(groups, parts, solved):
            # Part 0 keeps the old label, part p > 0 gets the (p-1)-th
            # fresh one.
            moved = sub > 0
            labels[members[moved]] = next_label + sub[moved] - 1
            next_label += count - 1


def _map_ward_labels(map, problems: list, exact_threshold: int) -> Iterator[np.ndarray]:
    """``ward_labels`` of each ``(points, n_clusters)``, in order, via ``map``."""
    total = sum(points.shape[0] for points, _ in problems)
    count = max(1, min(len(problems), -(-total // MAP_TASK_POINTS)))
    cuts = [len(problems) * task // count for task in range(count + 1)]
    tasks = [problems[start:stop] for start, stop in zip(cuts, cuts[1:])]
    solve = functools.partial(_ward_labels_each, exact_threshold=exact_threshold)
    return (labels for task_labels in map(solve, tasks) for labels in task_labels)


def _ward_labels_each(problems: list, exact_threshold: int) -> list[np.ndarray]:
    """One map task; module-level so it pickles, and it never maps again."""
    return [ward_labels(points, k, exact_threshold) for points, k in problems]
