"""Tests for Ward agglomerative clustering, k-means, and the hierarchy."""

import contextlib
import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import agglomerative
from repro.clustering.agglomerative import (
    MAP_TASK_POINTS,
    _nn_chain_merges,
    cluster_with_max_size,
    ward_labels,
    ward_linkage_matrix,
)
from repro.clustering.hierarchy import HierarchyLevel, build_hierarchy
from repro.clustering.kmeans import kmeans_labels, kmeans_with_max_size
from repro.engine.wavefront import WavefrontPool
from repro.errors import ClusteringError
from repro.tsp.benchmarks import load_benchmark
from repro.tsp.generators import clustered_instance, uniform_instance
from repro.tsp.instance import EdgeWeightType, TSPInstance


def blobs(seed=0, n=60, k=4):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100]], dtype=float)[:k]
    assignment = rng.integers(0, k, size=n)
    return centers[assignment] + rng.normal(0, 2.0, size=(n, 2)), assignment


def reference_nn_chain_merges(points):
    """The row-wise NN-chain the lean chain replaced, kept as the oracle.

    Every step recomputes the Ward distance from the chain top to every
    slot, merged-away ones included, and masks the inactive ones.
    """

    def ward_distance_rows(centroid, size, centroids, sizes):
        diff = centroids - centroid
        sq = (diff * diff).sum(axis=1)
        return (size * sizes) / (size + sizes) * sq

    n = points.shape[0]
    centroids = points.copy()
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    merges = []
    chain = []
    remaining = n
    while remaining > 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        top = chain[-1]
        dists = ward_distance_rows(centroids[top], sizes[top], centroids, sizes)
        dists[~active] = np.inf
        dists[top] = np.inf
        nearest = int(np.argmin(dists))
        if len(chain) >= 2 and nearest == chain[-2]:
            a, b = chain.pop(), chain.pop()
            height = float(
                ward_distance_rows(
                    centroids[a], sizes[a], centroids[b : b + 1], sizes[b : b + 1]
                )[0]
            )
            total = sizes[a] + sizes[b]
            centroids[a] = (sizes[a] * centroids[a] + sizes[b] * centroids[b]) / total
            sizes[a] = total
            active[b] = False
            merges.append((a, b, height, int(total)))
            remaining -= 1
        else:
            chain.append(nearest)
    return merges


def reference_hierarchy_levels(instance, max_cluster_size, cluster_fn):
    """The per-cluster grouping loop the one-pass grouping replaced.

    Each cluster's members by one scan per label, its leaves by one
    concatenation, its centroid by one ``.mean``.
    """
    n = instance.n
    levels = [
        HierarchyLevel(0, instance.coords.copy(), [], list(np.arange(n).reshape(n, 1)))
    ]
    while levels[-1].n_nodes > max_cluster_size:
        below = levels[-1]
        labels = np.asarray(cluster_fn(below.centroids, max_cluster_size))
        children, leaves, centroids = [], [], []
        for label in np.unique(labels):
            members = np.flatnonzero(labels == label)
            member_leaves = np.concatenate([below.leaves[i] for i in members])
            children.append(members)
            leaves.append(member_leaves)
            centroids.append(instance.coords[member_leaves].mean(axis=0))
        levels.append(HierarchyLevel(len(levels), np.array(centroids), children, leaves))
    return levels


def hierarchy_digest(hierarchy):
    """Digest of every level's centroid bytes and children."""
    digest = hashlib.sha256()
    for level in hierarchy.levels:
        digest.update(np.ascontiguousarray(level.centroids, dtype=np.float64).tobytes())
        digest.update(np.array([len(c) for c in level.children], dtype=np.int64).tobytes())
        for children in level.children:
            digest.update(np.asarray(children, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


class TestNNChain:
    """The lean NN-chain returns the row-wise chain's merges bit-for-bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        dims=st.sampled_from([1, 2, 3]),
        kind=st.sampled_from(["uniform", "grid", "duplicates", "equal"]),
    )
    def test_equals_reference_merges(self, seed, n, dims, kind):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            points = rng.uniform(-1e3, 1e3, size=(n, dims))
        elif kind == "grid":  # integer grid: many exactly tied distances
            points = rng.integers(0, 4, size=(n, dims)).astype(float)
        elif kind == "duplicates":
            base = rng.normal(size=(max(1, n // 3), dims))
            points = base[rng.integers(0, base.shape[0], size=n)]
        else:
            points = np.full((n, dims), rng.normal())
        got = _nn_chain_merges(points)
        expected = reference_nn_chain_merges(points)
        assert [(a, b, size) for a, b, _, size in got] == [
            (a, b, size) for a, b, _, size in expected
        ]
        heights = np.array([m[2] for m in got])
        np.testing.assert_array_equal(
            heights.view(np.uint64), np.array([m[2] for m in expected]).view(np.uint64)
        )


class TestPointValidation:
    def test_rejects_zero_dimensional_points(self):
        with pytest.raises(ClusteringError, match="d >= 1"):
            ward_labels(np.zeros((5, 0)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        points = uniform_instance(20, seed=19).coords.copy()
        points[7, 1] = bad
        with pytest.raises(ClusteringError, match="finite"):
            ward_labels(points, 4)
        with pytest.raises(ClusteringError, match="finite"):
            ward_linkage_matrix(points)
        with pytest.raises(ClusteringError, match="finite"):
            cluster_with_max_size(points, 5)

    def test_hierarchy_rejects_nan_city(self):
        coords = uniform_instance(20, seed=19).coords.copy()
        coords[3, 0] = np.nan
        inst = TSPInstance("nan20", coords, EdgeWeightType.EUC_2D)
        with pytest.raises(ClusteringError, match="finite"):
            build_hierarchy(inst, 12)


class TestWardLabels:
    def test_recovers_separated_blobs(self):
        points, truth = blobs(seed=1)
        labels = ward_labels(points, 4)
        # Same-blob points share a label; cross-blob points do not.
        for blob in range(4):
            members = labels[truth == blob]
            if members.size:
                assert np.unique(members).size == 1
        assert np.unique(labels).size == 4

    def test_label_count(self):
        points, _ = blobs(seed=2)
        for k in (2, 5, 9):
            assert np.unique(ward_labels(points, k)).size == k

    def test_n_clusters_equals_n(self):
        points = np.random.default_rng(0).normal(size=(7, 2))
        labels = ward_labels(points, 7)
        assert np.unique(labels).size == 7

    def test_invalid_k(self):
        points = np.zeros((5, 2))
        with pytest.raises(ClusteringError):
            ward_labels(points, 0)
        with pytest.raises(ClusteringError):
            ward_labels(points, 6)

    def test_kdsplit_path_consistent(self):
        # Force the KD-split path with a tiny threshold and verify it
        # still produces the requested cluster count on blobby data.
        points, _ = blobs(seed=3, n=200)
        labels = ward_labels(points, 10, exact_threshold=50)
        assert np.unique(labels).size == 10

    def test_linkage_matrix_shape(self):
        points, _ = blobs(seed=4, n=20)
        linkage = ward_linkage_matrix(points)
        assert linkage.shape == (19, 4)
        # Heights sorted ascending (scipy convention after our sort).
        assert np.all(np.diff(linkage[:, 2]) >= -1e-9)
        # Final merge contains all points.
        assert linkage[-1, 3] == 20

    @pytest.mark.parametrize("seed, n, dims", [(0, 12, 2), (1, 40, 2), (2, 90, 3), (3, 25, 1)])
    def test_linkage_matrix_equals_scipy(self, seed, n, dims):
        # Uniform random points: no two merge heights tie, so the order
        # of the rows is the same too.
        from scipy.cluster.hierarchy import linkage

        points = np.random.default_rng(seed).uniform(0, 100, size=(n, dims))
        ours = ward_linkage_matrix(points)
        theirs = linkage(points, method="ward")
        np.testing.assert_array_equal(ours[:, [0, 1, 3]], theirs[:, [0, 1, 3]])
        np.testing.assert_allclose(ours[:, 2], theirs[:, 2], rtol=1e-12)

    def test_matches_scipy_ward(self):
        # Cross-check cluster assignments against scipy's Ward linkage.
        from scipy.cluster.hierarchy import fcluster, linkage

        points, _ = blobs(seed=5, n=40)
        ours = ward_labels(points, 5)
        theirs = fcluster(linkage(points, method="ward"), 5, criterion="maxclust")
        # Compare partitions up to relabeling via pair-confusion.
        same_ours = ours[:, None] == ours[None, :]
        same_theirs = theirs[:, None] == theirs[None, :]
        agreement = (same_ours == same_theirs).mean()
        assert agreement > 0.95


class TestMaxSizeConstraint:
    @pytest.mark.parametrize("max_size", [5, 12, 20])
    def test_no_cluster_exceeds(self, max_size):
        inst = uniform_instance(150, seed=6)
        labels = cluster_with_max_size(inst.coords, max_size)
        assert np.bincount(labels).max() <= max_size

    def test_cluster_count_near_minimum(self):
        inst = uniform_instance(120, seed=7)
        labels = cluster_with_max_size(inst.coords, 12)
        assert np.unique(labels).size >= 10  # ceil(120/12)

    def test_all_points_labelled(self):
        inst = uniform_instance(77, seed=8)
        labels = cluster_with_max_size(inst.coords, 12)
        assert labels.shape == (77,)
        assert np.bincount(labels).sum() == 77

    def test_invalid_max_size(self):
        with pytest.raises(ClusteringError):
            cluster_with_max_size(np.zeros((5, 2)), 0)


class TestKMeans:
    def test_recovers_blobs(self):
        points, truth = blobs(seed=9)
        labels = kmeans_labels(points, 4, seed=0)
        for blob in range(4):
            members = labels[truth == blob]
            if members.size:
                assert np.unique(members).size == 1

    def test_max_size_variant(self):
        inst = uniform_instance(100, seed=10)
        labels = kmeans_with_max_size(inst.coords, 12, seed=0)
        assert np.bincount(labels).max() <= 12

    def test_deterministic_with_seed(self):
        points, _ = blobs(seed=11)
        a = kmeans_labels(points, 4, seed=5)
        b = kmeans_labels(points, 4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_invalid_k(self):
        with pytest.raises(ClusteringError):
            kmeans_labels(np.zeros((4, 2)), 5)


class TestHierarchy:
    def test_levels_shrink_to_top(self):
        inst = uniform_instance(300, seed=12)
        h = build_hierarchy(inst, 12)
        sizes = [level.n_nodes for level in h.levels]
        assert sizes[0] == 300
        assert sizes[-1] <= 12
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_leaves_partition_cities(self):
        inst = uniform_instance(100, seed=13)
        h = build_hierarchy(inst, 12)
        for level in h.levels[1:]:
            all_leaves = np.concatenate(level.leaves)
            assert sorted(all_leaves.tolist()) == list(range(100))

    def test_children_bounded(self):
        inst = uniform_instance(200, seed=14)
        h = build_hierarchy(inst, 10)
        for level in h.levels[1:]:
            for children in level.children:
                assert 1 <= len(children) <= 10

    def test_centroids_are_leaf_means(self):
        inst = uniform_instance(80, seed=15)
        h = build_hierarchy(inst, 12)
        level = h.levels[1]
        for idx in range(level.n_nodes):
            expected = inst.coords[level.leaves[idx]].mean(axis=0)
            np.testing.assert_allclose(level.centroids[idx], expected)

    def test_kmeans_cluster_fn(self):
        inst = uniform_instance(90, seed=16)

        def fn(points, max_size):
            return kmeans_with_max_size(points, max_size, seed=1)

        h = build_hierarchy(inst, 12, fn)
        h.validate()

    def test_small_instance_single_level(self):
        inst = uniform_instance(10, seed=17)
        h = build_hierarchy(inst, 12)
        assert h.depth == 1

    def test_requires_coords(self):
        m = uniform_instance(10, seed=0).distance_matrix()
        ex = TSPInstance("ex", None, EdgeWeightType.EXPLICIT, matrix=m)
        with pytest.raises(ClusteringError):
            build_hierarchy(ex, 12)

    def test_invalid_max_cluster(self):
        inst = uniform_instance(30, seed=18)
        with pytest.raises(ClusteringError):
            build_hierarchy(inst, 1)

    @pytest.mark.parametrize("clustering", ["ward", "kmeans"])
    def test_grouping_pass_equals_per_cluster_loop(self, clustering):
        # Byte-identical children, leaves and centroids.  A tight column
        # of cities at x = -0.0 makes a cluster whose leaves all have
        # x = -0.0: ``.mean`` sums from +0.0 and gives +0.0, where a sum
        # started from the first leaf would give -0.0.
        coords = clustered_instance(3000, seed=7).coords.copy()
        coords[:6] = np.column_stack([np.full(6, -0.0), np.arange(6) * 1e-3])
        inst = TSPInstance("negzero", coords)
        if clustering == "ward":
            cluster_fn = functools.partial(cluster_with_max_size, exact_threshold=256)
        else:
            cluster_fn = functools.partial(kmeans_with_max_size, seed=1)
        got = build_hierarchy(inst, 12, cluster_fn).levels
        expected = reference_hierarchy_levels(inst, 12, cluster_fn)
        assert len(got) == len(expected) >= 3
        for level, want in zip(got, expected):
            assert level.centroids.dtype == want.centroids.dtype
            assert level.centroids.tobytes() == want.centroids.tobytes()
            for name in ("children", "leaves"):
                ours, theirs = getattr(level, name), getattr(want, name)
                assert len(ours) == len(theirs)
                for a, b in zip(ours, theirs):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
        assert any(
            np.signbit(coords[leaves, 0]).all() and (coords[leaves, 0] == 0).all()
            for leaves in got[1].leaves
        )

    # Digests of the row-wise NN-chain's hierarchies: clustering must stay
    # byte-identical, on the compiled chain and on the NumPy chain.  The
    # KD case runs KD-split levels (3,000 and 389 nodes over a 256-point
    # threshold), oversized re-splits and an exact top level; syn33810
    # runs the default threshold's KD blocks and a 4,082-node exact level.
    PINNED = [
        pytest.param(
            lambda: load_benchmark("syn1060"), {}, "4c8c6fe292d6df06", id="syn1060"
        ),
        pytest.param(
            lambda: clustered_instance(3000, seed=7),
            {"exact_threshold": 256},
            "eec56c2f7c0f8b6f",
            id="clustered3000-kd256",
        ),
        pytest.param(
            lambda: load_benchmark("syn33810"), {}, "7ea87755a426624d", id="syn33810"
        ),
    ]

    @pytest.mark.parametrize("make, options, expected", PINNED)
    def test_pinned_digest(self, make, options, expected):
        self._assert_pinned(make, options, expected)

    @pytest.mark.parametrize("make, options, expected", PINNED)
    def test_pinned_digest_on_numpy_chain(self, make, options, expected, numpy_sweeps):
        self._assert_pinned(make, options, expected)

    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("make, options, expected", PINNED)
    def test_pinned_digest_through_pool(self, make, options, expected, executor):
        """KD blocks and re-splits through a 2-worker pool's ``map``."""
        self._assert_pinned_through_pool(make, options, expected, executor)

    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("make, options, expected", PINNED)
    def test_pinned_digest_through_pool_on_numpy_chain(
        self, make, options, expected, executor, numpy_sweeps
    ):
        """The same, with the NumPy chain (forked workers inherit it)."""
        self._assert_pinned_through_pool(make, options, expected, executor)

    @staticmethod
    def _assert_pinned(make, options, expected):
        cluster_fn = functools.partial(cluster_with_max_size, **options)
        assert hierarchy_digest(build_hierarchy(make(), 12, cluster_fn)) == expected

    @staticmethod
    def _assert_pinned_through_pool(make, options, expected, executor):
        tasks_per_map = []
        with contextlib.ExitStack() as stack:
            threads = (
                stack.enter_context(ThreadPoolExecutor(2)) if executor == "thread" else None
            )
            pool = stack.enter_context(WavefrontPool(workers=2, executor=threads))

            def recorded_map(fn, tasks):
                tasks = list(tasks)
                tasks_per_map.append(len(tasks))
                return pool.map(fn, tasks)

            cluster_fn = functools.partial(
                cluster_with_max_size, map=recorded_map, **options
            )
            hierarchy = build_hierarchy(make(), 12, cluster_fn)
        assert hierarchy_digest(hierarchy) == expected
        if options:
            # Level 0's KD blocks are the first map; its re-split passes
            # (then level 1's KD split and re-splits) follow.
            kd_tasks, *later_tasks = tasks_per_map
            assert kd_tasks >= 2
            assert sum(later_tasks) >= 2

    @pytest.mark.parametrize("task_points", [MAP_TASK_POINTS, 64])
    def test_pool_labels_equal_inline(self, monkeypatch, task_points):
        """The map task size is a dispatch bound, not part of the labels."""
        points = clustered_instance(3000, seed=7).coords
        inline = cluster_with_max_size(points, 12, exact_threshold=256)
        monkeypatch.setattr(agglomerative, "MAP_TASK_POINTS", task_points)
        with WavefrontPool(workers=2) as pool:
            pooled = cluster_with_max_size(
                points, 12, exact_threshold=256, map=pool.map
            )
        assert np.array_equal(pooled, inline)
