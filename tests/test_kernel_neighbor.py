"""Bit-exact parity tests for the vectorized neighbor-list kernel.

The fast 2-opt/Or-opt passes must reproduce the reference scalar
passes *exactly* — same improving move found first, same tour order
out, across every metric family.  Equal lengths are not enough: the
kernels feed golden comparisons and cross-worker bit-identity checks.
"""

import numpy as np
import pytest

from repro.kernels.neighbor import (
    NeighborKernelParity,
    NeighborLocalSearch,
    make_dist_fns,
    neighbor_local_search,
    or_opt_pass,
    or_opt_pass_fast,
    two_opt_pass,
    two_opt_pass_fast,
)
from repro.tsp.generators import clustered_instance, uniform_instance
from repro.tsp.instance import EdgeWeightType, TSPInstance
from repro.tsp.neighbors import build_candidate_lists


def _random_order(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def _metric_instance(metric: EdgeWeightType, n: int, seed: int) -> TSPInstance:
    coords = np.random.default_rng(seed).uniform(0, 1000, size=(n, 2))
    if metric is EdgeWeightType.GEO:
        coords = np.column_stack([
            np.random.default_rng(seed).uniform(-80, 80, size=n),
            np.random.default_rng(seed + 1).uniform(-170, 170, size=n),
        ])
    if metric is EdgeWeightType.EXPLICIT:
        base = TSPInstance("tmp", coords)
        return TSPInstance(
            "ex", None, EdgeWeightType.EXPLICIT,
            matrix=base.distance_matrix(),
        )
    return TSPInstance(f"m-{metric.name}", coords, metric)


ALL_METRICS = (
    EdgeWeightType.EUC_2D,
    EdgeWeightType.CEIL_2D,
    EdgeWeightType.MAX_2D,
    EdgeWeightType.MAN_2D,
    EdgeWeightType.ATT,
    EdgeWeightType.GEO,
    EdgeWeightType.EXPLICIT,
)


class TestPassParity:
    """One reference pass vs one fast pass from identical state."""

    @staticmethod
    def _state(start: np.ndarray):
        order = start.copy()
        position = np.empty(order.size, dtype=int)
        position[order] = np.arange(order.size)
        return order, position

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_two_opt_single_pass(self, metric):
        inst = _metric_instance(metric, 90, seed=5)
        lists = build_candidate_lists(inst, 8)
        dist, pair = make_dist_fns(inst)
        for trial in range(3):
            start = _random_order(90, seed=100 + trial)
            ref, ref_pos = self._state(start)
            ref_improved = two_opt_pass(ref, ref_pos, lists.neighbors, dist)
            fast, fast_pos = self._state(start)
            fast_improved = two_opt_pass_fast(
                fast, fast_pos, lists.neighbors, lists.distances, dist, pair
            )
            np.testing.assert_array_equal(ref, fast)
            np.testing.assert_array_equal(ref_pos, fast_pos)
            assert ref_improved == fast_improved

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_or_opt_single_pass(self, metric):
        inst = _metric_instance(metric, 90, seed=6)
        lists = build_candidate_lists(inst, 8)
        dist, pair = make_dist_fns(inst)
        for trial in range(3):
            start = _random_order(90, seed=200 + trial)
            ref, ref_pos = self._state(start)
            ref_improved = or_opt_pass(ref, ref_pos, lists.neighbors, dist)
            fast, fast_pos = self._state(start)
            fast_improved = or_opt_pass_fast(
                fast, fast_pos, lists.neighbors, dist, pair
            )
            np.testing.assert_array_equal(ref, fast)
            np.testing.assert_array_equal(ref_pos, fast_pos)
            assert ref_improved == fast_improved


class TestSearchParity:
    """Full multi-round searches stay in lock-step too."""

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_parity_harness(self, metric):
        inst = _metric_instance(metric, 70, seed=7)
        parity = NeighborKernelParity(inst, k=6)
        assert parity.check(_random_order(70, seed=11))

    def test_duplicate_coords(self):
        coords = np.repeat(
            np.random.default_rng(0).uniform(0, 100, size=(10, 2)), 6, axis=0
        )
        inst = TSPInstance("dups", coords)
        parity = NeighborKernelParity(inst, k=5)
        assert parity.check(_random_order(60, seed=3))

    def test_run_returns_both_tours(self):
        inst = uniform_instance(50, seed=2)
        ref, fast = NeighborKernelParity(inst, k=6).run(
            _random_order(50, seed=4)
        )
        np.testing.assert_array_equal(ref, fast)


class TestNeighborLocalSearch:
    def test_improves_random_tour(self):
        inst = clustered_instance(150, seed=1)
        lists = build_candidate_lists(inst, 8)
        start = _random_order(150, seed=9)
        improved = NeighborLocalSearch(lists).improve(start)
        assert inst.tour_length(improved) < inst.tour_length(start)
        assert np.array_equal(np.sort(improved), np.arange(150))

    def test_backend_reference_matches_fast(self):
        inst = uniform_instance(80, seed=3)
        search = NeighborLocalSearch(build_candidate_lists(inst, 8))
        start = _random_order(80, seed=5)
        np.testing.assert_array_equal(
            search.improve_reference(start), search.improve(start)
        )

    def test_bad_permutation_rejected(self):
        inst = uniform_instance(20, seed=0)
        lists = build_candidate_lists(inst, 4)
        search = NeighborLocalSearch(lists)
        with pytest.raises(Exception):
            search.improve(np.zeros(20, dtype=int))

    def test_convenience_wrapper(self):
        inst = uniform_instance(40, seed=6)
        start = _random_order(40, seed=7)
        a = neighbor_local_search(inst, start, k=6)
        b = NeighborLocalSearch(build_candidate_lists(inst, 6)).improve(start)
        np.testing.assert_array_equal(a, b)

    def test_no_or_opt_knob(self):
        inst = uniform_instance(60, seed=8)
        lists = build_candidate_lists(inst, 6)
        start = _random_order(60, seed=8)
        with_or = NeighborLocalSearch(lists, use_or_opt=True).improve(start)
        without = NeighborLocalSearch(lists, use_or_opt=False).improve(start)
        # Both land on valid improved tours; the knob changes the move
        # set, so the local optima may legitimately differ.
        for tour in (with_or, without):
            assert np.array_equal(np.sort(tour), np.arange(60))
            assert inst.tour_length(tour) < inst.tour_length(start)


class TestDistFns:
    def test_sparse_path_no_matrix(self):
        # Above DENSE_MATRIX_LIMIT the dist fns must not touch
        # distance_matrix(); monkey-patch it to explode if called.
        inst = clustered_instance(5000, seed=4)
        original = type(inst).distance_matrix

        def boom(self):
            raise AssertionError("full matrix materialized")

        type(inst).distance_matrix = boom
        try:
            dist, pair = make_dist_fns(inst)
            assert dist(0, 1) == inst.distance(0, 1)
            idx = np.array([1, 2, 3])
            np.testing.assert_array_equal(
                pair(np.array([0, 0, 0]), idx),
                np.array([inst.distance(0, j) for j in idx]),
            )
        finally:
            type(inst).distance_matrix = original

    def test_dense_path_matches_sparse_values(self):
        inst = uniform_instance(60, seed=5)
        dist, pair = make_dist_fns(inst)
        m = inst.distance_matrix()
        for i, j in ((0, 1), (10, 50), (59, 0)):
            assert dist(i, j) == m[i, j]
