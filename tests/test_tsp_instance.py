"""Tests for TSPInstance metrics and distance computation."""

import numpy as np
import pytest

from repro.errors import InstanceError
from repro.tsp.instance import EdgeWeightType, TSPInstance, euclidean_instance


@pytest.fixture
def square():
    # Unit square scaled by 100.
    coords = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])
    return TSPInstance("square", coords)


class TestConstruction:
    def test_basic(self, square):
        assert square.n == 4
        assert len(square) == 4

    def test_coords_required(self):
        with pytest.raises(InstanceError):
            TSPInstance("bad", None, EdgeWeightType.EUC_2D)

    def test_explicit_requires_matrix(self):
        with pytest.raises(InstanceError):
            TSPInstance("bad", None, EdgeWeightType.EXPLICIT)

    def test_explicit_symmetry_enforced(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InstanceError):
            TSPInstance("bad", None, EdgeWeightType.EXPLICIT, matrix=m)

    def test_too_small(self):
        with pytest.raises(InstanceError):
            TSPInstance("bad", np.array([[0.0, 0.0]]))

    def test_bad_coord_shape(self):
        with pytest.raises(InstanceError):
            TSPInstance("bad", np.zeros((5, 3)))


class TestEuc2D:
    def test_rounded(self, square):
        assert square.distance(0, 1) == 100.0
        assert square.distance(0, 2) == pytest.approx(round(100 * np.sqrt(2)))

    def test_symmetric(self, square):
        for i in range(4):
            for j in range(4):
                assert square.distance(i, j) == square.distance(j, i)

    def test_diagonal_zero(self, square):
        assert square.distance(2, 2) == 0.0

    def test_rounding_convention(self):
        # EUC_2D uses nint(): 1.5 -> 2 under round-half-even on .5 is 2.
        inst = TSPInstance("r", np.array([[0.0, 0.0], [1.4, 0.0]]))
        assert inst.distance(0, 1) == 1.0


class TestOtherMetrics:
    def test_ceil(self):
        inst = TSPInstance(
            "c", np.array([[0.0, 0.0], [1.1, 0.0]]), EdgeWeightType.CEIL_2D
        )
        assert inst.distance(0, 1) == 2.0

    def test_manhattan(self):
        inst = TSPInstance(
            "m", np.array([[0.0, 0.0], [3.0, 4.0]]), EdgeWeightType.MAN_2D
        )
        assert inst.distance(0, 1) == 7.0

    def test_max_metric(self):
        inst = TSPInstance(
            "x", np.array([[0.0, 0.0], [3.0, 4.0]]), EdgeWeightType.MAX_2D
        )
        assert inst.distance(0, 1) == 4.0

    def test_att_pseudo_euclidean(self):
        inst = TSPInstance(
            "a", np.array([[0.0, 0.0], [10.0, 0.0]]), EdgeWeightType.ATT
        )
        # r = sqrt(100/10) = 3.162..., t = 3 -> t < r -> 4
        assert inst.distance(0, 1) == 4.0

    def test_geo_known_shape(self):
        # TSPLIB GEO on ulysses-style coordinates gives integer km.
        coords = np.array([[38.24, 20.42], [39.57, 26.15]])
        inst = TSPInstance("g", coords, EdgeWeightType.GEO)
        d = inst.distance(0, 1)
        assert d == np.trunc(d) and 400 < d < 600

    def test_geo_diagonal_zero(self):
        coords = np.array([[38.24, 20.42], [39.57, 26.15]])
        inst = TSPInstance("g", coords, EdgeWeightType.GEO)
        assert inst.distance(0, 0) == 0.0


class TestBlocks:
    def test_distance_rows_shape(self, square):
        rows = square.distance_rows(np.array([0, 2]))
        assert rows.shape == (2, 4)
        assert rows[0, 1] == square.distance(0, 1)

    def test_distance_block(self, square):
        block = square.distance_block(np.array([0]), np.array([2, 3]))
        assert block.shape == (1, 2)
        assert block[0, 0] == square.distance(0, 2)

    def test_submatrix_matches_matrix(self, square):
        full = square.distance_matrix()
        sub = square.distance_submatrix(np.array([1, 3]))
        assert sub[0, 1] == full[1, 3]

    @pytest.mark.parametrize(
        "metric",
        [
            EdgeWeightType.EUC_2D,
            EdgeWeightType.CEIL_2D,
            EdgeWeightType.ATT,
            EdgeWeightType.GEO,
            EdgeWeightType.MAX_2D,
            EdgeWeightType.MAN_2D,
            "explicit",
            "explicit-asymmetric",
        ],
    )
    def test_pair_distance_equals_block(self, metric):
        """``distance(i, j)`` is the full block's entry, bit for bit."""
        rng = np.random.default_rng(5)
        n = 9
        # DDD.MM-style values are valid GEO coordinates too.
        coords = np.round(rng.uniform(-80.0, 80.0, size=(n, 2)), 2)
        if isinstance(metric, EdgeWeightType):
            inst = TSPInstance("pair", coords, metric)
        else:
            matrix = np.round(rng.uniform(1.0, 100.0, size=(n, n)), 3)
            matrix = matrix + matrix.T
            if metric == "explicit-asymmetric":
                # Inside the constructor's symmetry tolerance, yet not equal.
                matrix = matrix + np.triu(rng.uniform(1e-8, 1e-6, size=(n, n)), 1)
                assert not np.array_equal(matrix, matrix.T)
            np.fill_diagonal(matrix, 0.0)
            inst = TSPInstance("pair", None, EdgeWeightType.EXPLICIT, matrix=matrix)
        block = inst.distance_block(np.arange(n))
        pairs = np.array([[inst.distance(i, j) for j in range(n)] for i in range(n)])
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(pairs[off].view(np.uint64), block[off].view(np.uint64))
        assert all(inst.distance(i, i) == 0.0 for i in range(n))

    def test_matrix_guard_on_huge(self):
        coords = np.zeros((20_000, 2))
        coords[:, 0] = np.arange(20_000)
        inst = TSPInstance("huge", coords)
        with pytest.raises(InstanceError, match="refusing"):
            inst.distance_matrix()


class TestTourLength:
    def test_square_tour(self, square):
        assert square.tour_length(np.array([0, 1, 2, 3])) == 400.0

    def test_open_path(self, square):
        assert square.tour_length(np.array([0, 1, 2, 3]), closed=False) == 300.0

    def test_explicit_matches(self, square):
        m = square.distance_matrix()
        ex = TSPInstance("ex", None, EdgeWeightType.EXPLICIT, matrix=m)
        order = np.array([2, 0, 3, 1])
        assert ex.tour_length(order) == square.tour_length(order)

    def test_trivial_lengths(self, square):
        assert square.tour_length(np.array([1])) == 0.0


class TestSubinstance:
    def test_coords_subset(self, square):
        sub = square.subinstance(np.array([0, 2, 3]))
        assert sub.n == 3
        assert sub.distance(0, 1) == square.distance(0, 2)

    def test_explicit_subset(self, square):
        ex = TSPInstance(
            "ex", None, EdgeWeightType.EXPLICIT, matrix=square.distance_matrix()
        )
        sub = ex.subinstance(np.array([1, 2]))
        assert sub.distance(0, 1) == square.distance(1, 2)

    def test_too_small(self, square):
        with pytest.raises(InstanceError):
            square.subinstance(np.array([0]))


def test_euclidean_instance_helper():
    inst = euclidean_instance("h", [[0, 0], [3, 4]])
    assert inst.metric is EdgeWeightType.EUC_2D
    assert inst.distance(0, 1) == 5.0
