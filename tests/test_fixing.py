"""Tests for inter-cluster endpoint fixing (Section IV-2)."""

import numpy as np
import pytest

from repro.clustering.fixing import (
    centroid_distance_matrix,
    fix_level_endpoints,
)
from repro.errors import ClusteringError
from repro.tsp.instance import TSPInstance


@pytest.fixture
def line_instance():
    # Three clusters laid out left to right on a line, 2 cities each.
    coords = np.array(
        [
            [0.0, 0.0], [10.0, 0.0],      # cluster 0
            [100.0, 0.0], [110.0, 0.0],   # cluster 1
            [200.0, 0.0], [210.0, 0.0],   # cluster 2
        ]
    )
    inst = TSPInstance("line", coords)
    leaves = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
    return inst, leaves


class TestFixLevelEndpoints:
    def test_closest_pairs_chosen(self, line_instance):
        inst, leaves = line_instance
        fixings = fix_level_endpoints(inst, leaves)
        # Cluster 0 -> 1: the closest pair is (1, 2).
        assert fixings[0].exit_leaf == 1
        assert fixings[1].entry_leaf == 2
        # Cluster 1 -> 2: closest pair is (3, 4).
        assert fixings[1].exit_leaf == 3
        assert fixings[2].entry_leaf == 4

    def test_cyclic_wraparound(self, line_instance):
        inst, leaves = line_instance
        fixings = fix_level_endpoints(inst, leaves)
        # Cluster 2 -> 0 wrap: closest pair is (4, 1)? cities 4/5 vs 0/1:
        # distance(4,1)=190 < distance(4,0)=200 ... exit from cluster 2
        # must be 4 or 5; entry of cluster 0 in {0, 1}.
        assert fixings[2].exit_leaf in (4, 5)
        assert fixings[0].entry_leaf in (0, 1)

    def test_every_cluster_has_both_endpoints(self, line_instance):
        inst, leaves = line_instance
        for fixing in fix_level_endpoints(inst, leaves):
            assert fixing.entry_leaf >= 0
            assert fixing.exit_leaf >= 0

    def test_endpoints_belong_to_cluster(self, line_instance):
        inst, leaves = line_instance
        fixings = fix_level_endpoints(inst, leaves)
        for fixing, cluster_leaves in zip(fixings, leaves):
            assert fixing.entry_leaf in cluster_leaves
            assert fixing.exit_leaf in cluster_leaves

    def test_child_conflict_avoidance(self):
        # Cluster B sits between A and C; B's closest cities to both A
        # and C fall in the same child (leaf 2).  With the child map the
        # exit should avoid the entry child when possible.
        coords = np.array(
            [
                [0.0, 0.0],          # A: leaf 0
                [10.0, 0.0],         # B child 0: leaf 1  (farther)
                [5.0, 0.0],          # B child 1: leaf 2  (closest to both)
                [6.0, 0.0],          # C: leaf 3
            ]
        )
        inst = TSPInstance("conflict", coords)
        leaves = [np.array([0]), np.array([1, 2]), np.array([3])]
        child_of_leaf = np.array([0, 0, 1, 0])
        fixings = fix_level_endpoints(inst, leaves, child_of_leaf)
        middle = fixings[1]
        entry_child = child_of_leaf[middle.entry_leaf]
        exit_child = child_of_leaf[middle.exit_leaf]
        assert entry_child != exit_child

    def test_needs_two_clusters(self, line_instance):
        inst, leaves = line_instance
        with pytest.raises(ClusteringError):
            fix_level_endpoints(inst, leaves[:1])


class TestCentroidDistanceMatrix:
    def test_euclidean_values(self):
        centroids = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = centroid_distance_matrix(centroids)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[0, 0] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        d = centroid_distance_matrix(rng.normal(size=(6, 2)))
        np.testing.assert_allclose(d, d.T)

    def test_bad_shape(self):
        with pytest.raises(ClusteringError):
            centroid_distance_matrix(np.zeros(5))
