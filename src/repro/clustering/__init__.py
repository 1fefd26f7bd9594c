"""Hierarchical clustering layer (paper Section IV).

* :mod:`~repro.clustering.agglomerative` — from-scratch Ward-linkage
  agglomerative clustering (nearest-neighbour-chain, O(n) memory) with
  a KD-split scalable variant for very large levels and a maximum-
  cluster-size constraint (the Ising macro capacity).
* :mod:`~repro.clustering.kmeans` — Lloyd's k-means with k-means++
  seeding (the clustering used by the HVC/IMA/CIMA baselines).
* :mod:`~repro.clustering.hierarchy` — bottom-up hierarchy builder:
  cities -> clusters -> centroids -> ... until one macro-sized level.
* :mod:`~repro.clustering.fixing` — inter-cluster endpoint fixing via
  closest city pairs (Section IV-2).
* :mod:`~repro.clustering.cache` — endpoint fixing's cross-block cache
  keyed by (instance, cluster pair).
"""

from repro.clustering.agglomerative import (
    cluster_with_max_size,
    ward_labels,
    ward_linkage_matrix,
)
from repro.clustering.kmeans import kmeans_labels, kmeans_with_max_size
from repro.clustering.hierarchy import Hierarchy, HierarchyLevel, build_hierarchy
from repro.clustering.fixing import EndpointFixing, fix_level_endpoints
from repro.clustering.cache import SubmatrixCache

__all__ = [
    "SubmatrixCache",
    "ward_labels",
    "ward_linkage_matrix",
    "cluster_with_max_size",
    "kmeans_labels",
    "kmeans_with_max_size",
    "Hierarchy",
    "HierarchyLevel",
    "build_hierarchy",
    "EndpointFixing",
    "fix_level_endpoints",
]
