"""The compiled Ward chain: bit-identity with the NumPy chain, and its fallbacks.

``repro.kernels.compiled`` builds ``_ward.c`` (with ``_sweep.c``) at
first use, and ``agglomerative._nn_chain_merges`` and
``_ward_labels_exact`` then make one C call per exact Ward problem.
The contract is bit-identity with the NumPy chain, which stays as the
oracle: the same merges in the same order, bitwise-equal heights, and
the same labels for every cut.  The C chain evaluates only the grid
cells that can hold the chain top's nearest slot, so the inputs below
lean on what could make a pruned scan differ: exact ties, duplicates,
flat axes, a tiny spread far from the origin, heavy tails, spreads
whose squares underflow, and a point placed so that a ring's lower
bound equals the best distance to the last bit.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.agglomerative import (
    _nn_chain_merges,
    _ward_labels_exact,
    ward_labels,
    ward_path,
)
from repro.kernels import compiled
from repro.tsp.generators import clustered_instance

KINDS = (
    "uniform", "grid", "duplicates", "equal", "collinear", "offset", "pareto", "tiny",
)


def require_library() -> None:
    """Skip unless the compiled chain loads: the differential tests need it."""
    library, reason = compiled.load()
    if library is None:
        pytest.skip(f"compiled Ward chain unavailable: {reason}")


@contextmanager
def numpy_chain():
    """Run the NumPy chain for the duration (hypothesis-safe: no fixture)."""
    saved = compiled._loaded
    compiled._loaded = (None, "disabled by test")
    try:
        yield
    finally:
        compiled._loaded = saved


def make_points(kind: str, n: int, dims: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1e3, 1e3, size=(n, dims))
    if kind == "grid":  # integer grid: many exactly tied distances
        return rng.integers(0, 4, size=(n, dims)).astype(float)
    if kind == "duplicates":
        base = rng.normal(size=(max(1, n // 3), dims))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "equal":
        return np.full((n, dims), rng.normal())
    if kind == "collinear":
        return rng.uniform(0, 1, size=(n, 1)) * rng.normal(size=dims) + rng.normal(size=dims)
    if kind == "offset":  # a tiny spread far from the origin
        return 1e6 + rng.uniform(0, 1e-9, size=(n, dims))
    if kind == "pareto":  # heavy tails: most points share a few cells
        return rng.pareto(1.5, size=(n, dims)) * rng.choice([-1.0, 1.0], size=(n, dims))
    if kind == "tiny":  # squares underflow: ties at zero and subnormal bounds
        return rng.uniform(0, 1e-160, size=(n, dims))
    raise ValueError(kind)


def merges_and_labels(points: np.ndarray, clusters: list[int]):
    merges = _nn_chain_merges(points)
    pairs = [(a, b, size) for a, b, _, size in merges]
    heights = np.array([height for _, _, height, _ in merges]).view(np.uint64)
    labels = [_ward_labels_exact(points, k) for k in clusters]
    return pairs, heights, labels


def assert_compiled_equals_numpy(points: np.ndarray, clusters: list[int]) -> None:
    pairs, heights, labels = merges_and_labels(points, clusters)
    with numpy_chain():
        expected_pairs, expected_heights, expected_labels = merges_and_labels(points, clusters)
    assert pairs == expected_pairs
    np.testing.assert_array_equal(heights, expected_heights)
    for got, expected in zip(labels, expected_labels):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def bound_tie_points() -> np.ndarray:
    """Eight 1-D points where a ring's bound equals the best distance.

    The grid has four cells of width 1 over [0, 4].  The first top, 2.0
    (slot 0), has 1.0 (slot 2) in ring 1 at Ward distance 0.5, and
    1 - 2**-53 (slot 1) in ring 2, whose difference 1 + 2**-53 rounds
    to 1, so it is also at 0.5: the lower slot, the one argmin picks.
    Ring 2's bound is exactly 0.5 too, so a scan that stops when the
    bound merely reaches the best distance picks slot 2.
    """
    return np.array([[2.0], [1 - 2.0**-53], [1.0], [0.0], [0.0], [4.0], [4.0], [4.0]])


class TestCompiledEqualsNumpy:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(2, 300),
        dims=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        shares=st.lists(st.floats(0, 1), min_size=1, max_size=3),
    )
    def test_random_point_sets(self, kind, n, dims, seed, shares):
        require_library()
        clusters = [1 + int(share * (n - 1)) for share in shares]
        assert_compiled_equals_numpy(make_points(kind, n, dims, seed), clusters)

    @pytest.mark.parametrize(
        "kind, n, dims",
        [
            ("uniform", 3000, 2), ("grid", 2500, 2), ("pareto", 2000, 2),
            ("collinear", 2000, 2), ("offset", 2000, 3), ("uniform", 1500, 1),
        ],
    )
    def test_thousands_of_points(self, kind, n, dims):
        require_library()
        assert_compiled_equals_numpy(make_points(kind, n, dims, seed=n), [n // 9])

    def test_clustered_cities(self):
        require_library()
        points = clustered_instance(3000, seed=7).coords
        assert_compiled_equals_numpy(points, [250, 1000])

    def test_ring_bound_equal_to_best_distance(self):
        require_library()
        points = bound_tie_points()
        assert_compiled_equals_numpy(points, list(range(1, 9)))
        # The slot the bound must not cut off: merged with 1.0 first.
        assert _nn_chain_merges(points)[0][:2] == (2, 1)

    def test_threads_share_nothing(self):
        require_library()
        rng = np.random.default_rng(3)
        problems = [
            (rng.uniform(0, 100, size=(int(rng.integers(200, 1200)), 2)), int(rng.integers(2, 60)))
            for _ in range(16)
        ]
        serial = [ward_labels(points, k) for points, k in problems]
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda problem: ward_labels(*problem), problems))
        for got, expected in zip(threaded, serial):
            np.testing.assert_array_equal(got, expected)


class TestNumpyChainRuns:
    def test_coordinates_beyond_the_limit(self, monkeypatch):
        require_library()
        points = make_points("uniform", 120, 2, seed=4) * 1e95
        points[7, 1] = 2 * compiled.WARD_COORD_LIMIT
        library, _ = compiled.load()
        assert compiled.ward(library, points, 5) is None
        assert compiled.ward(library, points / 4, 5) is not None
        calls = []
        monkeypatch.setattr(
            library, "ward_chain", lambda *args: calls.append(1) or 0, raising=False
        )
        assert_compiled_equals_numpy(points, [5, 40])
        assert calls == []

    def test_c_error_returns_none(self):
        class Failing:
            def ward_chain(self, *args):
                return -2  # e.g. a chain deeper than n

        assert compiled.ward(Failing(), make_points("uniform", 10, 2, seed=1), 3) is None

    def test_path_reports_numpy_without_library(self, numpy_sweeps):
        assert ward_path() == "numpy (disabled by test)"
        labels = ward_labels(make_points("grid", 200, 2, seed=9), 17)
        assert np.unique(labels).size == 17

    def test_path_reports_compiled(self):
        require_library()
        assert ward_path() == "compiled"
