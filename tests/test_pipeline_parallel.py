"""Cluster-parallel pipeline: determinism, invariants, and slice reuse.

The safety net for the wavefront scheduler rewrite:

* seed-parameterized invariants — every pipeline output is a valid
  permutation whose reported length matches an independent
  :mod:`repro.tsp.tour` recomputation;
* the determinism contract — ``workers=4`` (process pool) and an
  injected thread executor are bit-identical to ``workers=1``;
* endpoint fixing never produces duplicate cities;
* the cross-block cache: the conflict-retry path must reuse the cached
  cross-block instead of re-slicing the metric per child (regression
  test on the slice count).
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest

from repro.clustering.cache import SubmatrixCache
from repro.clustering.fixing import fix_level_endpoints
from repro.clustering.hierarchy import build_hierarchy
import repro.core.pipeline as pipeline
from repro.core import TAXIConfig, TAXISolver
from repro.core.pipeline import solve_hierarchical
from repro.engine.wavefront import WavefrontPool, chunk_indices
from repro.errors import ConfigError
from repro.macro.batch import BatchedMacroSolver
from repro.macro.config import MacroConfig
from repro.macro.schedule import paper_schedule
from repro.tsp.generators import (
    clustered_instance,
    power_law_instance,
    ring_instance,
    uniform_instance,
)
from repro.tsp.instance import EdgeWeightType, TSPInstance
from repro.tsp.tour import tour_length, validate_permutation

_EXPLICIT = EdgeWeightType.EXPLICIT

SWEEPS = 30


class TestChunkIndices:
    def test_groups_by_key_then_cuts(self):
        keys = ["a", "b", "a", "a", "b", "a"]
        chunks = chunk_indices(keys, chunk_size=2)
        assert chunks == [[0, 2], [3, 5], [1, 4]]

    def test_chunking_is_worker_independent_input(self):
        keys = [("s", i % 3) for i in range(20)]
        assert chunk_indices(keys, 4) == chunk_indices(keys, 4)

    def test_bad_chunk_size(self):
        with pytest.raises(ConfigError):
            chunk_indices(["a"], 0)


class TestWavefrontPool:
    def test_serial_map_preserves_order(self):
        with WavefrontPool(workers=1) as pool:
            assert pool.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_external_executor_used(self):
        with ThreadPoolExecutor(2) as ex:
            pool = WavefrontPool(workers=1, executor=ex)
            assert pool.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]

    def test_bad_workers(self):
        with pytest.raises(ConfigError):
            WavefrontPool(workers=0)


class TestPipelineInvariants:
    """Seed-parameterized invariants over the full pipeline."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_output_is_valid_permutation(self, seed):
        inst = clustered_instance(130, seed=40 + seed)
        result = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=seed)).solve(inst)
        validate_permutation(result.tour.order, inst.n)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reported_length_matches_recomputation(self, seed):
        inst = uniform_instance(110, seed=50 + seed)
        result = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=seed)).solve(inst)
        assert result.tour.length == pytest.approx(
            tour_length(inst, result.tour.order, closed=True)
        )

    @pytest.mark.parametrize("family", [ring_instance, power_law_instance])
    def test_new_generator_families_solve(self, family):
        inst = family(150, seed=9)
        result = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=0)).solve(inst)
        validate_permutation(result.tour.order, inst.n)


class TestWorkerDeterminism:
    """workers=N must reproduce workers=1 bit-for-bit (PR 1 contract)."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        inst = clustered_instance(150, seed=77)
        result = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=3)).solve(inst)
        return inst, result

    def test_process_pool_bit_identical(self, serial_result):
        inst, serial = serial_result
        parallel = TAXISolver(
            TAXIConfig(sweeps=SWEEPS, seed=3, workers=4)
        ).solve(inst)
        np.testing.assert_array_equal(parallel.tour.order, serial.tour.order)

    def test_thread_executor_bit_identical(self, serial_result):
        inst, serial = serial_result
        with ThreadPoolExecutor(4) as ex:
            threaded = TAXISolver(
                TAXIConfig(sweeps=SWEEPS, seed=3)
            ).solve(inst, executor=ex)
        np.testing.assert_array_equal(threaded.tour.order, serial.tour.order)

    def test_solve_hierarchical_workers_param(self, serial_result):
        inst, serial = serial_result
        hierarchy = build_hierarchy(inst, 12)
        orders = []
        for workers in (1, 3):
            solver = BatchedMacroSolver(MacroConfig(), seed=3)
            order, _, _ = solve_hierarchical(
                hierarchy, solver, paper_schedule(SWEEPS), workers=workers
            )
            orders.append(order)
        np.testing.assert_array_equal(orders[0], orders[1])

    @pytest.mark.parametrize("threads", [0, 2])
    def test_replica_solvers_match_single_solves(self, serial_result, threads):
        # R solvers in one call (merged in process, or one task per
        # chunk on an executor) equal R separate single-solver calls.
        inst, _ = serial_result
        hierarchy = build_hierarchy(inst, 12)
        schedule = paper_schedule(SWEEPS)
        singles = [
            solve_hierarchical(
                hierarchy, BatchedMacroSolver(MacroConfig(), seed=s), schedule
            )
            for s in range(3)
        ]
        solvers = [BatchedMacroSolver(MacroConfig(), seed=s) for s in range(3)]
        with ThreadPoolExecutor(threads) if threads else nullcontext() as ex:
            replicas = solve_hierarchical(
                hierarchy, solvers, schedule, executor=ex
            )
        for (order, _, stats), (single, _, single_stats), solver in zip(
            replicas, singles, solvers
        ):
            np.testing.assert_array_equal(order, single)
            assert stats == single_stats
            assert solver.total_iterations == sum(s.total_iterations for s in stats)

    def test_super_batches_split_levels_without_moving_tours(self, monkeypatch):
        # Levels are cut into contiguous super-batches: one per level in
        # process at the default row cap, at least one per worker on a
        # pool, none above the cap.  No cut may move a tour.
        hierarchy = build_hierarchy(clustered_instance(400, seed=5), 12)
        assert hierarchy.depth >= 3
        schedule = paper_schedule(SWEEPS)
        maps = []
        original_map = WavefrontPool.map

        def record(pool, fn, tasks):
            tasks = list(tasks)
            maps.append((pool.workers, tasks))
            return original_map(pool, fn, tasks)

        monkeypatch.setattr(WavefrontPool, "map", record)

        def solve(workers, executor=None):
            solver = BatchedMacroSolver(MacroConfig(), seed=3)
            order, _, stats = solve_hierarchical(
                hierarchy, solver, schedule, workers=workers, executor=executor
            )
            return order, stats

        reference_order, reference_stats = solve(1)
        assert [len(tasks) for _, tasks in maps] == [1] * len(reference_stats)

        cap = 48
        monkeypatch.setattr(pipeline, "MAX_BATCH_ROWS", cap)
        maps.clear()
        runs = [solve(workers) for workers in (1, 2, 3)]
        with ThreadPoolExecutor(2) as ex:
            runs.append(solve(2, executor=ex))
        for order, stats in runs:
            np.testing.assert_array_equal(order, reference_order)
            assert stats == reference_stats

        def rows(chunks):
            return sum(len(chunk.problems) * chunk.config.restarts for chunk in chunks)

        assert len(maps) == len(runs) * len(reference_stats)
        for workers, tasks in maps:
            chunks = [chunk for task in tasks for chunk in task]
            assert len({chunk.level for chunk in chunks}) == 1  # one map per level
            assert len(tasks) >= min(workers, len(chunks))
            biggest = max(rows([chunk]) for chunk in chunks)
            assert all(rows(task) <= max(cap, biggest) for task in tasks)
        # The cap engaged: some level needed several tasks in process.
        assert any(len(tasks) > 1 for workers, tasks in maps if workers == 1)

    def test_level_stats_identical_across_widths(self, serial_result):
        inst, serial = serial_result
        parallel = TAXISolver(
            TAXIConfig(sweeps=SWEEPS, seed=3, workers=2)
        ).solve(inst)
        assert parallel.total_subproblems == serial.total_subproblems
        assert parallel.total_iterations == serial.total_iterations


class TestEndpointFixingInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_endpoints_are_distinct_cities(self, seed):
        # With per-leaf child maps (the pipeline's level-1 shape: every
        # city is its own child), a multi-city cluster must never pin
        # one city as both entry and exit.
        inst = clustered_instance(90, seed=60 + seed)
        hierarchy = build_hierarchy(inst, 12)
        level = hierarchy.levels[1]
        sequence = list(range(level.n_nodes))
        leaves = [level.leaves[node] for node in sequence]
        child_of_leaf = np.empty(inst.n, dtype=int)
        for cluster in leaves:
            child_of_leaf[cluster] = np.arange(cluster.size)
        fixings = fix_level_endpoints(inst, leaves, child_of_leaf)
        for position, (fixing, cluster_leaves) in enumerate(
            zip(fixings, leaves)
        ):
            assert fixing.entry_leaf in cluster_leaves
            assert fixing.exit_leaf in cluster_leaves
            if cluster_leaves.size > 1 and position > 0:
                # Position 0 is the cyclic seam: its exit is fixed
                # before its entry is known (the wrap-around pair runs
                # last), so only positions >= 1 carry the guarantee.
                assert fixing.entry_leaf != fixing.exit_leaf

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_has_no_duplicate_cities_with_fixing(self, seed):
        inst = clustered_instance(120, seed=70 + seed)
        result = TAXISolver(
            TAXIConfig(sweeps=SWEEPS, seed=seed, endpoint_fixing=True)
        ).solve(inst)
        order = result.tour.order
        assert np.unique(order).size == order.size


class TestSubmatrixCache:
    def test_cross_blocks_memoized(self):
        inst = uniform_instance(30, seed=5)
        cache = SubmatrixCache(inst)
        a = np.arange(0, 6)
        b = np.arange(6, 12)
        cross = cache.cross_block("A", a, "B", b)
        assert cache.cross_block("A", a, "B", b) is cross
        assert cache.hits == 1
        assert cache.slices_computed == 1

    def test_conflict_retry_does_not_reslice(self):
        # The line geometry from the fixing tests: cluster B's closest
        # cities to both neighbours fall in one child, forcing the
        # conflict-avoidance retry.  The retry must subset the cached
        # block, not slice the metric again.
        coords = np.array(
            [[0.0, 0.0], [10.0, 0.0], [5.0, 0.0], [6.0, 0.0]]
        )
        inst = TSPInstance("conflict", coords)
        leaves = [np.array([0]), np.array([1, 2]), np.array([3])]
        child_of_leaf = np.array([0, 0, 1, 0])
        calls = {"n": 0}
        original = TSPInstance.distance_block

        def counting(self, rows, cols=None):
            calls["n"] += 1
            return original(self, rows, cols)

        TSPInstance.distance_block = counting
        try:
            cache = SubmatrixCache(inst)
            keys = ["A", "B", "C"]
            fixings = fix_level_endpoints(
                inst, leaves, child_of_leaf, cache=cache, cluster_keys=keys
            )
            # Re-fixing with the shared cache (a second replica over the
            # same deterministic clustering) must not slice again.
            second = fix_level_endpoints(
                inst, leaves, child_of_leaf, cache=cache, cluster_keys=keys
            )
        finally:
            TSPInstance.distance_block = original
        # 3 cluster pairs (cyclic) -> exactly 3 slices, conflict or
        # not: the conflict retry subsets the cached pair block rather
        # than slicing an allowed-rows block from the metric.
        assert calls["n"] == 3
        assert cache.hits >= 3  # the whole second pass ran from cache
        assert second == fixings
        entry = child_of_leaf[fixings[1].entry_leaf]
        exit_ = child_of_leaf[fixings[1].exit_leaf]
        assert entry != exit_

    def test_shared_cache_without_keys_rejected(self):
        # Position-derived default keys would alias unrelated clusters
        # across calls sharing one cache; the API refuses the footgun.
        from repro.errors import ClusteringError

        inst = uniform_instance(20, seed=8)
        leaves = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
        with pytest.raises(ClusteringError, match="cluster_keys"):
            fix_level_endpoints(inst, leaves, cache=SubmatrixCache(inst))

    def test_per_solve_cache_drops_cross_blocks(self):
        inst = uniform_instance(20, seed=8)
        cache = SubmatrixCache(inst, retain_cross_blocks=False)
        a, b = np.arange(0, 5), np.arange(5, 10)
        cache.cross_block("A", a, "B", b)
        cache.cross_block("A", a, "B", b)
        assert cache.misses == 2  # not memoized
        assert cache.hits == 0

    def test_shared_cache_reuses_slices_across_solves(self):
        # Replica batches re-solve one deterministic ward hierarchy; a
        # shared cache must make every solve after the first slice-free.
        inst = clustered_instance(100, seed=13)
        hierarchy = build_hierarchy(inst, 12)
        cache = SubmatrixCache(inst)
        schedule = paper_schedule(SWEEPS)
        solve_hierarchical(
            hierarchy, BatchedMacroSolver(MacroConfig(), seed=0), schedule,
            cache=cache,
        )
        first_misses = cache.misses
        assert first_misses > 0
        solve_hierarchical(
            hierarchy, BatchedMacroSolver(MacroConfig(), seed=1), schedule,
            cache=cache,
        )
        # Cross-blocks depend on the replica's route order, so a
        # handful of new adjacencies may still be sliced.
        new_misses = cache.misses - first_misses
        assert new_misses < first_misses / 3

    def test_cross_blocks_are_read_only(self):
        inst = uniform_instance(30, seed=5)
        a, b = np.arange(0, 6), np.arange(6, 12)
        for retain in (True, False):
            cache = SubmatrixCache(inst, retain_cross_blocks=retain)
            block = cache.cross_block("A", a, "B", b)
            pristine = block.copy()
            with pytest.raises(ValueError):
                block[0, 0] = 1e9
            np.testing.assert_array_equal(
                cache.cross_block("A", a, "B", b), pristine
            )

    def test_read_only_does_not_freeze_explicit_matrix(self):
        # setflags happens on the sliced copy, never on the instance's
        # own matrix: the source stays writeable.
        matrix = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
        inst = TSPInstance("explicit", None, metric=_EXPLICIT, matrix=matrix)
        cache = SubmatrixCache(inst)
        cache.cross_block("A", np.array([0, 1]), "B", np.array([2]))
        assert inst.matrix.flags.writeable

    def test_hit_miss_accounting_is_exact(self):
        inst = uniform_instance(30, seed=5)
        cache = SubmatrixCache(inst)
        a, b, c = np.arange(0, 5), np.arange(5, 10), np.arange(10, 15)
        cache.cross_block("A", a, "B", b)  # miss
        cache.cross_block("A", a, "B", b)  # hit
        cache.cross_block("B", b, "C", c)  # miss (direction is part of the key)
        cache.cross_block("C", c, "B", b)  # miss
        cache.cross_block("C", c, "B", b)  # hit
        assert (cache.hits, cache.misses) == (2, 3)
        assert cache.slices_computed == 3
        cache.clear()
        # clear() drops blocks but keeps the lifetime counters.
        assert (cache.hits, cache.misses) == (2, 3)
        cache.cross_block("A", a, "B", b)
        assert cache.misses == 4

    def test_keys_never_alias_across_distinct_clusters(self):
        # The aliasing contract: the cache trusts keys, so distinct
        # keys must yield independent blocks even for identical index
        # sets, and the same key returns the memoized block regardless
        # of the indices passed (callers own key stability).
        inst = uniform_instance(30, seed=5)
        cache = SubmatrixCache(inst)
        indices, other = np.arange(0, 6), np.arange(20, 24)
        block_a = cache.cross_block(("L1", 0), indices, ("L1", 9), other)
        block_b = cache.cross_block(("L1", 1), indices, ("L1", 9), other)
        assert block_a is not block_b
        np.testing.assert_array_equal(block_a, block_b)
        assert cache.misses == 2
        # Same keys, different indices: the memoized block wins — this
        # is why shared caches demand explicit, stable cluster keys.
        assert cache.cross_block(("L1", 0), np.arange(6, 12), ("L1", 9), other) is block_a

    def test_retain_false_keeps_no_cross_block_memory(self):
        # The memory path: a per-solve cache must not accumulate the
        # O(pairs x block) rectangular slices it will never reuse.
        inst = uniform_instance(40, seed=6)
        cache = SubmatrixCache(inst, retain_cross_blocks=False)
        for pair in range(5):
            cache.cross_block(
                ("A", pair), np.arange(0, 5), ("B", pair), np.arange(5, 10)
            )
        assert len(cache._cross) == 0
        retained = SubmatrixCache(inst, retain_cross_blocks=True)
        for pair in range(5):
            retained.cross_block(
                ("A", pair), np.arange(0, 5), ("B", pair), np.arange(5, 10)
            )
        assert len(retained._cross) == 5

    def test_explicit_keys_reuse_across_two_solves_one_hierarchy(self):
        # Two replica solves over one ward hierarchy, one shared cache,
        # explicit (level, node) keys: the second solve's lookups of the
        # cluster pairs both routes share must hit.
        inst = clustered_instance(100, seed=13)
        hierarchy = build_hierarchy(inst, 12)
        cache = SubmatrixCache(inst)
        schedule = paper_schedule(SWEEPS)
        solve_hierarchical(
            hierarchy, BatchedMacroSolver(MacroConfig(), seed=0), schedule,
            cache=cache,
        )
        hits_after_first = cache.hits
        solve_hierarchical(
            hierarchy, BatchedMacroSolver(MacroConfig(), seed=1), schedule,
            cache=cache,
        )
        assert cache.hits > hits_after_first

    def test_pipeline_slice_count_bounded(self):
        # End-to-end regression: one solve slices each (pair, cluster)
        # block at most once — the count equals the cache misses, with
        # zero duplicate slices.
        inst = clustered_instance(140, seed=11)
        calls = {"n": 0}
        original = TSPInstance.distance_block

        def counting(self, rows, cols=None):
            calls["n"] += 1
            return original(self, rows, cols)

        TSPInstance.distance_block = counting
        try:
            hierarchy = build_hierarchy(inst, 12)
            solver = BatchedMacroSolver(MacroConfig(), seed=0)
            calls["n"] = 0
            solve_hierarchical(hierarchy, solver, paper_schedule(SWEEPS))
        finally:
            TSPInstance.distance_block = original
        # Upper bound: every level-1 cluster contributes one square
        # block (built in the wave tasks), every cluster adjacency (per
        # level with fixing) one cross block.  Any re-slicing would push
        # the count past this.
        level1 = hierarchy.levels[1]
        n_square = sum(
            1 for node in range(level1.n_nodes)
            if level1.children[node].size > 1
        )
        n_pairs = sum(
            level.n_nodes
            for level in hierarchy.levels[1:]
            if level.n_nodes >= 2
        )
        assert calls["n"] <= n_square + n_pairs
