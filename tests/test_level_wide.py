"""Level-wide host passes against the per-cluster code they replaced.

Endpoint fixing, the sub-problem build, the nearest-neighbour initial
orders, the distance blocks, the W_D quantization and the restart pick
each run as array passes over a whole hierarchy level (or a stack of
sub-problems).  The per-cluster versions they replaced live on below as
``reference_*`` oracles, and every test requires bit-equal results.
The sub-problem build runs inside each wave task, from what its chunks
carry; the tests build from chunks that crossed a pickle round trip.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.fixing as fixing
import repro.core.pipeline as pipeline
from repro.clustering.cache import PAIR_BLOCK_LIMIT, SubmatrixCache
from repro.clustering.fixing import (
    EndpointFixing,
    centroid_distance_matrix,
    fix_level_endpoints,
)
from repro.clustering.hierarchy import build_hierarchy
from repro.macro.batch import BatchedMacroSolver, _pick_restarts
from repro.macro.config import MacroConfig
from repro.macro.schedule import paper_schedule
from repro.tsp.generators import clustered_instance
from repro.tsp.instance import EdgeWeightType, TSPInstance
from repro.tsp.neighbors import closest_pair_between
from repro.xbar.quantize import bit_slices, full_scale, inverse_distance_levels

COORD_METRICS = [m for m in EdgeWeightType if m is not EdgeWeightType.EXPLICIT]


# ----------------------------------------------------------------------
# oracles: the per-cluster code
# ----------------------------------------------------------------------
def reference_fix_level_endpoints(
    instance, leaves_in_order, child_maps=None, limit=PAIR_BLOCK_LIMIT
):
    """The per-pair walk, with one ``{leaf: child}`` dict per cluster."""
    count = len(leaves_in_order)
    exit_leaf = [-1] * count
    entry_leaf = [-1] * count
    for t in range(count):
        nxt = (t + 1) % count
        group_a = np.asarray(leaves_in_order[t], dtype=int)
        group_b = np.asarray(leaves_in_order[nxt], dtype=int)
        child_map = child_maps[t] if child_maps is not None else None
        forbidden = None
        if child_map is not None and entry_leaf[t] >= 0:
            forbidden = child_map.get(entry_leaf[t])
        allowed_rows = None
        if child_map is not None and forbidden is not None and group_a.size > 1:
            mask = np.asarray(
                [child_map.get(int(leaf)) != forbidden for leaf in group_a]
            )
            if mask.any():
                allowed_rows = np.flatnonzero(mask)
        if group_a.size * group_b.size > limit:
            rows = group_a if allowed_rows is None else group_a[allowed_rows]
            a, b, _ = closest_pair_between(instance, rows, group_b)
        else:
            block = instance.distance_block(group_a, group_b)
            view = block if allowed_rows is None else block[allowed_rows]
            ai, bi = np.unravel_index(int(np.argmin(view)), view.shape)
            if allowed_rows is not None:
                ai = int(allowed_rows[ai])
            a, b = int(group_a[ai]), int(group_b[bi])
        exit_leaf[t] = a
        entry_leaf[nxt] = b
    return [EndpointFixing(entry_leaf[t], exit_leaf[t]) for t in range(count)]


def reference_nn_chain(dist, start, end):
    """Greedy nearest-neighbour order of one sub-problem."""
    count = dist.shape[0]
    visited = np.zeros(count, dtype=bool)
    order = [start]
    visited[start] = True
    if end is not None:
        visited[end] = True
    current = start
    for _ in range(count - 1 - (1 if end is not None else 0)):
        row = dist[current].copy()
        row[visited] = np.inf
        current = int(np.argmin(row))
        order.append(current)
        visited[current] = True
    if end is not None:
        order.append(end)
    return np.asarray(order, dtype=int)


def reference_child_maps(hierarchy, level, sequence):
    """One ``{leaf: child position}`` dict per node of ``sequence``."""
    below = hierarchy.levels[level.level - 1]
    maps = []
    for node in sequence:
        mapping = {}
        for child_pos, child in enumerate(level.children[node]):
            for leaf in below.leaves[child]:
                mapping[int(leaf)] = child_pos
        maps.append(mapping)
    return maps


def reference_build_child_problems(hierarchy, level, sequence, fixings):
    """``(tag, distances, initial order, fixed_first, fixed_last)`` per node."""
    below = hierarchy.levels[level.level - 1]

    def locate(children, leaf):
        for local, child in enumerate(children):
            if leaf in below.leaves[child]:
                return local
        raise AssertionError(f"leaf {leaf} not under its cluster")

    out = []
    for position, node in enumerate(sequence):
        children = level.children[node]
        if children.size == 1:
            continue
        entry = exit_ = None
        if fixings is not None:
            entry = locate(children, fixings[position].entry_leaf)
            exit_ = locate(children, fixings[position].exit_leaf)
        if level.level == 1:
            dist = hierarchy.instance.distance_submatrix(children)
        else:
            dist = centroid_distance_matrix(below.centroids[children])
        if entry is None or exit_ is None:
            start = 0 if entry is None else entry
            row = (reference_nn_chain(dist, start, None), entry is not None, False)
        elif entry == exit_:
            row = (reference_nn_chain(dist, entry, None), True, False)
        else:
            row = (reference_nn_chain(dist, entry, exit_), True, True)
        out.append((position, dist, *row))
    return out


def reference_inverse_distance_levels(distances, bits):
    """Eq. 4 on one ``(n, n)`` matrix."""
    scale = full_scale(bits)
    dist = np.asarray(distances, dtype=float)
    n = dist.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    positive = dist[off_diag & (dist > 0)]
    if positive.size == 0:
        levels = np.full((n, n), scale, dtype=np.int64)
        np.fill_diagonal(levels, 0)
        return levels
    d_min = float(positive.min())
    with np.errstate(divide="ignore"):
        ratio = np.where(dist > 0, d_min / np.where(dist > 0, dist, 1.0), np.inf)
    levels = np.rint(np.clip(ratio, 0.0, 1.0) * scale).astype(np.int64)
    levels[off_diag & (dist == 0)] = scale
    np.fill_diagonal(levels, 0)
    return levels


def reference_select_restart(levels, orders, closed):
    """The restart with the largest float attraction total; first wins."""
    levels = levels.astype(float)
    best_order, best_score = orders[0], -np.inf
    for order in orders:
        score = float(levels[order[:-1], order[1:]].sum())
        if closed:
            score += float(levels[order[-1], order[0]])
        if score > best_score:
            best_score, best_order = score, order
    return best_order


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _points(rng, n, kind):
    if kind == "uniform":
        return rng.uniform(0, 1000, size=(n, 2))
    if kind == "grid":  # integer grid: many exactly tied distances
        return rng.integers(0, 6, size=(n, 2)).astype(float)
    base = rng.uniform(0, 100, size=(max(1, n // 3), 2))  # duplicates
    return base[rng.integers(0, base.shape[0], size=n)]


def _random_level(rng, n, clusters, max_children):
    """Clusters of a random partition in random order, and child labels."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=clusters - 1, replace=False))
    groups = np.split(rng.permutation(n), cuts)
    child_of_leaf = np.empty(n, dtype=int)
    for group in groups:
        child_of_leaf[group] = rng.integers(0, min(group.size, max_children), group.size)
    maps = [{int(leaf): int(child_of_leaf[leaf]) for leaf in group} for group in groups]
    return groups, child_of_leaf, maps


# ----------------------------------------------------------------------
# endpoint fixing
# ----------------------------------------------------------------------
class TestFixingEqualsPerPairWalk:
    @settings(max_examples=250, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 200),
        kind=st.sampled_from(["uniform", "grid", "duplicates"]),
        clusters=st.integers(2, 14),
        max_children=st.integers(1, 5),
        limit=st.sampled_from([PAIR_BLOCK_LIMIT, 40, 1]),
        slice_bytes=st.sampled_from([fixing.FIXING_SLICE_BYTES, 64]),
        metric=st.sampled_from(COORD_METRICS),
    )
    def test_random_partitions(
        self, seed, n, kind, clusters, max_children, limit, slice_bytes, metric
    ):
        # The pair limit moves the small/KD-path split so both kinds
        # mix in every level; tiny slices put each pair in its own.
        rng = np.random.default_rng(seed)
        inst = TSPInstance("h", _points(rng, n, kind), metric)
        groups, child_of_leaf, maps = _random_level(
            rng, n, min(clusters, n), max_children
        )
        with mock.patch.object(fixing, "PAIR_BLOCK_LIMIT", limit), mock.patch.object(
            fixing, "FIXING_SLICE_BYTES", slice_bytes
        ):
            assert fix_level_endpoints(inst, groups) == (
                reference_fix_level_endpoints(inst, groups, limit=limit)
            )
            assert fix_level_endpoints(inst, groups, child_of_leaf) == (
                reference_fix_level_endpoints(inst, groups, maps, limit=limit)
            )

    @pytest.mark.parametrize("kind", ["uniform", "grid"])
    def test_hierarchy_levels_with_kd_pairs(self, kind):
        # Real hierarchy levels in random route orders: level 2 holds
        # pairs too big for a cross-block (the KD-tree path) next to
        # small ones.
        rng = np.random.default_rng(3)
        if kind == "uniform":
            inst = clustered_instance(2500, seed=9)
        else:
            inst = TSPInstance("grid", _points(rng, 1500, "grid") * 7.0)
        hierarchy = build_hierarchy(inst, 12)
        kd_pairs = 0
        for level in hierarchy.levels[1:]:
            if level.n_nodes < 2:
                continue
            sequence = rng.permutation(level.n_nodes)
            leaves = [level.leaves[node] for node in sequence]
            sizes = [leaf.size for leaf in leaves]
            kd_pairs += sum(
                a * b > PAIR_BLOCK_LIMIT for a, b in zip(sizes, sizes[1:] + sizes[:1])
            )
            maps = reference_child_maps(hierarchy, level, sequence)
            child_of_leaf = pipeline._child_of_leaf(hierarchy, level)
            for leaf_map in maps:
                for leaf, child in leaf_map.items():
                    assert child_of_leaf[leaf] == child
            assert fix_level_endpoints(inst, leaves, child_of_leaf) == (
                reference_fix_level_endpoints(inst, leaves, maps)
            )
        assert kd_pairs > 0

    def test_all_inf_allowed_rows_take_their_first_entry(self):
        # An explicit metric may hold +inf.  When every allowed row is
        # +inf the restricted argmin is the first allowed entry, not a
        # masked one that ties with it.
        # Leaf 1 (child 0) enters the middle cluster and is also its
        # closest leaf to the next one; leaves 2 and 3 (child 1) are
        # +inf from it.
        inf = np.inf
        matrix = np.array(
            [
                [0.0, 1.0, inf, inf, 5.0],
                [1.0, 0.0, 2.0, 3.0, 5.0],
                [inf, 2.0, 0.0, 1.0, inf],
                [inf, 3.0, 1.0, 0.0, inf],
                [5.0, 5.0, inf, inf, 0.0],
            ]
        )
        inst = TSPInstance("inf", None, EdgeWeightType.EXPLICIT, matrix=matrix)
        leaves = [np.array([0]), np.array([1, 2, 3]), np.array([4])]
        child_of_leaf = np.array([0, 0, 1, 1, 0])
        maps = [{0: 0}, {1: 0, 2: 1, 3: 1}, {4: 0}]
        fixings = fix_level_endpoints(inst, leaves, child_of_leaf)
        assert fixings == reference_fix_level_endpoints(inst, leaves, maps)
        assert fixings[1] == EndpointFixing(entry_leaf=1, exit_leaf=2)


# ----------------------------------------------------------------------
# sub-problem build, initial orders, merge
# ----------------------------------------------------------------------
class TestLockStepNNChains:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 70),
        max_size=st.integers(2, 12),
        kind=st.sampled_from(["uniform", "grid", "duplicates"]),
        pin=st.sampled_from(["none", "some", "all"]),
    )
    def test_equals_one_chain_at_a_time(self, seed, count, max_size, kind, pin):
        rng = np.random.default_rng(seed)
        dists, starts, ends = [], [], []
        for _ in range(count):
            size = int(rng.integers(2, max_size + 1))
            inst = TSPInstance("c", _points(rng, size, kind) + 1.0)
            dists.append(inst.distance_submatrix(np.arange(size)))
            start = int(rng.integers(size))
            end = -1
            if pin == "all" or (pin == "some" and rng.random() < 0.5):
                end = int(rng.choice([c for c in range(size) if c != start]))
            starts.append(start)
            ends.append(end)
        chains = pipeline._nn_chains(dists, np.array(starts), np.array(ends))
        for dist, start, end, chain in zip(dists, starts, ends, chains):
            expected = reference_nn_chain(dist, start, None if end < 0 else end)
            np.testing.assert_array_equal(chain, expected)
            assert chain.dtype == expected.dtype


def task_built_problems(wave, chunk_size=pipeline.DEFAULT_CHUNK_SIZE):
    """A wave's problems as its wave tasks build them, in wave order.

    The chunk specs cross a pickle round trip, as they do to a pool
    worker, and the build runs on all of them at once, as one task.
    """
    chunks = pickle.loads(pickle.dumps(wave.chunks(chunk_size)))
    built = pipeline.build_chunk_problems([spec for _, spec in chunks])
    problems = [None] * len(wave.groups)
    for (indices, spec), arrays in zip(chunks, built):
        for j, local in enumerate(indices):
            problems[local] = (
                spec.tags[j], arrays.distances[j], arrays.initial_orders[j],
                arrays.fixed_first, arrays.fixed_last,
            )
    return problems


def assert_problems_equal(got, expected):
    assert len(got) == len(expected)
    for (tag, dist, order, first, last), want in zip(got, expected):
        assert tag == want[0] and type(tag) is int
        assert dist.dtype == want[1].dtype and dist.shape == want[1].shape
        assert dist.tobytes() == want[1].tobytes()
        np.testing.assert_array_equal(order, want[2])
        assert order.dtype == want[2].dtype
        assert (first, last) == want[3:]
        assert type(first) is bool and type(last) is bool


class TestLevelBuildEqualsPerCluster:
    @pytest.mark.parametrize("endpoint_fixing", [True, False])
    def test_problems_and_merge(self, endpoint_fixing):
        inst = clustered_instance(2500, seed=9)
        hierarchy = build_hierarchy(inst, 12)
        rng = np.random.default_rng(5)
        for level in hierarchy.levels[1:]:
            sequence = rng.permutation(level.n_nodes)
            child_of_leaf = pipeline._child_of_leaf(hierarchy, level)
            fixings = None
            if endpoint_fixing and level.n_nodes >= 2:
                fixings = fix_level_endpoints(
                    inst,
                    [level.leaves[node] for node in sequence],
                    child_of_leaf,
                )
            wave = pipeline._child_wave(
                hierarchy, level, sequence, fixings, child_of_leaf
            )
            # Small chunks: every task mixes shapes and widths.
            problems = task_built_problems(wave, chunk_size=3)
            assert_problems_equal(
                problems,
                reference_build_child_problems(hierarchy, level, sequence, fixings),
            )
            # Merge: each node's children in its solved order.
            solved = [(tag, rng.permutation(dist.shape[0])) for tag, dist, *_ in problems]
            local = dict(solved)
            expected_sequence = []
            for position, node in enumerate(sequence):
                children = level.children[node]
                order = local.get(position, np.arange(children.size))
                expected_sequence.extend(int(children[i]) for i in order)
            np.testing.assert_array_equal(
                pipeline._merge_child_orders(level, sequence, solved),
                expected_sequence,
            )

    @pytest.mark.parametrize("metric", list(EdgeWeightType), ids=lambda m: m.name)
    def test_level_one_under_every_metric(self, metric):
        # Level 1 orders cities under the instance metric; GEO's
        # d(i, i) = 0 rule and an explicit matrix (with display
        # coordinates to cluster on) are the cases a plain Euclidean
        # build would get wrong.
        rng = np.random.default_rng(11)
        if metric is EdgeWeightType.GEO:
            coords = np.column_stack(
                [rng.uniform(-80, 80, size=300), rng.uniform(-170, 170, size=300)]
            )
        else:
            coords = rng.uniform(0, 1000, size=(300, 2))
        coords[1] = coords[0]  # coincident cities
        if metric is EdgeWeightType.EXPLICIT:
            matrix = TSPInstance("d", coords).distance_matrix() + 1.0
            np.fill_diagonal(matrix, 0.0)
            inst = TSPInstance("e", coords, metric, matrix=matrix)
        else:
            inst = TSPInstance("m", coords, metric)
        hierarchy = build_hierarchy(inst, 12)
        level = hierarchy.levels[1]
        sequence = rng.permutation(level.n_nodes)
        child_of_leaf = pipeline._child_of_leaf(hierarchy, level)
        fixings = fix_level_endpoints(
            inst, [level.leaves[node] for node in sequence], child_of_leaf
        )
        wave = pipeline._child_wave(hierarchy, level, sequence, fixings, child_of_leaf)
        assert_problems_equal(
            task_built_problems(wave),
            reference_build_child_problems(hierarchy, level, sequence, fixings),
        )


class TestWaveTasksBuildTheReferenceProblems:
    """The chunks a solve ships, built by the task, equal the oracle."""

    @pytest.mark.parametrize("endpoint_fixing", [True, False])
    def test_folded_replicas_on_a_kd_split_instance(self, monkeypatch, endpoint_fixing):
        # n=5000 is above the exact-clustering threshold (KD-split Ward):
        # level 1 orders cities under the metric, levels 2 and 3 order
        # centroids.  Two folded replicas share each level's tasks.
        inst = clustered_instance(5000, seed=7)
        hierarchy = build_hierarchy(inst, 12)
        assert hierarchy.depth >= 4
        waves = []  # (level, sequence, fixings) per replica, in call order
        child_wave = pipeline._child_wave

        def recorded_wave(hierarchy, level, sequence, fixings, child_of_leaf):
            waves.append((level.level, sequence.copy(), fixings))
            return child_wave(hierarchy, level, sequence, fixings, child_of_leaf)

        tasks = []  # every task's chunks, in dispatch order
        solve_chunks = pipeline.solve_wave_chunks

        def recorded_task(chunks):
            chunks = pickle.loads(pickle.dumps(chunks))
            tasks.append(chunks)
            return solve_chunks(chunks)

        monkeypatch.setattr(pipeline, "_child_wave", recorded_wave)
        monkeypatch.setattr(pipeline, "solve_wave_chunks", recorded_task)
        solvers = [BatchedMacroSolver(MacroConfig(), seed=seed) for seed in (4, 5)]
        pipeline.solve_hierarchical(
            hierarchy, solvers, paper_schedule(10), endpoint_fixing=endpoint_fixing
        )

        replica_of_seed = {}
        built = {}  # (replica, level) -> {tag: problem}
        for chunks in tasks:
            if chunks[0].problems.closed:
                continue  # the top tours
            for chunk, arrays in zip(
                chunks, pipeline.build_chunk_problems([c.problems for c in chunks])
            ):
                r = replica_of_seed.setdefault(chunk.master_seed, len(replica_of_seed))
                for j, tag in enumerate(chunk.problems.tags):
                    built.setdefault((r, chunk.level), {})[tag] = (
                        tag, arrays.distances[j], arrays.initial_orders[j],
                        arrays.fixed_first, arrays.fixed_last,
                    )
        assert len(replica_of_seed) == 2
        levels_seen = set()
        for index, (level_no, sequence, fixings) in enumerate(waves):
            r = index % 2
            assert (fixings is not None) == endpoint_fixing
            level = hierarchy.levels[level_no]
            expected = reference_build_child_problems(
                hierarchy, level, sequence, fixings
            )
            got = built.pop((r, level_no), {})
            assert_problems_equal([got[row[0]] for row in expected], expected)
            assert len(got) == len(expected)
            levels_seen.add(level_no)
        assert not built
        assert {1, 2} <= levels_seen


# ----------------------------------------------------------------------
# distances, cache, quantization, restart pick
# ----------------------------------------------------------------------
def _instance(metric, n, seed):
    rng = np.random.default_rng(seed)
    if metric is EdgeWeightType.EXPLICIT:
        coords = rng.uniform(0, 100, size=(n, 2))
        full = TSPInstance("e", coords).distance_matrix()
        return TSPInstance("e", None, metric, matrix=full)
    if metric is EdgeWeightType.GEO:
        coords = np.column_stack(
            [rng.uniform(-80, 80, size=n), rng.uniform(-170, 170, size=n)]
        )
    else:
        coords = rng.uniform(0, 1000, size=(n, 2))
    return TSPInstance(f"m-{metric.name}", coords, metric)


class TestBatchedDistanceBlock:
    @pytest.mark.parametrize("metric", list(EdgeWeightType), ids=lambda m: m.name)
    def test_slices_equal_per_pair_blocks(self, metric):
        inst = _instance(metric, 40, seed=1)
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 40, size=(9, 6))
        cols = rng.integers(0, 40, size=(9, 5))
        cols[:, 1] = rows[:, 0]  # shared ids: the diagonal rule
        cols[:, 2] = rows[:, 0]  # ... in duplicate columns too
        block = inst.distance_block(rows, cols)
        assert block.shape == (9, 6, 5)
        full = inst.distance_matrix()
        for i in range(9):
            np.testing.assert_array_equal(block[i], inst.distance_block(rows[i], cols[i]))
            np.testing.assert_array_equal(block[i], full[np.ix_(rows[i], cols[i])])
        whole = inst.distance_block(rows[:3])
        for i in range(3):
            np.testing.assert_array_equal(whole[i], inst.distance_rows(rows[i]))


class TestBatchedCacheLookups:
    @pytest.mark.parametrize("retain", [True, False])
    def test_cross_blocks_are_padded_cross_block_stacks(self, retain):
        inst = _instance(EdgeWeightType.ATT, 50, seed=7)
        rng = np.random.default_rng(8)
        groups_a = [rng.choice(50, size=s, replace=False) for s in (3, 1, 7, 2)]
        groups_b = [rng.choice(50, size=s, replace=False) for s in (5, 4, 1, 6)]
        keys_a, keys_b = ["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]
        cache = SubmatrixCache(inst, retain_cross_blocks=retain)
        for _ in range(2):
            stack = cache.cross_blocks(keys_a, groups_a, keys_b, groups_b)
        assert stack.shape == (4, 7, 6) and not stack.flags.writeable
        for i, (a, b) in enumerate(zip(groups_a, groups_b)):
            np.testing.assert_array_equal(
                stack[i, : a.size, : b.size], inst.distance_block(a, b)
            )
            assert np.isposinf(stack[i, a.size :]).all()
            assert np.isposinf(stack[i, :, b.size :]).all()
        assert (cache.hits, cache.misses) == ((4, 4) if retain else (0, 8))


class TestBatchedQuantization:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        slices=st.integers(1, 6),
        n=st.integers(2, 12),
        bits=st.integers(1, 8),
        kind=st.sampled_from(["uniform", "grid", "duplicates", "coincident"]),
    )
    def test_levels_and_bit_slices_per_slice(self, seed, slices, n, bits, kind):
        rng = np.random.default_rng(seed)
        stack = []
        for _ in range(slices):
            points = _points(rng, n, "grid" if kind == "coincident" else kind)
            if kind == "coincident" and rng.random() < 0.5:
                points[:] = points[0]  # an all-coincident slice
            stack.append(TSPInstance("q", points).distance_submatrix(np.arange(n)))
        stack = np.stack(stack)
        levels = inverse_distance_levels(stack, bits)
        sliced = bit_slices(levels, bits)
        assert sliced.shape == (slices, bits, n, n)
        for i in range(slices):
            expected = reference_inverse_distance_levels(stack[i], bits)
            np.testing.assert_array_equal(levels[i], expected)
            np.testing.assert_array_equal(inverse_distance_levels(stack[i], bits), expected)
            np.testing.assert_array_equal(sliced[i], bit_slices(levels[i], bits))

    def test_all_coincident_slice_saturates(self):
        stack = np.zeros((2, 3, 3))
        stack[1] = [[0, 2, 4], [2, 0, 2], [4, 2, 0]]
        levels = inverse_distance_levels(stack, 4)
        np.testing.assert_array_equal(levels[0], 15 * (1 - np.eye(3, dtype=int)))
        np.testing.assert_array_equal(levels[1], [[0, 15, 8], [15, 0, 15], [8, 15, 0]])


class TestRestartPick:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        problems=st.integers(1, 6),
        restarts=st.integers(1, 5),
        n=st.integers(2, 12),
        closed=st.booleans(),
        tied=st.booleans(),
    )
    def test_equals_scalar_pick(self, seed, problems, restarts, n, closed, tied):
        rng = np.random.default_rng(seed)
        # Few distinct levels tie many scores; tied=True ties them all.
        levels = rng.integers(0, 2 if tied else 16, size=(problems, n, n))
        if tied:
            levels[:] = 3
        orders = np.stack(
            [rng.permutation(n) for _ in range(problems * restarts)]
        )
        picked = _pick_restarts(levels, orders, closed)
        for p in range(problems):
            candidates = list(orders[p * restarts : (p + 1) * restarts])
            np.testing.assert_array_equal(
                picked[p], reference_select_restart(levels[p], candidates, closed)
            )
