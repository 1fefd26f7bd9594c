"""Top-down hierarchical solve (paper Section IV-2, Fig 1).

Given a bottom-up hierarchy, the pipeline:

1. solves the **top level** as one closed tour over the top nodes'
   centroids (one macro problem);
2. walking **down** one level at a time, fixes every consecutive
   cluster pair's entry/exit cities (closest leaf pairs), then orders
   each cluster's children as an open path between the children holding
   the entry and exit leaves — all clusters of a level form one
   **wavefront** of mutually independent sub-problems (the chip's
   parallelism);
3. at level 0 the node sequence *is* the city tour.

Wavefront dispatch
------------------
Each level's sub-problems are chunked deterministically (grouped by
shape, then cut into fixed-size runs; see
:func:`repro.engine.wavefront.chunk_indices`).  Every chunk derives its
own RNG from ``(master seed, level, chunk ordinal)``, so a chunk's
result is a pure function of the chunk description.  The chunks of a
level — of every shape and every replica being solved — are then cut
into contiguous super-batches of at most :data:`MAX_BATCH_ROWS` macro
rows, one :class:`~repro.engine.wavefront.WavefrontPool` task each, and
each task anneals its chunks as one level-wide ragged kernel batch.  In
process (``workers=1``) a level is one super-batch unless it outgrows
the cap; a pool gets at least one per worker.  Either way each chunk
draws only from its own stream — compute is merged, RNG streams are
not — so ``workers=1`` reproduces any parallel run bit-for-bit.

What a wave task receives
-------------------------
The parent fixes each level's endpoints and cuts the level into
chunks; a :class:`WaveChunk` then carries, per cluster, only what its
sub-problem is derived from (:class:`ChunkSpec`): the points it orders,
its entry and exit child and its tag.  The task builds the distance
matrices and the nearest-neighbour input orders itself
(:func:`build_chunk_problems`) and returns the solved orders.  Child
orderings at levels >= 2 use centroid distances; level-1 clusters order
actual cities with the instance metric.  The parent's per-solve
:class:`~repro.clustering.cache.SubmatrixCache` serves endpoint fixing.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.cache import SubmatrixCache
from repro.clustering.fixing import (
    EndpointFixing,
    centroid_distance_matrix,
    fix_level_endpoints,
)
from repro.clustering.hierarchy import Hierarchy
from repro.core.result import LevelStats, PhaseTimes
from repro.engine.wavefront import WavefrontPool, chunk_indices
from repro.errors import SolverError
from repro.macro.batch import (
    BatchedMacroSolver,
    ChunkArrays,
    SubProblem,
    anneal_chunks,
)
from repro.macro.config import MacroConfig
from repro.macro.schedule import AnnealSchedule
from repro.tsp.instance import EdgeWeightType, TSPInstance

#: Sub-problems per dispatch chunk.  Part of the solve's deterministic
#: identity (chunk boundaries feed the per-chunk seeds), NOT a tuning
#: knob to vary per run: changing it changes the RNG streams.
DEFAULT_CHUNK_SIZE = 8

#: Most macro rows (sub-problems x restarts) one wave task anneals.  A
#: dispatch bound, NOT part of the solve identity: super-batch
#: boundaries never move a chunk boundary or seed, so tours do not
#: depend on it.  It keeps each task's pickled payload, its padded
#: sub-problem build and its kernel arrays small.
MAX_BATCH_ROWS = 512

#: One solve's result: (city order, phase times, per-level stats).
SolveResult = tuple[np.ndarray, PhaseTimes, list[LevelStats]]


@dataclass(frozen=True)
class ChunkSpec:
    """What one chunk's sub-problems are derived from; they share a shape.

    Per cluster ``i``: ``points[i]``, the ``(n, 2)`` points whose
    visiting order it solves (its cities at level 1, its children's
    centroids above); ``entries[i]``, the local child its input order
    starts from; ``exits[i]``, the child pinned last, ``-1`` when free;
    and ``tags[i]``, its position in the level's node sequence.
    ``metric`` is the instance metric at level 1 and ``None`` (Euclidean
    between centroids) above.  An explicit-matrix instance has no
    metric to derive from, so there ``points`` holds the ``(p, n, n)``
    distance blocks themselves.
    """

    metric: EdgeWeightType | None
    points: np.ndarray
    entries: tuple[int, ...]
    exits: tuple[int, ...]
    tags: tuple
    closed: bool = False
    fixed_first: bool = True

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class WaveChunk:
    """One picklable unit of wavefront work: a few sibling sub-problems.

    ``problems`` says what they are derived from; the task builds them.
    The chunk seed is derived inside the worker from ``(master_seed,
    level, ordinal)`` — nothing stateful crosses the process boundary,
    so results are identical at any worker count.
    """

    level: int
    ordinal: int
    master_seed: int
    config: MacroConfig
    schedule: AnnealSchedule
    problems: ChunkSpec


def solve_wave_chunks(
    chunks: tuple[WaveChunk, ...],
) -> list[tuple[np.ndarray, int, int]]:
    """Build and solve one super-batch of chunks as one ragged batch.

    Module-level so process pools can pickle it.  The chunks' problems
    are built in one padded pass (:func:`build_chunk_problems`), and
    each chunk gets its own seeded solver; returns ``(orders, sweeps,
    iterations)`` per chunk: its ``(p, n)`` solved orders and the chunk
    solver's totals (for the replica solver's bookkeeping).
    """
    solvers = [
        BatchedMacroSolver(
            chunk.config,
            seed=np.random.default_rng(
                np.random.SeedSequence(
                    [chunk.master_seed, chunk.level, chunk.ordinal]
                )
            ),
        )
        for chunk in chunks
    ]
    built = build_chunk_problems([chunk.problems for chunk in chunks])
    solved = anneal_chunks(solvers, built, chunks[0].schedule)
    return [
        (orders, solver.total_sweeps, solver.total_iterations)
        for (orders, _), solver in zip(solved, solvers)
    ]


def build_chunk_problems(specs: Sequence[ChunkSpec]) -> list[ChunkArrays]:
    """Each chunk's distance matrices and input orders, in padded passes.

    The specs come from one wave, so they share a metric and are all
    closed (the top tour, which starts from the identity order) or all
    open.  All their distances come from one padded distance call: each
    cluster's points are padded with repeats of its last point, and the
    padding is cut away.  The open problems' input orders come from one
    lock-step nearest-neighbour pass (:func:`_nn_chains`), from each
    entry child and ending at the exit child when one is pinned.
    """
    metric = specs[0].metric
    sizes = [spec.points.shape[1] for spec in specs]
    if metric is EdgeWeightType.EXPLICIT:
        stacks = [spec.points for spec in specs]
    else:
        stacks = _distance_stacks(metric, specs, sizes)
    if specs[0].closed:
        orders = [np.tile(np.arange(size), (len(spec), 1)) for spec, size in zip(specs, sizes)]
    else:
        chains = iter(_nn_chains(
            [dist for stack in stacks for dist in stack],
            np.concatenate([spec.entries for spec in specs]),
            np.concatenate([spec.exits for spec in specs]),
        ))
        orders = [np.stack([next(chains) for _ in range(len(spec))]) for spec in specs]
    return [
        ChunkArrays(stack, order, spec.closed, spec.fixed_first, spec.exits[0] >= 0)
        for spec, stack, order in zip(specs, stacks, orders)
    ]


def _distance_stacks(
    metric: EdgeWeightType | None, specs: Sequence[ChunkSpec], sizes: list[int]
) -> list[np.ndarray]:
    """Each spec's ``(p, n, n)`` distances, from one padded call."""
    width = max(sizes)
    padded = np.concatenate([
        spec.points[:, np.minimum(np.arange(width), size - 1)]
        for spec, size in zip(specs, sizes)
    ])
    if metric is None:
        stack = centroid_distance_matrix(padded)
    else:
        # Distinct ids per point: TSPLIB's d(i, i) = 0 lands on the
        # diagonal only, as it does for a cluster's distinct cities.
        ids = np.arange(padded.shape[0] * width).reshape(-1, width)
        stack = TSPInstance("wave", padded.reshape(-1, 2), metric).distance_block(
            ids, ids
        )
    stacks = []
    row = 0
    for spec, size in zip(specs, sizes):
        stacks.append(stack[row : row + len(spec), :size, :size].copy())
        row += len(spec)
    return stacks


def solve_hierarchical(
    hierarchy: Hierarchy,
    solvers: BatchedMacroSolver | Sequence[BatchedMacroSolver],
    schedule: AnnealSchedule,
    endpoint_fixing: bool = True,
    workers: int = 1,
    executor=None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache: SubmatrixCache | None = None,
    pool: WavefrontPool | None = None,
) -> SolveResult | list[SolveResult]:
    """Solve the hierarchy top-down for one solver or R replica solvers.

    Returns ``(city order, times, stats)`` for a single solver and a
    list of them, one per replica, for a sequence of solvers.  Each
    replica solver draws one master seed up front; every chunk of
    replica ``r`` then derives its seed from ``(master seed, level,
    ordinal)``, and the solver's counters accumulate its chunk totals.
    Every replica's tour is therefore bit-identical to a solve of that
    replica alone, at any worker count.  Wall time of shared work is
    attributed evenly (1/R) to each replica's phase times.

    Duck-typed solvers that only provide ``solve_all`` (e.g. the
    Neuro-Ising selective-budget adapter, whose cluster ranking is a
    barrier across the whole wavefront) get one in-process
    ``solve_all`` call per wave instead of chunked dispatch.

    Parameters
    ----------
    workers:
        Wavefront process-pool width.  ``1`` (default) solves in
        process, merging every chunk of a level — of every shape and
        every replica — into one task and one ragged kernel batch
        (bounded by :data:`MAX_BATCH_ROWS`).  Wider pools (or an
        injected ``executor``) get at least ``workers`` contiguous
        super-batches per level.
    executor:
        Explicit :class:`~concurrent.futures.Executor` overriding the
        internal pool (tests inject thread/inline executors).
    chunk_size:
        Sub-problems per dispatch chunk; part of the deterministic
        solve identity (see :data:`DEFAULT_CHUNK_SIZE`).
    cache:
        The endpoint-fixing cross-block cache.  Defaults to a fresh
        per-solve cache shared by the replicas that retains no block
        (each pair block is requested once per replica); callers
        solving one hierarchy repeatedly may pass a retaining one.
    pool:
        An open :class:`~repro.engine.wavefront.WavefrontPool` to use
        instead of one from ``workers`` and ``executor``.
    """
    single = not isinstance(solvers, Sequence)
    solvers = [solvers] if single else list(solvers)
    instance = hierarchy.instance
    all_times = [PhaseTimes() for _ in solvers]
    all_stats: list[list[LevelStats]] = [[] for _ in solvers]
    if cache is None:
        cache = SubmatrixCache(instance, retain_cross_blocks=False)
    # One draw per replica, before any dispatch: every chunk seed
    # derives from it, so each solve is a function of its solver's RNG.
    master_seeds = [
        int(solver._rng.integers(0, 2**63 - 1))
        if isinstance(solver, BatchedMacroSolver) else 0
        for solver in solvers
    ]
    with contextlib.ExitStack() as scope:
        if pool is None:
            pool = scope.enter_context(WavefrontPool(workers=workers, executor=executor))
        solve_wave = functools.partial(
            _solve_wave, pool, solvers, master_seeds, schedule, chunk_size
        )
        top = hierarchy.top
        k = top.n_nodes
        if k <= 3:
            # Any cyclic order of <= 3 nodes has the same length.
            sequences = [np.arange(k) for _ in solvers]
        else:
            wave = _Wave(
                groups=[np.arange(k)],
                entries=np.zeros(1, dtype=np.intp),
                exits=np.full(1, -1),
                tags=["top"],
                metric=None,
                points_of=top.centroids.__getitem__,
                closed=True,
                fixed_first=False,
            )
            solved, share = solve_wave([wave] * len(solvers), hierarchy.depth - 1)
            sequences = []
            for r, result in enumerate(solved):
                all_times[r].ising += share
                all_stats[r].append(result.stats(hierarchy.depth - 1, wave))
                sequences.append(result.orders[0].astype(int))

        for level_idx in range(hierarchy.depth - 1, 0, -1):
            _solve_level(
                hierarchy, hierarchy.levels[level_idx], sequences,
                endpoint_fixing, cache, solve_wave, all_times, all_stats,
            )

    results = []
    for sequence, times, stats in zip(sequences, all_times, all_stats):
        order = np.asarray(sequence, dtype=int)
        if np.unique(order).size != instance.n:
            raise SolverError(
                "pipeline produced an invalid tour "
                f"({np.unique(order).size} unique of {instance.n})"
            )
        results.append((order, times, stats))
    return results[0] if single else results


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Wave:
    """One replica's sub-problems at one level, before chunking.

    ``groups[i]`` are the ids problem ``i`` orders, and
    ``points_of(ids)`` maps a ``(p, n)`` id array to a chunk's
    :attr:`ChunkSpec.points`; the other fields are per problem as in
    :class:`ChunkSpec`.
    """

    groups: list[np.ndarray]
    entries: np.ndarray
    exits: np.ndarray
    tags: list
    metric: EdgeWeightType | None
    points_of: Callable[[np.ndarray], np.ndarray]
    closed: bool = False
    fixed_first: bool = True

    def chunks(self, chunk_size: int) -> list[tuple[list[int], ChunkSpec]]:
        """The wave cut into same-shape chunks: ``(indices, spec)`` each."""
        keys = zip(
            (group.size for group in self.groups),
            itertools.repeat(self.closed),
            itertools.repeat(self.fixed_first),
            (self.exits >= 0).tolist(),
        )
        out = []
        for indices in chunk_indices(list(keys), chunk_size):
            ids = np.stack([self.groups[i] for i in indices])
            out.append((
                indices,
                ChunkSpec(
                    metric=self.metric,
                    points=self.points_of(ids),
                    entries=tuple(self.entries[indices].tolist()),
                    exits=tuple(self.exits[indices].tolist()),
                    tags=tuple(self.tags[i] for i in indices),
                    closed=self.closed,
                    fixed_first=self.fixed_first,
                ),
            ))
        return out


@dataclass
class _Solved:
    """One replica's solved wave: an order per problem, plus its work."""

    orders: list[np.ndarray]
    sweeps: int = 0
    iterations: int = 0

    def stats(self, level: int, wave: _Wave) -> LevelStats:
        return LevelStats(
            level=level,
            n_subproblems=len(wave.groups),
            subproblem_sizes=[group.size for group in wave.groups],
            sweeps=self.sweeps,
            total_iterations=self.iterations,
        )


def _solve_wave(
    pool: WavefrontPool,
    solvers: list[BatchedMacroSolver],
    master_seeds: list[int],
    schedule: AnnealSchedule,
    chunk_size: int,
    waves: list[_Wave],
    level: int,
) -> tuple[list[_Solved], float]:
    """Solve one level's wavefront of every replica.

    Returns each replica's solved wave (aligned with ``waves``) and
    each replica's share of the wall time.  Each replica's problems are
    cut into chunks (ordinals per replica); the chunks of every shape
    and replica are then cut into contiguous super-batches, one wave
    task each (see :func:`_super_batches`).
    """
    start = time.perf_counter()
    results: list[_Solved] = []
    chunks: list[WaveChunk] = []
    owners: list[tuple[int, list[int]]] = []
    for r, (solver, wave) in enumerate(zip(solvers, waves)):
        results.append(_Solved([None] * len(wave.groups)))  # type: ignore[list-item]
        if not wave.groups:
            continue
        specs = wave.chunks(chunk_size)
        if not isinstance(solver, BatchedMacroSolver):
            results[r] = _solve_all(solver, specs, len(wave.groups), schedule)
            continue
        for ordinal, (indices, spec) in enumerate(specs):
            chunks.append(
                WaveChunk(
                    level=level,
                    ordinal=ordinal,
                    master_seed=master_seeds[r],
                    config=solver.config,
                    schedule=schedule,
                    problems=spec,
                )
            )
            owners.append((r, indices))
    if chunks:
        outputs = pool.map(solve_wave_chunks, _super_batches(chunks, pool.workers))
        solved = (output for task_output in outputs for output in task_output)
        for (r, indices), (orders, sweeps, iterations) in zip(owners, solved):
            solvers[r].total_sweeps += sweeps
            solvers[r].total_iterations += iterations
            result = results[r]
            result.sweeps = max(result.sweeps, sweeps)
            result.iterations += iterations
            for local, order in zip(indices, orders):
                result.orders[local] = order
    return results, (time.perf_counter() - start) / len(solvers)


def _solve_all(
    solver, specs: list[tuple[list[int], ChunkSpec]], count: int,
    schedule: AnnealSchedule,
) -> _Solved:
    """One in-process ``solve_all`` call over a whole wave, in wave order."""
    problems: list[SubProblem] = [None] * count  # type: ignore[list-item]
    built = build_chunk_problems([spec for _, spec in specs])
    for (indices, spec), arrays in zip(specs, built):
        for local, dist, order, tag in zip(
            indices, arrays.distances, arrays.initial_orders, spec.tags
        ):
            problems[local] = SubProblem(
                dist,
                initial_order=order,
                closed=arrays.closed,
                fixed_first=arrays.fixed_first,
                fixed_last=arrays.fixed_last,
                tag=tag,
            )
    solutions = solver.solve_all(problems, schedule)
    return _Solved(
        [solution.order for solution in solutions],
        max((solution.sweeps for solution in solutions), default=0),
        sum(solution.iterations for solution in solutions),
    )


def _super_batches(
    chunks: list[WaveChunk], workers: int
) -> list[tuple[WaveChunk, ...]]:
    """Cut a level's chunks into contiguous wave tasks of similar size.

    The task count is the smallest multiple of ``workers`` whose equal
    row shares fit :data:`MAX_BATCH_ROWS` (but no more tasks than
    chunks), so every worker gets the same share.  A task closes once
    its share of the rows is reached, before the cap would be crossed,
    or when every later task needs one of the remaining chunks.  Task
    boundaries never change a chunk's seed, so any cut yields the same
    tours.
    """
    rows = [len(chunk.problems) * chunk.config.restarts for chunk in chunks]
    total = sum(rows)
    rounds = -(-total // (workers * MAX_BATCH_ROWS))
    count = min(len(chunks), workers * rounds)
    tasks: list[tuple[WaveChunk, ...]] = []
    task: list[WaveChunk] = []
    filled = done = 0
    for index, (chunk, chunk_rows) in enumerate(zip(chunks, rows)):
        if task and (
            done >= total * (len(tasks) + 1) / count
            or filled + chunk_rows > MAX_BATCH_ROWS
            or len(chunks) - index < count - len(tasks)
        ):
            tasks.append(tuple(task))
            task, filled = [], 0
        task.append(chunk)
        filled += chunk_rows
        done += chunk_rows
    tasks.append(tuple(task))
    return tasks


def _solve_level(
    hierarchy: Hierarchy,
    level,
    sequences: list[np.ndarray],
    endpoint_fixing: bool,
    cache: SubmatrixCache,
    solve_wave,
    all_times: list[PhaseTimes],
    all_stats: list[list[LevelStats]],
) -> None:
    """Order every replica's children at one level; updates ``sequences``.

    A function of its own so that one level's waves are freed before
    the next level describes its own.
    """
    child_of_leaf = None
    if endpoint_fixing:
        start = time.perf_counter()
        child_of_leaf = _child_of_leaf(hierarchy, level)
        share = (time.perf_counter() - start) / len(sequences)
        for times in all_times:
            times.fixing += share
    waves = []
    for r, sequence in enumerate(sequences):
        fixings = _fix_endpoints_for(
            hierarchy, level, sequence, child_of_leaf, all_times[r], cache
        )
        wave_start = time.perf_counter()
        waves.append(_child_wave(hierarchy, level, sequence, fixings, child_of_leaf))
        all_times[r].merge += time.perf_counter() - wave_start

    solved, share = solve_wave(waves, level.level)

    for r, (wave, result) in enumerate(zip(waves, solved)):
        all_times[r].ising += share
        merge_start = time.perf_counter()
        sequences[r] = _merge_child_orders(
            level, sequences[r], zip(wave.tags, result.orders)
        )
        all_times[r].merge += time.perf_counter() - merge_start
        if wave.groups:
            all_stats[r].append(result.stats(level.level, wave))


def _child_of_leaf(hierarchy: Hierarchy, level) -> np.ndarray:
    """City id -> local index, within its ``level`` cluster, of its child."""
    below = hierarchy.levels[level.level - 1]
    sizes = np.fromiter(
        (c.size for c in level.children), dtype=np.intp, count=len(level.children)
    )
    position = np.empty(below.n_nodes, dtype=np.intp)
    position[np.concatenate(level.children)] = np.arange(sizes.sum()) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    leaf_counts = np.fromiter(
        (leaves.size for leaves in below.leaves), dtype=np.intp, count=below.n_nodes
    )
    child_of_leaf = np.empty(hierarchy.instance.n, dtype=np.intp)
    child_of_leaf[np.concatenate(below.leaves)] = np.repeat(position, leaf_counts)
    return child_of_leaf


def _fix_endpoints_for(
    hierarchy: Hierarchy,
    level,
    sequence: np.ndarray,
    child_of_leaf: np.ndarray | None,
    times: PhaseTimes,
    cache: SubmatrixCache,
) -> list[EndpointFixing] | None:
    """One replica's endpoint fixing; ``None`` without ``child_of_leaf``."""
    if child_of_leaf is None or len(sequence) < 2:
        return None
    start = time.perf_counter()
    nodes = sequence.tolist()
    fixings = fix_level_endpoints(
        hierarchy.instance,
        [level.leaves[node] for node in nodes],
        child_of_leaf,
        cache=cache,
        cluster_keys=[(level.level, node) for node in nodes],
    )
    times.fixing += time.perf_counter() - start
    return fixings


def _child_wave(
    hierarchy: Hierarchy,
    level,
    sequence: np.ndarray,
    fixings: list[EndpointFixing] | None,
    child_of_leaf: np.ndarray | None,
) -> _Wave:
    """One level's child-ordering sub-problems, tagged with their position.

    Every node of ``sequence`` with more than one child gets a
    sub-problem; single-child nodes need none.  A problem orders its
    children: cities under the instance metric at level 1, centroids
    of the level below above it.  Without fixings the input order
    starts from child 0 and nothing is pinned.  Pure function of
    ``(hierarchy, sequence, fixings)``, so each replica's wave is
    described independently of the others.
    """
    children = [level.children[node] for node in sequence.tolist()]
    positions = [p for p, group in enumerate(children) if group.size > 1]
    if fixings is None:
        entry = np.zeros(len(positions), dtype=np.intp)
        exit_ = np.full(len(positions), -1)
    else:
        entry = child_of_leaf[[fixings[p].entry_leaf for p in positions]]
        exit_ = child_of_leaf[[fixings[p].exit_leaf for p in positions]]
        # Same child at both ends: pin the entry side only; the annealer
        # may choose the exit child freely.
        exit_[exit_ == entry] = -1
    instance = hierarchy.instance
    if level.level > 1:
        metric, points_of = None, hierarchy.levels[level.level - 1].centroids.__getitem__
    elif instance.metric is EdgeWeightType.EXPLICIT:
        metric, points_of = instance.metric, lambda ids: instance.distance_block(ids, ids)
    else:
        metric, points_of = instance.metric, instance.coords.__getitem__
    return _Wave(
        groups=[children[p] for p in positions],
        entries=entry,
        exits=exit_,
        tags=positions,
        metric=metric,
        points_of=points_of,
        fixed_first=fixings is not None,
    )


def _merge_child_orders(
    level, sequence: np.ndarray, solved: Iterable[tuple[int, np.ndarray]]
) -> np.ndarray:
    """Expand a node sequence into its ordered children.

    ``solved`` pairs a sequence position with the solved local order of
    that node's children; every other node has a single child.
    """
    pieces = [level.children[node] for node in sequence.tolist()]
    for position, local_order in solved:
        pieces[position] = pieces[position][local_order]
    return np.concatenate(pieces)


def _nn_chains(
    dists: list[np.ndarray], starts: np.ndarray, ends: np.ndarray
) -> list[np.ndarray]:
    """Initial visiting orders ("input orders") of many sub-problems.

    The paper initializes each macro with the input order; the pipeline
    defines that input as a greedy nearest-neighbour chain from
    ``starts[c]``, ending at ``ends[c]`` when that is not ``-1`` — a
    cheap host-side construction that every solver variant shares.
    The chains advance in lock-step over one ``+inf``-padded stack:
    padding sits after every real row and column, so each step's
    first-index argmin equals the one over the sub-problem's own
    matrix.
    """
    count = len(dists)
    sizes = np.fromiter((d.shape[0] for d in dists), dtype=np.intp, count=count)
    width = int(sizes.max())
    stack = np.full((count, width, width), np.inf)
    for c, dist in enumerate(dists):
        stack[c, : dist.shape[0], : dist.shape[0]] = dist
    rows = np.arange(count)
    pinned = ends >= 0
    visited = np.zeros((count, width), dtype=bool)
    visited[rows[pinned], ends[pinned]] = True
    visited[rows, starts] = True
    order = np.empty((count, width), dtype=int)
    order[:, 0] = starts
    current = np.array(starts, dtype=np.intp)
    steps = sizes - 1 - pinned
    for step in range(1, int(steps.max()) + 1):
        live = rows[steps >= step]
        scores = np.where(visited[live], np.inf, stack[live, current[live]])
        chosen = scores.argmin(axis=1)
        order[live, step] = chosen
        visited[live, chosen] = True
        current[live] = chosen
    order[rows[pinned], sizes[pinned] - 1] = ends[pinned]
    return [order[c, :size].copy() for c, size in enumerate(sizes.tolist())]
