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

Distances: child orderings at levels >= 2 use centroid distances;
level-1 clusters order actual cities with the instance metric, sliced
through a per-solve :class:`~repro.clustering.cache.SubmatrixCache`
shared with the endpoint-fixing step.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.cache import DEFAULT_CACHE_BUDGET, SubmatrixCache
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
    SubProblem,
    SubSolution,
    solve_chunks,
)
from repro.macro.config import MacroConfig
from repro.macro.schedule import AnnealSchedule

#: Sub-problems per dispatch chunk.  Part of the solve's deterministic
#: identity (chunk boundaries feed the per-chunk seeds), NOT a tuning
#: knob to vary per run: changing it changes the RNG streams.
DEFAULT_CHUNK_SIZE = 8

#: Most macro rows (sub-problems x restarts) one wave task anneals.  A
#: dispatch bound, NOT part of the solve identity: super-batch
#: boundaries never move a chunk boundary or seed, so tours do not
#: depend on it.  It keeps each task's pickled payload and padded
#: kernel arrays small.
MAX_BATCH_ROWS = 512

#: Clusters per slice of a level's sub-problem build: their square
#: blocks come from the cache in one padded call and their initial
#: orders are built in lock-step.  A memory bound, NOT part of the
#: solve identity: slices never change a sub-problem.
BUILD_SLICE_CLUSTERS = 64

#: One solve's result: (city order, phase times, per-level stats).
SolveResult = tuple[np.ndarray, PhaseTimes, list[LevelStats]]


@dataclass(frozen=True)
class WaveChunk:
    """One picklable unit of wavefront work: a few sibling sub-problems.

    The chunk seed is derived inside the worker from
    ``(master_seed, level, ordinal)`` — nothing stateful crosses the
    process boundary, so results are identical at any worker count.
    """

    level: int
    ordinal: int
    master_seed: int
    config: MacroConfig
    schedule: AnnealSchedule
    problems: tuple[SubProblem, ...]


def solve_wave_chunks(
    chunks: tuple[WaveChunk, ...],
) -> list[tuple[list[SubSolution], int, int]]:
    """Solve one super-batch of chunks as one ragged batch (a wave task).

    Module-level so process pools can pickle it.  Each chunk gets its
    own seeded solver; returns ``(solutions, sweeps, iterations)`` per
    chunk, where the counters are the chunk solver's totals (for the
    replica solver's bookkeeping).
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
    solved = solve_chunks(
        solvers, [list(chunk.problems) for chunk in chunks], chunks[0].schedule
    )
    return [
        (solutions, solver.total_sweeps, solver.total_iterations)
        for solutions, solver in zip(solved, solvers)
    ]


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
        Distance-submatrix cache.  Defaults to a fresh budgeted
        per-solve cache shared by the replicas; callers solving one
        hierarchy repeatedly may pass their own to reuse its slices.
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
        # Per-solve cache: every pair block is requested once per
        # replica, so only the (reusable) square submatrices are worth
        # retaining — and only up to a byte budget, so an n=10^5 solve
        # holds a bounded working set of blocks instead of one per
        # cluster.  Small solves never reach the budget.
        cache = SubmatrixCache(
            instance,
            retain_cross_blocks=False,
            budget_bytes=DEFAULT_CACHE_BUDGET,
        )
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
            problem = SubProblem(
                centroid_distance_matrix(top.centroids),
                closed=True,
                fixed_first=False,
                fixed_last=False,
                tag="top",
            )
            solved, share = solve_wave([[problem]] * len(solvers), hierarchy.depth - 1)
            sequences = []
            for r, (solution,) in enumerate(solved):
                all_times[r].ising += share
                all_stats[r].append(
                    _level_stats(hierarchy.depth - 1, [problem], [solution])
                )
                sequences.append(solution.order.astype(int))

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
def _solve_wave(
    pool: WavefrontPool,
    solvers: list[BatchedMacroSolver],
    master_seeds: list[int],
    schedule: AnnealSchedule,
    chunk_size: int,
    waves: list[list[SubProblem]],
    level: int,
) -> tuple[list[list[SubSolution]], float]:
    """Solve one level's wavefront of every replica.

    Returns the solutions (aligned with ``waves``) and each replica's
    share of the wall time.  Each replica's problems are cut into chunks
    (ordinals per replica); the chunks of every shape and replica are
    then cut into contiguous super-batches, one wave task each (see
    :func:`_super_batches`).
    """
    start = time.perf_counter()
    results: list[list[SubSolution]] = []
    chunks: list[WaveChunk] = []
    owners: list[tuple[int, list[int]]] = []
    for r, (solver, problems) in enumerate(zip(solvers, waves)):
        results.append([None] * len(problems))  # type: ignore[list-item]
        if not problems:
            continue
        if not isinstance(solver, BatchedMacroSolver):
            results[r] = solver.solve_all(problems, schedule)
            continue
        keys = [p.shape_key for p in problems]
        for ordinal, indices in enumerate(chunk_indices(keys, chunk_size)):
            chunks.append(
                WaveChunk(
                    level=level,
                    ordinal=ordinal,
                    master_seed=master_seeds[r],
                    config=solver.config,
                    schedule=schedule,
                    problems=tuple(problems[i] for i in indices),
                )
            )
            owners.append((r, indices))
    if chunks:
        outputs = pool.map(solve_wave_chunks, _super_batches(chunks, pool.workers))
        solved = (output for task_output in outputs for output in task_output)
        for (r, indices), (solutions, sweeps, iterations) in zip(owners, solved):
            solvers[r].total_sweeps += sweeps
            solvers[r].total_iterations += iterations
            for local, solution in zip(indices, solutions):
                results[r][local] = solution
    return results, (time.perf_counter() - start) / len(solvers)


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

    A function of its own so that one level's sub-problems are freed
    before the next level builds its own.
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
        build_start = time.perf_counter()
        waves.append(
            _build_child_problems(
                hierarchy, level, sequence, fixings, cache, child_of_leaf
            )
        )
        all_times[r].merge += time.perf_counter() - build_start

    solved, share = solve_wave(waves, level.level)

    for r, (problems, solutions) in enumerate(zip(waves, solved)):
        all_times[r].ising += share
        merge_start = time.perf_counter()
        sequences[r] = _merge_child_orders(
            level, sequences[r], [(p.tag, s.order) for p, s in zip(problems, solutions)]
        )
        all_times[r].merge += time.perf_counter() - merge_start
        if problems:
            all_stats[r].append(_level_stats(level.level, problems, solutions))


def _level_stats(
    level: int, problems: list[SubProblem], solutions: list[SubSolution]
) -> LevelStats:
    return LevelStats(
        level=level,
        n_subproblems=len(problems),
        subproblem_sizes=[p.n for p in problems],
        sweeps=max((s.sweeps for s in solutions), default=0),
        total_iterations=sum(s.iterations for s in solutions),
    )


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


def _build_child_problems(
    hierarchy: Hierarchy,
    level,
    sequence: np.ndarray,
    fixings: list[EndpointFixing] | None,
    cache: SubmatrixCache,
    child_of_leaf: np.ndarray | None,
) -> list[SubProblem]:
    """One level's child-ordering sub-problems, tagged with their position.

    Every node of ``sequence`` with more than one child gets a
    sub-problem; single-child nodes need none.  The nodes are built in
    slices of :data:`BUILD_SLICE_CLUSTERS`.  Pure function of
    ``(hierarchy, sequence, fixings)``, so each replica's problems are
    built independently of the others.
    """
    below = hierarchy.levels[level.level - 1]
    nodes = sequence.tolist()
    children = [level.children[node] for node in nodes]
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
    problems: list[SubProblem] = []
    for lo in range(0, len(positions), BUILD_SLICE_CLUSTERS):
        batch = positions[lo : lo + BUILD_SLICE_CLUSTERS]
        groups = [children[p] for p in batch]
        if level.level == 1:
            dists = cache.submatrices(
                [("sub", level.level, nodes[p]) for p in batch], groups
            )
        else:
            dists = [centroid_distance_matrix(below.centroids[g]) for g in groups]
        ends = exit_[lo : lo + BUILD_SLICE_CLUSTERS]
        orders = _nn_chains(dists, entry[lo : lo + BUILD_SLICE_CLUSTERS], ends)
        for position, dist, order, end in zip(batch, dists, orders, ends.tolist()):
            problems.append(
                SubProblem(
                    dist,
                    initial_order=order,
                    closed=False,
                    fixed_first=fixings is not None,
                    fixed_last=end >= 0,
                    tag=position,
                )
            )
    return problems


def _merge_child_orders(
    level, sequence: np.ndarray, solved: list[tuple[int, np.ndarray]]
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
