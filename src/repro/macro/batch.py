"""Batched macro solver: a chip full of Ising macros in lock-step.

TAXI's architecture maps every cluster of a hierarchy level onto its
own macro and anneals them *in parallel* (paper Sections IV-2, V).
This module models that parallelism efficiently: sub-problems are
annealed with vectorized numpy across a whole batch of macros, using
exactly the same per-iteration semantics as
:class:`~repro.macro.ising_macro.IsingMacro` (same effective-weight
math, stochastic gating with NAND fallback, finite-resolution WTA,
swap updates) — verified against the faithful model in the test suite.

The probability x position sweep loop lives in
:mod:`repro.kernels.macro`, which hoists each sweep's draws into bulk
generator calls.  :func:`anneal_chunks` anneals many chunks of any
sizes and fixed endpoints, each with its own solver and RNG stream, as
one padded kernel batch: the hierarchical pipeline's level-wide ragged
lock-step.  Its chunks are stacked arrays (:class:`ChunkArrays`);
:func:`solve_chunks` takes and returns :class:`SubProblem` and
:class:`SubSolution` objects instead.
:meth:`BatchedMacroSolver.solve_all` keeps one kernel call
per shape group, because its groups draw from one shared generator in
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.errors import MacroError
from repro.kernels.macro import anneal_group_fast, batch_proxy
from repro.macro.config import MacroConfig
from repro.macro.schedule import AnnealSchedule, paper_schedule
from repro.utils.rng import ensure_rng
from repro.xbar.crossbar import effective_weight_matrices
from repro.xbar.quantize import inverse_distance_levels


@dataclass
class SubProblem:
    """One cluster sub-TSP destined for a macro.

    Attributes
    ----------
    distances:
        ``(n, n)`` symmetric distance matrix (positional city ids).
    initial_order:
        Starting visiting order; identity if omitted.
    closed:
        Cyclic tour (top level) vs open path (fixed-endpoint cluster).
    fixed_first, fixed_last:
        Pin the first/last visiting order (open paths only).
    tag:
        Opaque caller identifier threaded through to the solution.
    """

    distances: np.ndarray
    initial_order: np.ndarray | None = None
    closed: bool = False
    fixed_first: bool = True
    fixed_last: bool = True
    tag: Any = None

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=float)
        if self.distances.ndim != 2 or self.distances.shape[0] != self.distances.shape[1]:
            raise MacroError(f"distances must be square, got {self.distances.shape}")
        n = self.distances.shape[0]
        if n < 2:
            raise MacroError(f"sub-problem needs >= 2 cities, got {n}")
        if self.initial_order is None:
            self.initial_order = np.arange(n)
        else:
            self.initial_order = np.asarray(self.initial_order, dtype=int)
            if sorted(self.initial_order.tolist()) != list(range(n)):
                raise MacroError("initial_order must be a permutation of 0..n-1")
        if self.closed and (self.fixed_first or self.fixed_last):
            raise MacroError("fixed endpoints require an open path")

    @property
    def n(self) -> int:
        return int(self.distances.shape[0])

    @property
    def shape_key(self) -> tuple[int, bool, bool, bool]:
        return (self.n, self.closed, self.fixed_first, self.fixed_last)


@dataclass
class SubSolution:
    """Solved visiting order for one sub-problem."""

    order: np.ndarray
    tag: Any
    sweeps: int
    iterations: int
    length: float


class BatchedMacroSolver:
    """Anneals many sub-problems with vectorized lock-step sweeps.

    Parameters
    ----------
    config:
        Shared macro configuration (precision, electrical model, WTA
        resolution).  Update mode is always swap-equivalent — both
        modes produce identical orders, so the batch models one.
    seed:
        RNG seed or generator for stochastic gating, variation, and
        tie-breaks.
    """

    def __init__(
        self,
        config: MacroConfig | None = None,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        self.config = config if config is not None else MacroConfig()
        self._rng = ensure_rng(seed)
        self.total_iterations = 0
        self.total_sweeps = 0

    def solve_all(
        self,
        problems: list[SubProblem],
        schedule: AnnealSchedule | None = None,
    ) -> list[SubSolution]:
        """Solve every sub-problem; results align with the input order.

        Sub-problems are grouped by shape and each group anneals as one
        vectorized batch.  With ``config.restarts > 1`` each sub-problem
        runs on that many replica macros and the replica with the
        largest quantized attraction total (a digital readout
        comparison) is returned.
        """
        groups: dict[tuple[int, bool, bool, bool], list[int]] = {}
        for idx, problem in enumerate(problems):
            groups.setdefault(problem.shape_key, []).append(idx)
        solutions: list[SubSolution | None] = [None] * len(problems)
        for indices in groups.values():
            [solved] = solve_chunks(
                [self], [[problems[i] for i in indices]], schedule
            )
            for idx, solution in zip(indices, solved):
                solutions[idx] = solution
        return solutions  # type: ignore[return-value]


class ChunkArrays(NamedTuple):
    """One chunk's sub-problems as stacked arrays; they share one shape.

    ``distances`` is ``(p, n, n)`` and ``initial_orders`` ``(p, n)``.
    """

    distances: np.ndarray
    initial_orders: np.ndarray
    closed: bool
    fixed_first: bool
    fixed_last: bool

    @property
    def shape_key(self) -> tuple[int, bool, bool, bool]:
        return (
            int(self.distances.shape[1]), self.closed, self.fixed_first,
            self.fixed_last,
        )


def solve_chunks(
    solvers: list[BatchedMacroSolver],
    chunk_problems: list[list[SubProblem]],
    schedule: AnnealSchedule | None = None,
) -> list[list[SubSolution]]:
    """Solve chunks, one solver each, as one merged ragged batch.

    ``chunk_problems[i]`` is one chunk: its problems share one
    ``shape_key`` (as :func:`repro.engine.wavefront.chunk_indices`
    guarantees).  :func:`anneal_chunks` does the work; this wraps each
    picked order in a :class:`SubSolution`.
    """
    chunks = [
        ChunkArrays(
            np.stack([p.distances for p in problems]),
            np.stack([p.initial_order for p in problems]),
            *problems[0].shape_key[1:],
        )
        for problems in chunk_problems
    ]
    restarts = solvers[0].config.restarts
    results: list[list[SubSolution]] = []
    for problems, chunk, (orders, sweeps) in zip(
        chunk_problems, chunks, anneal_chunks(solvers, chunks, schedule)
    ):
        iterations = sweeps * _optimizable_positions(*chunk.shape_key).size * restarts
        results.append([
            SubSolution(
                order=order.copy(),
                tag=problem.tag,
                sweeps=sweeps,
                iterations=iterations,
                length=_order_length(problem.distances, order, problem.closed),
            )
            for problem, order in zip(problems, orders)
        ])
    return results


def anneal_chunks(
    solvers: list[BatchedMacroSolver],
    chunks: list[ChunkArrays],
    schedule: AnnealSchedule | None = None,
) -> list[tuple[np.ndarray, int]]:
    """Anneal chunks, one solver each, as one merged ragged batch.

    Different chunks may differ in size and fixed endpoints, but must be
    all closed or all open; ``solvers[i]`` is chunk ``i``'s seeded
    solver, and all solvers share one config.  Each chunk consumes its
    solver's RNG exactly as a solo solve of that chunk would (weight
    draws at prepare time, then per-sweep blocks), so the orders are
    bit-identical to solving chunk by chunk.  One kernel call anneals
    every chunk.  A chunk with nothing to anneal draws no randoms and
    joins no kernel call.

    Returns each chunk's ``(p, n)`` picked orders and its sweep count;
    each solver's counters accumulate its chunk's sweeps and
    iterations.
    """
    schedule = schedule if schedule is not None else paper_schedule()
    config = solvers[0].config
    if any(solver.config != config for solver in solvers[1:]):
        raise MacroError("merged chunks need one shared config")
    for chunk in chunks:
        if chunk.distances.shape[1] > config.max_cities:
            raise MacroError(
                f"sub-problem of {chunk.distances.shape[1]} cities exceeds "
                f"macro capacity {config.max_cities}"
            )
    closed = chunks[0].closed
    if any(chunk.closed != closed for chunk in chunks):
        raise MacroError("merged chunks must be all closed or all open")
    restarts = config.restarts
    positions = [_optimizable_positions(*chunk.shape_key) for chunk in chunks]
    # Chunks the annealer may change (two movable positions to swap);
    # the rest draw no randoms.
    live = [i for i, chunk_positions in enumerate(positions) if chunk_positions.size >= 2]
    sweeps = [0] * len(chunks)
    # Every restart copy of a chunk the annealer leaves alone keeps the
    # initial order, so that is the pick.
    orders = [chunk.initial_orders for chunk in chunks]
    if live:
        levels = [inverse_distance_levels(chunks[i].distances, config.bits) for i in live]
        prepared = [
            _prepare(solvers[i], chunks[i], chunk_levels, restarts)
            for i, chunk_levels in zip(live, levels)
        ]
        done = anneal_group_fast(
            prepared,
            [positions[i] for i in live],
            schedule.probabilities(),
            closed=closed,
            read_noise=config.crossbar.variation.read_noise_sigma,
            resolution=config.wta_resolution,
            guarded=config.guarded_updates,
            rngs=[solvers[i]._rng for i in live],
        )
        for i in live:
            sweeps[i] = done
        for i, chunk_levels, arrays in zip(live, levels, prepared):
            orders[i] = _pick_restarts(chunk_levels, arrays[1], closed)

    for solver, chunk, chunk_sweeps, chunk_positions in zip(
        solvers, chunks, sweeps, positions
    ):
        solver.total_sweeps += chunk_sweeps
        solver.total_iterations += (
            chunk_sweeps * chunk_positions.size * len(chunk.distances) * restarts
        )
    return list(zip(orders, sweeps))


def _pick_restarts(levels: np.ndarray, orders: np.ndarray, closed: bool) -> np.ndarray:
    """Each problem's restart with the largest quantized attraction total.

    ``levels`` is a chunk's ``(p, n, n)`` W_D levels and ``orders`` its
    ``(p * restarts, n)`` annealed orders, each problem's restarts
    adjacent.  The comparison uses the ideal quantized levels (a
    digital sum over the read-out solution), not each restart's analog
    weights, so restarts from different physical macros compare on a
    common scale.  Scores are exact integer sums; the first maximum
    wins.  Returns the ``(p, n)`` picked orders.
    """
    p, n = levels.shape[0], orders.shape[1]
    orders = orders.reshape(p, -1, n)
    if orders.shape[1] == 1:
        return orders[:, 0]
    problem = np.arange(p)[:, None]
    scores = levels[problem[:, :, None], orders[:, :, :-1], orders[:, :, 1:]].sum(axis=-1)
    if closed:
        scores += levels[problem, orders[:, :, -1], orders[:, :, 0]]
    return orders[np.arange(p), scores.argmax(axis=1)]


def _prepare(
    solver: BatchedMacroSolver,
    chunk: ChunkArrays,
    levels: np.ndarray,
    restarts: int,
) -> tuple[np.ndarray, ...]:
    """One chunk's kernel inputs: weights, order, pos_of, allowed, proxy.

    ``levels`` is the chunk's ``(p, n, n)`` W_D levels; each problem
    gets ``restarts`` adjacent macro rows.  The effective weights are
    the chunk's first draw from its RNG.
    """
    weights = effective_weight_matrices(
        np.repeat(levels, restarts, axis=0),
        solver.config.bits,
        solver.config.crossbar,
        solver._rng,
    )  # (m, n, n)
    order = np.repeat(chunk.initial_orders, restarts, axis=0).astype(int)  # (m, n)
    m, n = order.shape
    pos_of = np.argsort(order, axis=1)
    allowed = np.ones((m, n), dtype=bool)
    if not chunk.closed:
        rows = np.arange(m)
        if chunk.fixed_first:
            allowed[rows, order[:, 0]] = False
        if chunk.fixed_last:
            allowed[rows, order[:, -1]] = False
    return weights, order, pos_of, allowed, batch_proxy(weights, order, chunk.closed)


def _optimizable_positions(
    n: int, closed: bool, fixed_first: bool, fixed_last: bool
) -> np.ndarray:
    if closed:
        return np.arange(n)
    start = 1 if fixed_first else 0
    stop = n - 1 if fixed_last else n
    return np.arange(start, stop)


def _order_length(distances: np.ndarray, order: np.ndarray, closed: bool) -> float:
    length = float(distances[order[:-1], order[1:]].sum())
    if closed:
        length += float(distances[order[-1], order[0]])
    return length
