"""Macro batch-sweep kernel: one ragged step body, bulk-drawn randoms.

This kernel runs the inner probability x position annealing loop of
:class:`~repro.macro.batch.BatchedMacroSolver`.  One step body advances
every macro row of a batch by one visiting-order position.  The rows
may come from chunks of *different* shapes (a whole hierarchy level at
once): each chunk's arrays are padded to the widest chunk, each row
follows its own chunk's position schedule, and a row whose positions
have run out idles for the rest of the sweep.

All random draws of a sweep are hoisted into single bulk generator
calls (one ``(positions, macros, cities)`` block per stochastic source
and chunk), and the whole sweep is gated at once.  Because every block
is drawn up front, one call anneals chunks of any shapes, each drawing
from its own generator in solo order, its blocks scattered into the
padded batch: compute is merged, RNG streams are not.

Every operation of a step is row-local, so a chunk evolves
bit-identically whatever else shares its batch.  The kernel mutates its
chunks' ``order``/``pos_of``/``proxy`` in place and returns the number
of sweeps executed.

Without read noise, the kernel runs every sweep of its batch in one
call into compiled C (``_sweep.c``, loaded by
:mod:`repro.kernels.compiled`).  The C step follows :meth:`_Batch.step`
operation by operation and draws from each chunk's own NumPy bit
generator in the same order, so it is bit-identical to the NumPy loop,
which stays as the fallback (no compiler, read noise) and as the test
oracle.  :func:`sweep_path` reports which loop runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels import compiled

#: One chunk's kernel inputs: weights ``(m, n, n)``, order and pos_of
#: ``(m, n)``, allowed-city mask ``(m, n)`` and guard proxy ``(m,)``.
Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Terms NumPy's pairwise summation adds in one unrolled block
#: (``PW_BLOCKSIZE``); longer sums split at a length-dependent point.
_PAIRWISE_BLOCK = 128


def sweep_path(read_noise: float = 0.0) -> str:
    """Which loop runs macro sweeps: ``compiled`` or ``numpy (<reason>)``.

    ``read_noise`` is the solve's read-noise sigma.  Builds the compiled
    sweep if no call has yet.
    """
    if read_noise > 0:
        return "numpy (read noise)"
    library, reason = compiled.load()
    return reason if library is not None else f"numpy ({reason})"


def batch_proxy(weights: np.ndarray, orders: np.ndarray, closed: bool) -> np.ndarray:
    """Total attraction current per row (the guard metric), vectorized.

    ``weights`` is ``(m, n, n)``, ``orders`` is ``(m, n)``.
    """
    m = orders.shape[0]
    rows = np.arange(m)[:, None]
    totals = weights[rows, orders[:, :-1], orders[:, 1:]].sum(axis=1)
    if closed:
        totals = totals + weights[np.arange(m), orders[:, -1], orders[:, 0]]
    return totals


def ragged_proxy(
    weights: np.ndarray, orders: np.ndarray, sizes: np.ndarray, closed: bool
) -> np.ndarray:
    """:func:`batch_proxy` of padded rows, bit-identical to each unpadded row.

    Row ``i`` has ``sizes[i]`` real cities; beyond them ``weights`` is
    zero and ``orders`` is the identity (the ragged kernel's padding).
    """
    edges = np.asarray(sizes) - 1
    return _RaggedProxy(weights, edges, _row_widths(edges, weights.shape[-1]), closed)(
        np.arange(orders.shape[0]), orders
    )


def _sum_width(edges: int, padded: int) -> int:
    """Narrowest padded width whose row sum equals the unpadded one.

    NumPy adds fewer than 8 terms in sequence, and up to 128 terms in
    eight interleaved partial sums plus a sequential tail.  Zero terms
    appended within the same regime (the same count of whole 8-term
    blocks) leave the float sum unchanged; across regimes they change
    its rounding, so one sum over the full padded width is not exact.
    """
    if edges > _PAIRWISE_BLOCK:
        return edges
    return min(edges | 7, padded)


def _row_widths(edges: np.ndarray, width: int) -> np.ndarray:
    """Each padded row's :func:`_sum_width`, from its real edge count."""
    return np.array([_sum_width(int(e), width - 1) for e in edges], dtype=np.int64)


def _neighbours(
    positions: np.ndarray, n: int, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Previous/next visiting-order positions of each of ``positions``."""
    if closed:
        return (positions - 1) % n, (positions + 1) % n
    prev_pos = np.where(positions > 0, positions - 1, positions + 1)
    next_pos = np.where(positions < n - 1, positions + 1, positions - 1)
    return prev_pos, next_pos


def _gate_bias(gate: np.ndarray, p_sw: float, allowed: np.ndarray) -> np.ndarray:
    """Stochastic gating with the NAND fallback, over any leading axes.

    A unit passes when its draw is below ``p_sw`` and its city is
    allowed; a row with no passing unit passes every allowed city.
    Returns the additive score bias: 0 for passing units, -inf for the
    rest.
    """
    mask = (gate < p_sw) & allowed
    mask |= ~mask.any(axis=-1, keepdims=True) & allowed
    return np.where(mask, 0.0, -np.inf)


class _RaggedProxy:
    """Guard proxies of padded rows, each summed at its own width class."""

    def __init__(
        self, weights: np.ndarray, last: np.ndarray, sum_width: np.ndarray, closed: bool
    ) -> None:
        self.width = weights.shape[-1]
        self.flat = weights.reshape(-1)
        self.closed = closed
        self.last = last
        self.widths, self.width_class = np.unique(sum_width, return_inverse=True)

    def __call__(self, rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """Proxies of candidate ``orders`` (one per batch row in ``rows``)."""
        heads = (rows * self.width)[:, None] + orders  # flat (row, city)
        edges = self.flat.take(heads[:, :-1] * self.width + orders[:, 1:])
        totals = np.add.reduce(edges[:, : self.widths[0]], axis=1)
        if len(self.widths) > 1:
            width_class = self.width_class.take(rows)
            for k, width in enumerate(self.widths[1:], start=1):
                wide = np.add.reduce(edges[:, :width], axis=1)
                np.copyto(totals, wide, where=width_class == k)
        if self.closed:
            tails = heads[np.arange(rows.size), self.last.take(rows)]
            totals += self.flat.take(tails * self.width + orders[:, 0])
        return totals


class _Batch:
    """Chunks of any shapes padded into one ``(M, N)`` macro batch.

    Chunks are laid out by descending position count, so the rows still
    annealing at step ``t`` are the prefix ``[:active[t]]``.  Beyond its
    own cities a row's weights are zero, no padded city is allowed, and
    its order is the identity, so every padded edge weighs zero.
    """

    def __init__(
        self,
        chunks: Sequence[Chunk],
        positions: Sequence[np.ndarray],
        *,
        closed: bool,
        resolution: float,
        guarded: bool,
    ) -> None:
        self.closed = closed
        self.resolution = resolution
        self.guarded = guarded
        # Stable: equal position counts keep their input order.
        self.rank = sorted(range(len(chunks)), key=lambda c: -positions[c].size)
        rows = [chunks[c][1].shape[0] for c in self.rank]
        sizes = [chunks[c][1].shape[1] for c in self.rank]
        steps = [positions[c].size for c in self.rank]
        m, n = sum(rows), max(sizes)
        bounds = np.cumsum([0] + rows)
        self.lanes = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.sizes = sizes
        self.steps = steps

        self.weights = np.zeros((m, n, n))
        self.order = np.tile(np.arange(n, dtype=np.int64), (m, 1))
        self.pos_of = self.order.copy()
        self.allowed = np.zeros((m, n), dtype=bool)
        self.proxy = np.empty(m)
        # Per step and row: its position, then its previous and next
        # neighbours' positions.
        self.tables = np.zeros((3, steps[0], m), dtype=np.int64)
        for lane, c, k, s in zip(self.lanes, self.rank, sizes, steps):
            chunk_weights, order, pos_of, allowed, proxy = chunks[c]
            self.weights[lane, :k, :k] = chunk_weights
            self.order[lane, :k] = order
            self.pos_of[lane, :k] = pos_of
            self.allowed[lane, :k] = allowed
            self.proxy[lane] = proxy
            around = _neighbours(positions[c], k, closed)
            for table, column in zip(self.tables, (positions[c], *around)):
                table[:s, lane] = column[:, None]
        self.active = np.array(
            [sum(r for r, s in zip(rows, steps) if s > t) for t in range(steps[0])],
            dtype=np.int64,
        )
        # Each row's last real index (its edge count) and the width its
        # guard proxy is summed at.
        self.last = np.repeat(np.array(sizes, dtype=np.int64), rows) - 1
        self.sum_width = _row_widths(self.last, n)
        self.plan: list[tuple] | None = None

    def _build_plan(self) -> None:
        """The NumPy step's flat views and per-step plan."""
        m, n = self.order.shape
        # Flat views: entry (row, column) of an (M, N) array sits at
        # row * N + column, so every gather/scatter is one 1-D index.
        self.row_base = np.arange(m) * n
        self.order_flat = self.order.reshape(-1)
        self.pos_flat = self.pos_of.reshape(-1)
        self.score_rows = self.weights.reshape(m * n, n)
        self.proxy_of = _RaggedProxy(self.weights, self.last, self.sum_width, self.closed)
        # Per step: active rows, their flat row offsets, flat indices of
        # their previous-then-next neighbours (and those rows' offsets),
        # flat indices of their current position, the positions, and
        # the rows with a single neighbour.
        self.plan = []
        for t, active in enumerate(self.active):
            base = self.row_base[:active]
            positions, prev_pos, next_pos = self.tables[:, t, :active]
            # Rows whose neighbours coincide (an open path's end) score
            # one neighbour only.
            same = np.flatnonzero(prev_pos == next_pos)
            self.plan.append((
                active,
                base,
                np.concatenate([base + prev_pos, base + next_pos]),
                np.concatenate([base, base]),
                base + positions,
                positions,
                same if same.size else None,
            ))

    def step(
        self,
        t: int,
        p_sw: float,
        gain: np.ndarray | None,
        bias: np.ndarray,
        jitter: np.ndarray | None,
        override: np.ndarray | None,
    ) -> None:
        """Advance the active rows by position step ``t``.

        ``gain`` (``1 + read noise``), ``bias`` (see :func:`_gate_bias`),
        ``jitter`` and ``override`` (the write-path draws, ``None``
        unless guarded) cover the active rows.
        """
        if self.plan is None:
            self._build_plan()
        m, base, around, around_base, here, positions, same = self.plan[t]
        order = self.order_flat
        # Previous then next neighbours' weight rows, in one gather.
        both = self.score_rows.take(around_base + order.take(around), axis=0)
        scores = both[:m] + both[m:]
        if same is not None:
            scores[same] = both[same]
        if gain is not None:
            scores *= gain
        scores += bias
        if jitter is not None:
            peak = scores.reshape(-1).take(base + scores.argmax(axis=1))
            # -inf plus a finite jitter stays -inf: gated-off units stay out.
            scores += jitter * (self.resolution * np.abs(peak))[:, None]
        winner = scores.argmax(axis=1)
        current = order.take(here)
        proposed = (winner != current).nonzero()[0]
        if proposed.size == 0:
            return
        won, held = winner.take(proposed), current.take(proposed)
        pos = positions.take(proposed)
        base = base.take(proposed)
        j = self.pos_flat.take(base + won)
        if self.guarded:
            # Current-comparison guard: evaluate each proposed swap's
            # attraction-current change; commit descents (in energy =
            # ascents in attraction) always, others only on a stochastic
            # write-path override.
            cand = self.order.take(proposed, axis=0)
            local = self.row_base[: proposed.size]
            cand.reshape(-1)[local + pos] = won
            cand.reshape(-1)[local + j] = held
            new_proxy = self.proxy_of(proposed, cand)
            accept = (new_proxy >= self.proxy.take(proposed)) | (
                override.take(proposed) < p_sw
            )
            if not accept.all():
                if not accept.any():
                    return
                proposed, won, held, pos, base, j, new_proxy = (
                    a[accept] for a in (proposed, won, held, pos, base, j, new_proxy)
                )
            self.proxy[proposed] = new_proxy
        order[base + pos] = won
        order[base + j] = held
        self.pos_flat[base + won] = pos
        self.pos_flat[base + held] = j

    def unpack(self, chunks: Sequence[Chunk]) -> None:
        """Write every row's order, pos_of and proxy back to its chunk."""
        for lane, c, k in zip(self.lanes, self.rank, self.sizes):
            _, order, pos_of, _, proxy = chunks[c]
            order[...] = self.order[lane, :k]
            pos_of[...] = self.pos_of[lane, :k]
            proxy[...] = self.proxy[lane]


def anneal_group_fast(
    chunks: Sequence[Chunk],
    positions: Sequence[np.ndarray],
    probabilities: np.ndarray,
    *,
    closed: bool,
    read_noise: float,
    resolution: float,
    guarded: bool,
    rngs: Sequence[np.random.Generator],
) -> int:
    """Bulk-RNG sweeps over chunks of any shapes as one ragged batch.

    Chunk ``c`` anneals its ``positions[c]`` and draws from ``rngs[c]``.
    Each sweep, every generator draws its own chunk's blocks in the
    order a solo anneal of that chunk draws them; the blocks are
    scattered into padded ``(steps, M, N)`` blocks and one step per
    position advances every chunk still annealing.  With one chunk this
    *is* the solo anneal.  Without read noise, one call into the
    compiled sweep (:mod:`repro.kernels.compiled`) runs every sweep with
    bit-identical results; without it, the NumPy loop below does.
    """
    batch = _Batch(
        chunks, positions, closed=closed, resolution=resolution, guarded=guarded
    )
    if not read_noise > 0:
        library, _ = compiled.load()
        if library is not None:
            sweeps = compiled.anneal(library, batch, probabilities, rngs)
            batch.unpack(chunks)
            return sweeps
    m, n = batch.order.shape
    shape = (batch.steps[0], m, n)
    # Padded entries stay zero: finite jitter keeps gated-off units at -inf.
    gain = np.zeros(shape) if read_noise > 0 else None
    gate = np.zeros(shape)
    jitter = np.zeros(shape) if resolution > 0 else None
    override = np.zeros(shape[:2]) if guarded else None
    lanes = [
        (rngs[c], lane, k, s)
        for c, lane, k, s in zip(batch.rank, batch.lanes, batch.sizes, batch.steps)
    ]
    sweeps = 0
    for p_sw in probabilities:
        p_sw = float(p_sw)
        for rng, lane, k, s in lanes:
            block = (s, lane.stop - lane.start, k)
            if gain is not None:
                gain[:s, lane, :k] = 1.0 + rng.normal(0.0, read_noise, size=block)
            gate[:s, lane, :k] = rng.random(block)
            if jitter is not None:
                jitter[:s, lane, :k] = rng.random(block)
            if override is not None:
                override[:s, lane] = rng.random(block[:2])
        bias = _gate_bias(gate, p_sw, batch.allowed)
        for t, active in enumerate(batch.active):
            batch.step(
                t, p_sw,
                None if gain is None else gain[t, :active],
                bias[t, :active],
                None if jitter is None else jitter[t, :active],
                None if override is None else override[t, :active],
            )
        sweeps += 1
    batch.unpack(chunks)
    return sweeps
