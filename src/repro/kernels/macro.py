"""Macro batch-sweep kernels: reference loop and bulk-RNG fast path.

These kernels run the inner probability x position annealing loop of
:class:`~repro.macro.batch.BatchedMacroSolver`.  The loop body is
already vectorized across the macros of a group; what distinguishes the
backends is how the *per-position* work is staged:

* ``reference`` draws gating/noise/jitter/override randoms one position
  at a time (the historical stream, bit-for-bit stable), so it anneals
  one chunk per call;
* ``fast`` hoists all random draws of a sweep into single bulk
  generator calls (one ``(positions, macros, cities)`` block per
  stochastic source), precomputes the neighbour-position table, and
  drops a redundant copy of the score gather.  Same distributions,
  same update semantics, different draw order — validated against the
  reference at distribution level.  Because every block is drawn up
  front, one call can anneal many same-shape chunks, each drawing from
  its own generator: compute is merged, RNG streams are not.

Both kernels mutate ``order``/``pos_of``/``proxy`` in place and return
the number of sweeps executed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def neighbour_positions(pos: int, n: int, closed: bool) -> tuple[int, int]:
    """Previous/next visiting-order positions of ``pos``."""
    if closed:
        return (pos - 1) % n, (pos + 1) % n
    prev_pos = pos - 1 if pos > 0 else pos + 1
    next_pos = pos + 1 if pos < n - 1 else pos - 1
    return prev_pos, next_pos


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


def _sweep_positions(
    weights: np.ndarray,
    order: np.ndarray,
    pos_of: np.ndarray,
    allowed_cities: np.ndarray,
    proxy: np.ndarray,
    positions: np.ndarray,
    neighbours: list[tuple[int, int]],
    p_sw: float,
    *,
    closed: bool,
    read_noise: float,
    resolution: float,
    guarded: bool,
    rng: np.random.Generator,
    noise_block: np.ndarray | None,
    gate_block: np.ndarray | None,
    jitter_block: np.ndarray | None,
    override_block: np.ndarray | None,
) -> None:
    """One full position sweep; ``*_block`` arrays supply pre-drawn randoms."""
    m, n = order.shape
    rows = np.arange(m)
    for t, pos in enumerate(positions):
        prev_pos, next_pos = neighbours[t]
        prev_cities = order[:, prev_pos]
        next_cities = order[:, next_pos]
        # Advanced indexing already copies, so scores owns its buffer.
        scores = weights[rows, prev_cities, :]
        distinct = prev_cities != next_cities
        if distinct.all():
            scores += weights[rows, next_cities, :]
        elif distinct.any():
            scores[distinct] += weights[rows[distinct], next_cities[distinct], :]
        if read_noise > 0:
            noise = (
                noise_block[t]
                if noise_block is not None
                else rng.normal(0.0, read_noise, size=scores.shape)
            )
            scores *= 1.0 + noise
        gate = gate_block[t] if gate_block is not None else rng.random((m, n))
        mask = gate < p_sw
        mask &= allowed_cities
        # NAND fallback: rows with no switched (allowed) unit pass every
        # allowed city.
        empty = ~mask.any(axis=1)
        if empty.any():
            mask[empty] = allowed_cities[empty]
        gated = np.where(mask, scores, -np.inf)
        if resolution > 0:
            peak = gated.max(axis=1, keepdims=True)
            window = resolution * np.abs(peak)
            jitter = jitter_block[t] if jitter_block is not None else rng.random((m, n))
            gated = np.where(mask, gated + jitter * window, -np.inf)
        winner = np.argmax(gated, axis=1)
        # Copy: order[:, pos] is a view and the swap writes below would
        # otherwise corrupt it mid-update.
        current_city = order[:, pos].copy()
        proposed = np.flatnonzero(winner != current_city)
        if proposed.size == 0:
            continue
        j = pos_of[proposed, winner[proposed]]
        if guarded:
            # Current-comparison guard: evaluate each proposed swap's
            # attraction-current change; commit descents (in energy =
            # ascents in attraction) always, others only on a stochastic
            # write-path override.
            cand = order[proposed].copy()
            local = np.arange(proposed.size)
            cand[local, pos] = winner[proposed]
            cand[local, j] = current_city[proposed]
            new_proxy = batch_proxy(weights[proposed], cand, closed)
            override = (
                override_block[t, proposed]
                if override_block is not None
                else rng.random(proposed.size)
            )
            accept = (new_proxy >= proxy[proposed]) | (override < p_sw)
            if not accept.any():
                continue
            changed = proposed[accept]
            j = j[accept]
            proxy[changed] = new_proxy[accept]
        else:
            changed = proposed
        order[changed, pos] = winner[changed]
        order[changed, j] = current_city[changed]
        pos_of[changed, winner[changed]] = pos
        pos_of[changed, current_city[changed]] = j


def anneal_group_reference(
    weights: np.ndarray,
    order: np.ndarray,
    pos_of: np.ndarray,
    allowed_cities: np.ndarray,
    proxy: np.ndarray,
    positions: np.ndarray,
    probabilities: np.ndarray,
    *,
    closed: bool,
    read_noise: float,
    resolution: float,
    guarded: bool,
    rng: np.random.Generator,
) -> int:
    """Historical per-position draw order (bit-for-bit stable stream)."""
    n = order.shape[1]
    neighbours = [neighbour_positions(int(pos), n, closed) for pos in positions]
    sweeps = 0
    for p_sw in probabilities:
        _sweep_positions(
            weights, order, pos_of, allowed_cities, proxy, positions,
            neighbours, float(p_sw),
            closed=closed, read_noise=read_noise, resolution=resolution,
            guarded=guarded, rng=rng,
            noise_block=None, gate_block=None, jitter_block=None,
            override_block=None,
        )
        sweeps += 1
    return sweeps


def anneal_group_fast(
    weights: np.ndarray,
    order: np.ndarray,
    pos_of: np.ndarray,
    allowed_cities: np.ndarray,
    proxy: np.ndarray,
    positions: np.ndarray,
    probabilities: np.ndarray,
    *,
    closed: bool,
    read_noise: float,
    resolution: float,
    guarded: bool,
    rngs: Sequence[np.random.Generator],
    rows: Sequence[int],
) -> int:
    """Bulk-RNG sweeps over one or more chunks merged along the macro axis.

    The first ``rows[0]`` macros belong to ``rngs[0]``, the next
    ``rows[1]`` to ``rngs[1]``, and so on.  Each sweep, every generator
    draws its own rows' blocks in the order a solo anneal of its chunk
    draws them, the blocks are concatenated along the macro axis, and
    one :func:`_sweep_positions` call advances every chunk.  Sweep
    operations are all per-row, so each chunk evolves bit-identically
    to a solo anneal; with one generator this *is* the solo anneal.
    """
    n = order.shape[1]
    n_pos = positions.size
    neighbours = [neighbour_positions(int(pos), n, closed) for pos in positions]
    streams = list(zip(rngs, rows))
    sweeps = 0
    for p_sw in probabilities:
        noise_block, gate_block, jitter_block, override_block = _draw_blocks(
            streams, n_pos, n, read_noise, resolution, guarded
        )
        _sweep_positions(
            weights, order, pos_of, allowed_cities, proxy, positions,
            neighbours, float(p_sw),
            closed=closed, read_noise=read_noise, resolution=resolution,
            guarded=guarded, rng=rngs[0],  # unused: every block is pre-drawn
            noise_block=noise_block, gate_block=gate_block,
            jitter_block=jitter_block, override_block=override_block,
        )
        sweeps += 1
    return sweeps


def _draw_blocks(streams, n_pos, n, read_noise, resolution, guarded):
    """One sweep's ``(noise, gate, jitter, override)`` blocks.

    Each ``(generator, rows)`` stream draws its blocks in solo order;
    with several streams the blocks are joined along the macro axis.
    """
    parts = [
        (
            rng.normal(0.0, read_noise, size=(n_pos, rows, n))
            if read_noise > 0 else None,
            rng.random((n_pos, rows, n)),
            rng.random((n_pos, rows, n)) if resolution > 0 else None,
            rng.random((n_pos, rows)) if guarded else None,
        )
        for rng, rows in streams
    ]
    if len(parts) == 1:
        return parts[0]
    return tuple(
        None if blocks[0] is None else np.concatenate(blocks, axis=1)
        for blocks in zip(*parts)
    )
