"""2-opt simulated-annealing kernels: reference loop and batched fast path.

Both kernels run the *same* Markov chain — same proposal stream, same
acceptance rule, same IEEE-double arithmetic — so the fast kernel is
bit-exact with the reference loop for any seed.  The solver runs the
reference loop only where the fast kernel cannot (no distance matrix,
or more than :data:`FAST_MATRIX_LIMIT` cities).  The fast kernel
changes only how proposals are *evaluated*:

* **High-acceptance sweeps** run a scalar loop over Python lists
  (list indexing sidesteps per-element numpy boxing, ~2-3x the
  reference loop's throughput) because frequent tour mutations make
  batch evaluation stale immediately.
* **Low-acceptance sweeps** evaluate the whole block of candidate
  ``(i, j)`` reversals against the distance matrix in one vectorized
  pass and apply the *accepted prefix*: every candidate before the
  first acceptance was evaluated against the true tour state, so the
  whole rejected prefix is consumed at once, the first accepted move is
  applied, and only the remaining suffix is re-evaluated.  A sweep with
  zero acceptances — the common case late in the anneal — costs one
  vector evaluation instead of ``n`` Python iterations.

The mode is chosen per sweep from the previous sweep's acceptance
count (deterministic, so results stay reproducible), crossing over at
:func:`batch_threshold` accepted moves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


#: Above this city count the fast kernel's scalar mode would box the
#: whole distance matrix into Python floats (O(n^2) objects), so the
#: caller routes to the reference loop instead.
FAST_MATRIX_LIMIT = 1024


def batch_threshold(n: int) -> int:
    """Accepted-moves-per-sweep crossover between scalar and batch mode.

    Scalar cost grows with ``n`` (every candidate is touched), batch
    cost with the number of acceptances (each forces a suffix
    re-evaluation); the ratio of the two per-unit costs is ~30.
    """
    return max(3, n // 30)


def anneal_tours_reference(
    rng: np.random.Generator,
    order: np.ndarray,
    length: float,
    sweeps: int,
    t_start: float,
    ratio: float,
    matrix: np.ndarray | None,
    dist: Callable[[int, int], float],
) -> tuple[np.ndarray, float]:
    """The original per-proposal annealing loop.

    Matrix-backed instances index the raw distance matrix directly (no
    per-lookup ``float(...)`` wrapper call) with the candidate ``int``
    coercions hoisted out of the inner loop; the callable ``dist`` is
    only used when no matrix is available.  Mutates ``order``; returns
    ``(best_order, best_length)``.
    """
    n = order.shape[0]
    n1 = n - 1
    best_order = order.copy()
    best_length = length
    temperature = t_start
    for _ in range(sweeps):
        ii = rng.integers(0, n, size=n)
        jj = rng.integers(0, n, size=n)
        log_u = np.log(rng.random(n))
        lo = np.minimum(ii, jj).tolist()
        hi = np.maximum(ii, jj).tolist()
        lu = log_u.tolist()
        for k in range(n):
            i = lo[k]
            j = hi[k]
            if i == j:
                continue
            if i == 0 and j == n1:
                continue  # reversing the whole tour is a no-op
            a = order[i - 1]
            b = order[i]
            c = order[j]
            d = order[j + 1 - n]  # negative index wraps to order[0] at j == n-1
            if matrix is not None:
                delta = matrix[a, c] + matrix[b, d] - matrix[a, b] - matrix[c, d]
            else:
                delta = dist(a, c) + dist(b, d) - dist(a, b) - dist(c, d)
            if delta <= 0.0 or lu[k] < -delta / temperature:
                order[i:j + 1] = order[i:j + 1][::-1]
                length += delta
                if length < best_length:
                    best_length = length
                    best_order = order.copy()
        temperature *= ratio
    return best_order, best_length


def anneal_tours_fast(
    rng: np.random.Generator,
    order: np.ndarray,
    length: float,
    sweeps: int,
    t_start: float,
    ratio: float,
    matrix: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Hybrid scalar/batched annealing loop (bit-exact with the reference).

    Requires a full distance matrix (the caller falls back to
    :func:`anneal_tours_reference` without one).  Mutates ``order``;
    returns ``(best_order, best_length)``.
    """
    n = order.shape[0]
    n1 = n - 1
    threshold = batch_threshold(n)
    rows = matrix.tolist()
    order_list = order.tolist()
    scalar_mode = True
    length = float(length)
    best_list = order_list.copy()
    best_length = length
    temperature = t_start
    accepted_prev = n  # optimistic: the anneal starts hot
    for _ in range(sweeps):
        # One fused draw: bit-identical to consecutive ii/jj draws.
        pairs = rng.integers(0, n, size=2 * n)
        ii = pairs[:n]
        jj = pairs[n:]
        log_u = np.log(rng.random(n))
        accepted = 0
        if accepted_prev >= threshold:
            # scalar mode: frequent mutations, list-indexed loop
            if not scalar_mode:
                order_list = order.tolist()
                scalar_mode = True
            lo = np.minimum(ii, jj).tolist()
            hi = np.maximum(ii, jj).tolist()
            lu = log_u.tolist()
            for k in range(n):
                i = lo[k]
                j = hi[k]
                if i == j or (i == 0 and j == n1):
                    continue
                a = order_list[i - 1]
                b = order_list[i]
                c = order_list[j]
                d = order_list[j + 1 - n]
                row_a = rows[a]
                delta = row_a[c] + rows[b][d] - row_a[b] - rows[c][d]
                if delta <= 0.0 or lu[k] < -delta / temperature:
                    order_list[i:j + 1] = (
                        order_list[j:i - 1:-1] if i else order_list[j::-1]
                    )
                    length += delta
                    accepted += 1
                    if length < best_length:
                        best_length = length
                        best_list = order_list.copy()
        else:
            # batch mode: one vectorized evaluation per accepted prefix
            if scalar_mode:
                order = np.asarray(order_list, dtype=np.intp)
                scalar_mode = False
            lo = np.minimum(ii, jj)
            hi = np.maximum(ii, jj)
            keep = (lo != hi) & ~((lo == 0) & (hi == n1))
            k_lo = lo[keep]
            k_hi = hi[keep]
            k_lu = log_u[keep]
            # (prev, lo, hi, next) position rows; negative entries wrap
            # exactly like the scalar path's list indexing.
            pos = np.vstack((k_lo - 1, k_lo, k_hi, k_hi + 1 - n))
            while k_lu.size:
                a, b, c, d = order[pos]
                delta = matrix[a, c] + matrix[b, d] - matrix[a, b] - matrix[c, d]
                accept = (delta <= 0.0) | (k_lu < -delta / temperature)
                first = int(np.argmax(accept))
                if not accept[first]:
                    break  # whole block rejected: the sweep is done
                i = int(pos[1, first])
                j = int(pos[2, first])
                order[i:j + 1] = order[i:j + 1][::-1]
                length += float(delta[first])
                accepted += 1
                if length < best_length:
                    best_length = length
                    best_list = order.tolist()
                pos = pos[:, first + 1:]
                k_lu = k_lu[first + 1:]
        accepted_prev = accepted
        temperature *= ratio
    return np.asarray(best_list, dtype=int), best_length
