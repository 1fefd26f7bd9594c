"""Neighbor-list 2-opt/Or-opt kernels: scalar oracle and vectorized passes.

This is the sparse-mode local-search engine.  Moves are evaluated only
against each city's k nearest candidates (:class:`CandidateLists`), so
no distance matrix is ever required — edge lengths come from a cached
dense matrix when one is cheap (small n, or EXPLICIT where the matrix
*is* the instance) and directly from the coordinate metric formulas
otherwise.  Don't-look bits keep passes focused on recently-changed
regions.

Two pass sets share one pass structure:

* the scalar candidate scans (:func:`two_opt_pass`, :func:`or_opt_pass`),
  the executable specification (moved here verbatim from
  ``baselines/two_opt.py``);
* their per-city vectorized twins (:func:`two_opt_pass_fast`,
  :func:`or_opt_pass_fast`), which :meth:`NeighborLocalSearch.improve`
  runs.

The two are **bit-exact**: both walk cities in the same don't-look
order, evaluate deltas with the same left-to-right float64 arithmetic,
and pick the same first-improving (2-opt) or first-minimal (Or-opt)
move.  :class:`NeighborKernelParity` asserts this on demand through
:meth:`NeighborLocalSearch.improve_reference`.

One subtlety worth spelling out because it is where a naive
vectorization breaks parity: the reference 2-opt scan ``continue``\\ s on
``c == b`` / ``c == a`` *before* testing the sorted-candidate early
break ``d_ac >= d_ab``.  A skipped candidate therefore never terminates
the scan, so the vectorized break limit must be the first *considered*
candidate with ``d_ac >= d_ab``, not the first candidate outright.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.errors import SolverError
from repro.tsp.instance import EdgeWeightType, TSPInstance
from repro.tsp.neighbors import CandidateLists, build_candidate_lists

#: Below this size move evaluation reads a cached full matrix; above it
#: edge lengths come straight from the coordinate formulas.  Matrix and
#: formula values are elementwise-identical float64, so the cutoff is a
#: speed knob, never a semantics knob.
DENSE_MATRIX_LIMIT = 4096

#: Improvement threshold shared by every move type (strict float noise
#: guard; a move must beat it to be taken).
IMPROVE_EPS = -1e-10

DistFn = Callable[[int, int], float]
PairFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_dist_fns(instance: TSPInstance) -> tuple[DistFn, PairFn]:
    """Scalar and vectorized edge-length oracles with identical values."""
    if instance.n <= DENSE_MATRIX_LIMIT:
        matrix = instance.distance_matrix()
    elif instance.metric is EdgeWeightType.EXPLICIT:
        matrix = instance.matrix
    else:
        matrix = None
    if matrix is not None:
        def scalar(a: int, b: int) -> float:
            return float(matrix[a, b])

        def pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return matrix[a, b]

        return scalar, pair

    def scalar(a: int, b: int) -> float:
        return float(
            instance._edge_lengths(np.asarray([a]), np.asarray([b]))[0]
        )

    def pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return instance._edge_lengths(np.asarray(a), np.asarray(b))

    return scalar, pair


def _dont_look_pass(order: np.ndarray, try_city) -> bool:
    """One don't-look-bit sweep; ``try_city(a)`` returns touched cities."""
    dont_look = np.zeros(order.size, dtype=bool)
    queue = list(order)
    improved_any = False
    while queue:
        a = queue.pop()
        if dont_look[a]:
            continue
        dont_look[a] = True
        improved = try_city(int(a))
        if improved:
            improved_any = True
            for city in improved:
                if dont_look[city]:
                    dont_look[city] = False
                    queue.append(city)
    return improved_any


# ----------------------------------------------------------------------
# Shared tour mutators (identical for both pass sets).

def _reverse_segment(
    order: np.ndarray, position: np.ndarray, pa: int, pc: int, direction: int
) -> None:
    """Reverse the tour segment that realizes the 2-opt reconnection.

    For ``direction == 1`` the move removes edges (a, succ a) and
    (c, succ c) and reverses the span succ(a)..c; for ``direction == -1``
    the mirrored move applies on predecessors.  The shorter side of the
    cycle is reversed to bound the cost.
    """
    n = order.size
    if direction == 1:
        i, j = (pa + 1) % n, pc
    else:
        i, j = pc, (pa - 1) % n
    # Length of the forward span i..j.
    span = (j - i) % n + 1
    if span > n // 2:
        # Reverse the complementary span instead (same resulting tour).
        i, j = (j + 1) % n, (i - 1) % n
        span = (j - i) % n + 1
    idx = (i + np.arange(span)) % n
    order[idx] = order[idx[::-1]]
    position[order[idx]] = idx


def _relocate_segment(
    order: np.ndarray,
    position: np.ndarray,
    ps: int,
    seg_len: int,
    after_city: int,
    reverse: bool,
) -> None:
    """Move the segment starting at tour position ``ps`` after ``after_city``."""
    n = order.size
    idx = (ps + np.arange(seg_len)) % n
    seg = order[idx].copy()
    if reverse:
        seg = seg[::-1]
    remaining = np.delete(order, idx)
    insert_at = int(np.flatnonzero(remaining == after_city)[0]) + 1
    new_order = np.concatenate(
        [remaining[:insert_at], seg, remaining[insert_at:]]
    )
    order[:] = new_order
    position[order] = np.arange(n)


# ----------------------------------------------------------------------
# Scalar candidate scans: the bit-exact oracle.

def two_opt_pass(
    order: np.ndarray,
    position: np.ndarray,
    neighbors: np.ndarray,
    dist: DistFn,
) -> bool:
    """One don't-look-bit sweep of neighbour-list 2-opt.  Mutates in place."""
    return _dont_look_pass(
        order,
        lambda a: _try_city_two_opt(a, order, position, neighbors, dist),
    )


def _try_city_two_opt(
    a: int,
    order: np.ndarray,
    position: np.ndarray,
    neighbors: np.ndarray,
    dist: DistFn,
) -> list[int]:
    """Try 2-opt moves around city ``a``; returns touched cities if improved."""
    n = order.size
    for direction in (1, -1):
        pa = position[a]
        b = int(order[(pa + direction) % n])
        d_ab = dist(a, b)
        for c in neighbors[a]:
            c = int(c)
            if c == b or c == a:
                continue
            d_ac = dist(a, c)
            if d_ac >= d_ab:
                break  # neighbours sorted: no closer candidate remains
            pc = position[c]
            d_city = int(order[(pc + direction) % n])
            if d_city == a:
                continue
            delta = d_ac + dist(b, d_city) - d_ab - dist(c, d_city)
            if delta < IMPROVE_EPS:
                _reverse_segment(order, position, pa, pc, direction)
                return [a, b, c, d_city]
    return []


def or_opt_pass(
    order: np.ndarray,
    position: np.ndarray,
    neighbors: np.ndarray,
    dist: DistFn,
    segment_lengths: tuple[int, ...] = (1, 2, 3),
) -> bool:
    """One sweep of Or-opt (relocate short segments).  Mutates in place."""
    n = order.size
    improved_any = False
    for seg_len in segment_lengths:
        if seg_len >= n - 2:
            continue
        for start_city in list(order):
            ps = position[start_city]
            idx = (ps + np.arange(seg_len)) % n
            seg = order[idx]
            prev_city = int(order[(ps - 1) % n])
            next_city = int(order[(ps + seg_len) % n])
            if prev_city in seg or next_city in seg:
                continue
            removed = (
                dist(prev_city, int(seg[0]))
                + dist(int(seg[-1]), next_city)
                - dist(prev_city, next_city)
            )
            if removed <= 1e-10:
                continue
            best = None
            for c in neighbors[int(seg[0])]:
                c = int(c)
                if c in seg or c == prev_city:
                    continue
                pc = position[c]
                d_city = int(order[(pc + 1) % n])
                if d_city in seg:
                    continue
                for head, tail in (
                    (int(seg[0]), int(seg[-1])),
                    (int(seg[-1]), int(seg[0])),
                ):
                    added = (
                        dist(c, head) + dist(tail, d_city) - dist(c, d_city)
                    )
                    delta = added - removed
                    if delta < IMPROVE_EPS and (best is None or delta < best[0]):
                        best = (delta, c, head != int(seg[0]))
            if best is None:
                continue
            _relocate_segment(order, position, ps, seg_len, best[1], best[2])
            improved_any = True
    return improved_any


# ----------------------------------------------------------------------
# Vectorized passes: per-city candidate evaluation.

def two_opt_pass_fast(
    order: np.ndarray,
    position: np.ndarray,
    neighbors: np.ndarray,
    cand_dists: np.ndarray,
    dist: DistFn,
    pair: PairFn,
) -> bool:
    """Vectorized twin of :func:`two_opt_pass` (bit-exact)."""
    return _dont_look_pass(
        order,
        lambda a: _try_city_two_opt_fast(
            a, order, position, neighbors, cand_dists, dist, pair
        ),
    )


def _try_city_two_opt_fast(
    a: int,
    order: np.ndarray,
    position: np.ndarray,
    neighbors: np.ndarray,
    cand_dists: np.ndarray,
    dist: DistFn,
    pair: PairFn,
) -> list[int]:
    n = order.size
    cand = neighbors[a]
    d_ac = cand_dists[a]
    for direction in (1, -1):
        pa = int(position[a])
        b = int(order[(pa + direction) % n])
        d_ab = dist(a, b)
        considered = (cand != b) & (cand != a)
        # Early-break limit: first *considered* candidate at least as
        # far as the current tour edge ends the scan; skipped ones
        # (c == b / c == a) never do — see module docstring.
        stops = np.flatnonzero(considered & (d_ac >= d_ab))
        live = considered.copy()
        if stops.size:
            live[int(stops[0]):] = False
        if not live.any():
            continue
        pc = position[cand]
        d_city = order[(pc + direction) % n]
        live &= d_city != a
        if not live.any():
            continue
        b_arr = np.full(cand.shape, b, dtype=cand.dtype)
        delta = d_ac + pair(b_arr, d_city) - d_ab - pair(cand, d_city)
        hits = np.flatnonzero(live & (delta < IMPROVE_EPS))
        if hits.size:
            j = int(hits[0])
            c = int(cand[j])
            _reverse_segment(order, position, pa, int(pc[j]), direction)
            return [a, b, c, int(d_city[j])]
    return []


def or_opt_pass_fast(
    order: np.ndarray,
    position: np.ndarray,
    neighbors: np.ndarray,
    dist: DistFn,
    pair: PairFn,
    segment_lengths: tuple[int, ...] = (1, 2, 3),
) -> bool:
    """Vectorized twin of :func:`or_opt_pass` (bit-exact).

    Per segment the (k, 2) delta table — candidates × (forward,
    reversed) — is scanned by flat argmin; row-major order makes its
    first-minimum winner coincide with the reference's strict-``<``
    scan over the same (candidate, orientation) loop nest.
    """
    n = order.size
    improved_any = False
    for seg_len in segment_lengths:
        if seg_len >= n - 2:
            continue
        for start_city in list(order):
            ps = int(position[start_city])
            idx = (ps + np.arange(seg_len)) % n
            seg = order[idx]
            prev_city = int(order[(ps - 1) % n])
            next_city = int(order[(ps + seg_len) % n])
            if prev_city in seg or next_city in seg:
                continue
            head, tail = int(seg[0]), int(seg[-1])
            removed = (
                dist(prev_city, head)
                + dist(tail, next_city)
                - dist(prev_city, next_city)
            )
            if removed <= 1e-10:
                continue
            cand = neighbors[head]
            pc = position[cand]
            d_city = order[(pc + 1) % n]
            live = (
                ~np.isin(cand, seg)
                & (cand != prev_city)
                & ~np.isin(d_city, seg)
            )
            if not live.any():
                continue
            head_arr = np.full(cand.shape, head, dtype=cand.dtype)
            tail_arr = np.full(cand.shape, tail, dtype=cand.dtype)
            d_cd = pair(cand, d_city)
            added_fwd = (
                pair(cand, head_arr) + pair(tail_arr, d_city) - d_cd
            )
            added_rev = (
                pair(cand, tail_arr) + pair(head_arr, d_city) - d_cd
            )
            delta = np.stack((added_fwd - removed, added_rev - removed), axis=1)
            delta[~live] = np.inf
            flat = int(np.argmin(delta))
            if delta.flat[flat] >= IMPROVE_EPS:
                continue
            j, orient = divmod(flat, 2)
            _relocate_segment(
                order, position, ps, seg_len, int(cand[j]), bool(orient)
            )
            improved_any = True
    return improved_any


# ----------------------------------------------------------------------
# Driver.

class NeighborLocalSearch:
    """2-opt + Or-opt restricted to candidate lists.

    :meth:`improve` runs the vectorized passes; :meth:`improve_reference`
    runs the scalar ones, and both return bit-identical tours.
    """

    def __init__(
        self,
        candidates: CandidateLists,
        use_or_opt: bool = True,
        max_rounds: int = 30,
    ) -> None:
        self.candidates = candidates
        self.use_or_opt = use_or_opt
        self.max_rounds = max_rounds
        self._dist, self._pair = make_dist_fns(candidates.instance)

    def improve(self, order: np.ndarray) -> np.ndarray:
        """Improve a closed tour until the move set is exhausted."""
        shared = dict(
            neighbors=self.candidates.neighbors, dist=self._dist, pair=self._pair
        )
        return self._descend(
            order,
            functools.partial(
                two_opt_pass_fast, cand_dists=self.candidates.distances, **shared
            ),
            functools.partial(or_opt_pass_fast, **shared),
        )

    def improve_reference(self, order: np.ndarray) -> np.ndarray:
        """:meth:`improve` through the scalar passes (its bit-exact oracle)."""
        shared = dict(neighbors=self.candidates.neighbors, dist=self._dist)
        return self._descend(
            order,
            functools.partial(two_opt_pass, **shared),
            functools.partial(or_opt_pass, **shared),
        )

    def _descend(
        self,
        order: np.ndarray,
        two_opt: Callable[[np.ndarray, np.ndarray], bool],
        or_opt: Callable[[np.ndarray, np.ndarray], bool],
    ) -> np.ndarray:
        """Alternate the two passes until a round improves nothing."""
        n = self.candidates.n
        order = np.asarray(order, dtype=int).copy()
        if sorted(order.tolist()) != list(range(n)):
            raise SolverError("neighbor local search needs a tour permutation")
        position = np.empty(n, dtype=int)
        position[order] = np.arange(n)
        for _ in range(self.max_rounds):
            improved = two_opt(order, position)
            if self.use_or_opt:
                improved |= or_opt(order, position)
            if not improved:
                break
        return order


def neighbor_local_search(
    instance: TSPInstance,
    order: np.ndarray,
    candidates: CandidateLists | None = None,
    k: int = 8,
    use_or_opt: bool = True,
    max_rounds: int = 30,
) -> np.ndarray:
    """Convenience wrapper: build lists if needed, improve, return tour."""
    if candidates is None:
        candidates = build_candidate_lists(instance, min(k, instance.n - 1))
    search = NeighborLocalSearch(
        candidates, use_or_opt=use_or_opt, max_rounds=max_rounds
    )
    return search.improve(order)


class NeighborKernelParity:
    """Bit-exactness harness: scalar vs vectorized passes on one input.

    ``check`` runs :meth:`NeighborLocalSearch.improve_reference` and
    :meth:`NeighborLocalSearch.improve` from one starting tour and
    reports whether every entry of the resulting permutations matches
    exactly (no tolerance).
    """

    def __init__(
        self,
        instance: TSPInstance,
        k: int = 8,
        use_or_opt: bool = True,
        max_rounds: int = 30,
    ) -> None:
        self.search = NeighborLocalSearch(
            build_candidate_lists(instance, min(k, instance.n - 1)),
            use_or_opt=use_or_opt,
            max_rounds=max_rounds,
        )

    def run(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.search.improve_reference(order), self.search.improve(order)

    def check(self, order: np.ndarray) -> bool:
        ref, fast = self.run(order)
        return bool(np.array_equal(ref, fast))
