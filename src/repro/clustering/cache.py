"""Cross-block cache keyed by (instance, cluster pair).

Endpoint fixing needs the distance block between every consecutive
cluster pair of a level (both of a pair's candidates, with and without
the entry/exit child-conflict rule, come from that one block).  On
large instances these slices are a leading host-side cost after
clustering, and the near-memory reuse literature (Sundara Raman et
al.) shows exactly this kind of sub-problem data reuse dominating
end-to-end latency.

One :class:`SubmatrixCache` lives for the duration of a hierarchical
solve.  Callers key blocks by stable cluster identifiers (level, node),
so a retained block is sliced from the instance at most once.  The
pipeline's per-solve cache retains nothing (each pair is asked for once
per replica); a caller solving one hierarchy repeatedly may share a
retaining cache.  The sub-problems' own square blocks never pass
through here: each wave task derives them from its clusters' points.

The pipeline asks for a whole level's blocks at once
(:meth:`SubmatrixCache.cross_blocks`): without retention they are one
padded distance call per batch.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.tsp.instance import TSPInstance

#: Above this many pairwise entries, cross-blocks are not materialized
#: (endpoint fixing falls back to the KD-tree path instead).
PAIR_BLOCK_LIMIT = 4096


def padded_ids(groups: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack index groups into one ``(P, width)`` array, plus their sizes.

    Row ``i`` holds ``groups[i]`` followed by repeats of its last id up
    to the widest group, so every padded entry is a valid city whose
    distances the caller masks.  Groups must be non-empty.
    """
    sizes = np.fromiter((len(g) for g in groups), dtype=np.intp, count=len(groups))
    flat = np.concatenate(groups).astype(int, copy=False)
    starts = np.cumsum(sizes) - sizes
    width = np.arange(sizes.max())
    return flat[starts[:, None] + np.minimum(width, sizes[:, None] - 1)], sizes


class SubmatrixCache:
    """Memoized cross-blocks between clusters of one instance.

    Keys are caller-chosen hashables identifying a cluster (the
    pipeline uses ``(level, node)`` tuples); the cache never inspects
    them beyond hashing.  Returned arrays are shared and **read-only**:
    since every block is marked ``writeable=False``, the contract is
    enforced, not advisory — an in-place write through a returned
    block raises ``ValueError`` instead of silently poisoning the cache
    for every later consumer.  Callers needing a mutable block must
    copy it.

    ``retain_cross_blocks=False`` skips memoizing: within one solve
    each cluster adjacency is requested once, so a per-solve cache
    would retain O(pairs x block) memory for zero reuse.
    Caller-shared caches keep the default ``True`` so repeated solves
    over one hierarchy reuse the slices.  A retained block is never
    evicted, so ``evictions`` stays 0; it is counted beside ``hits``
    and ``misses`` for their readers.
    """

    evictions = 0

    def __init__(
        self, instance: TSPInstance, retain_cross_blocks: bool = True
    ) -> None:
        self.instance = instance
        self.retain_cross_blocks = retain_cross_blocks
        self._cross: dict[tuple[object, object], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def cross_block(
        self,
        key_a: object,
        indices_a: np.ndarray,
        key_b: object,
        indices_b: np.ndarray,
    ) -> np.ndarray:
        """Rectangular block ``(len(a), len(b))``, memoized per key pair."""
        key = (key_a, key_b)
        block = self._cross.get(key)
        if block is not None:
            self.hits += 1
            return block
        self.misses += 1
        block = self.instance.distance_block(
            np.asarray(indices_a, dtype=int), np.asarray(indices_b, dtype=int)
        )
        # Non-retained blocks are frozen too: the read-only contract is
        # uniform, so callers cannot depend on mutability that silently
        # disappears when a shared cache replaces a per-solve one.
        block.setflags(write=False)
        if self.retain_cross_blocks:
            self._cross[key] = block
        return block

    def cross_blocks(
        self,
        keys_a: Sequence[object],
        groups_a: Sequence[np.ndarray],
        keys_b: Sequence[object],
        groups_b: Sequence[np.ndarray],
    ) -> np.ndarray:
        """:meth:`cross_block` of each pair, as one padded stack.

        Returns ``(P, max |a|, max |b|)``, read-only: pair ``i``'s block
        at the start of slice ``i``, ``+inf`` beyond it, so an argmin
        over a slice keeps the block's own row-major tie order.  Without
        retention every pair is a miss and the stack is one padded
        distance call; a retaining cache looks each pair up in turn.
        """
        rows, row_sizes = padded_ids(groups_a)
        cols, col_sizes = padded_ids(groups_b)
        pad = (np.arange(rows.shape[1]) >= row_sizes[:, None])[:, :, None] | (
            np.arange(cols.shape[1]) >= col_sizes[:, None]
        )[:, None, :]
        if self.retain_cross_blocks:
            stack = np.full(pad.shape, np.inf)
            for i, pair in enumerate(zip(keys_a, groups_a, keys_b, groups_b)):
                stack[i, : row_sizes[i], : col_sizes[i]] = self.cross_block(*pair)
        else:
            self.misses += len(keys_a)
            stack = self.instance.distance_block(rows, cols)
            stack[pad] = np.inf
        stack.setflags(write=False)
        return stack

    @property
    def slices_computed(self) -> int:
        """How many blocks were actually sliced from the instance."""
        return self.misses

    def clear(self) -> None:
        self._cross.clear()
