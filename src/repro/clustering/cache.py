"""Distance-submatrix cache keyed by (instance, cluster).

The hierarchical pipeline repeatedly slices the instance metric:
endpoint fixing needs the cross-block between every consecutive
cluster pair (both of a pair's candidates, with and without the
entry/exit child-conflict rule, come from that one block), and
level-1 ordering needs each cluster's square submatrix.  On
large instances these slices are the dominant host-side cost after
clustering, and the near-memory reuse literature (Sundara Raman et
al.) shows exactly this kind of sub-problem data reuse dominating
end-to-end latency.

One :class:`SubmatrixCache` lives for the duration of a hierarchical
solve.  Callers key blocks by stable cluster identifiers (level, node),
so a block is sliced from the instance at most once per solve.

The cache also has a **size-budgeted coordinate-lazy mode**
(``budget_bytes``): blocks count against a byte budget and the least
recently used are dropped when it overflows.  Eviction is always safe —
every block is recomputable from the instance coordinates on demand —
so the budget turns the cache from an unbounded O(clusters x block²)
retainer into a bounded working set, which is what lets one solve of an
n=10^5 instance hold only the sub-blocks it is actively ordering.

The pipeline asks for a whole level's blocks at once
(:meth:`SubmatrixCache.submatrices`, :meth:`SubmatrixCache.cross_blocks`):
hits come from the store and the misses are computed in one padded
distance call per batch, with the per-block counters, read-only blocks,
budget and eviction of the one-key lookups.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.tsp.instance import TSPInstance

#: Above this many pairwise entries, cross-blocks are not materialized
#: (endpoint fixing falls back to the KD-tree path instead).
PAIR_BLOCK_LIMIT = 4096

#: Default byte budget applied by the pipeline's per-solve caches on
#: large instances (small solves retain everything; the budget only
#: matters once block volume could rival an n x n matrix).
DEFAULT_CACHE_BUDGET = 128 * 1024 * 1024


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
    """Memoized distance sub-blocks for one instance.

    Keys are caller-chosen hashables identifying a cluster (the
    pipeline uses ``(level, node)`` tuples); the cache never inspects
    them beyond hashing.  Returned arrays are shared and **read-only**:
    since every block is marked ``writeable=False`` at insertion, the
    contract is enforced, not advisory — an in-place write through a
    returned block raises ``ValueError`` instead of silently poisoning
    the cache for every later consumer.  Callers needing a mutable
    block must copy it.

    ``retain_cross_blocks=False`` skips memoizing the rectangular
    pair blocks: within one solve each cluster adjacency is requested
    once, so a per-solve cache would retain O(pairs x block) memory
    for zero reuse.  Caller-shared caches keep the default ``True`` so repeated
    solves over one hierarchy reuse the slices.

    ``budget_bytes`` bounds total retained bytes (LRU eviction; blocks
    larger than the whole budget are returned uncached).  ``None``
    retains everything, the historical behavior.
    """

    def __init__(
        self,
        instance: TSPInstance,
        retain_cross_blocks: bool = True,
        budget_bytes: int | None = None,
    ) -> None:
        self.instance = instance
        self.retain_cross_blocks = retain_cross_blocks
        self.budget_bytes = budget_bytes
        self._square: OrderedDict[object, np.ndarray] = OrderedDict()
        self._cross: OrderedDict[tuple[object, object], np.ndarray] = (
            OrderedDict()
        )
        self._held_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _get(self, store: OrderedDict, key: object) -> np.ndarray | None:
        block = store.get(key)
        if block is not None and self.budget_bytes is not None:
            store.move_to_end(key)
        return block

    def _put(self, store: OrderedDict, key: object, block: np.ndarray) -> None:
        budget = self.budget_bytes
        if budget is not None and block.nbytes > budget:
            return  # oversized for the whole budget: hand out uncached
        store[key] = block
        self._held_bytes += block.nbytes
        if budget is None:
            return
        while self._held_bytes > budget and len(self._square) + len(
            self._cross
        ) > 1:
            victim_store = self._lru_store()
            _key, victim = victim_store.popitem(last=False)
            self._held_bytes -= victim.nbytes
            self.evictions += 1

    def _lru_store(self) -> OrderedDict:
        """The store holding the globally least-recently-used block."""
        if not self._square:
            return self._cross
        if not self._cross:
            return self._square
        # Two stores, one LRU order: evict square blocks first.
        return self._square

    # ------------------------------------------------------------------
    def submatrix(self, key: object, indices: np.ndarray) -> np.ndarray:
        """Square pairwise block over ``indices``, memoized under ``key``."""
        return self.submatrices([key], [indices])[0]

    def submatrices(
        self, keys: Sequence[object], groups: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """:meth:`submatrix` for each ``(key, indices)`` pair, in order.

        The blocks missing from the store are computed in one padded
        distance call; callers bound the batch.  Lookups then run key
        by key, exactly as one-key calls would: a key evicted by an
        earlier key's insertion misses again and is computed alone.
        """
        store = self._square
        missing = [i for i, key in enumerate(keys) if key not in store]
        fresh: dict[int, np.ndarray] = {}
        if missing:
            ids, sizes = padded_ids([groups[i] for i in missing])
            stack = self.instance.distance_block(ids, ids)
            fresh = {
                i: stack[j, :size, :size]
                for j, (i, size) in enumerate(zip(missing, sizes.tolist()))
            }
        blocks = []
        for i, (key, indices) in enumerate(zip(keys, groups)):
            block = self._get(store, key)
            if block is not None:
                self.hits += 1
                blocks.append(block)
                continue
            self.misses += 1
            block = fresh.pop(i, None)
            if block is None:
                block = self.instance.distance_submatrix(indices)
            else:
                block = block.copy()
            block.setflags(write=False)
            self._put(store, key, block)
            blocks.append(block)
        return blocks

    def cross_block(
        self,
        key_a: object,
        indices_a: np.ndarray,
        key_b: object,
        indices_b: np.ndarray,
    ) -> np.ndarray:
        """Rectangular block ``(len(a), len(b))``, memoized per key pair."""
        key = (key_a, key_b)
        block = self._get(self._cross, key)
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
            self._put(self._cross, key, block)
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

    # ------------------------------------------------------------------
    @property
    def slices_computed(self) -> int:
        """How many blocks were actually sliced from the instance."""
        return self.misses

    @property
    def held_bytes(self) -> int:
        """Bytes currently retained across both stores."""
        return self._held_bytes

    def clear(self) -> None:
        self._square.clear()
        self._cross.clear()
        self._held_bytes = 0
