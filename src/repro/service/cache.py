"""Content-addressed LRU result cache with optional JSON persistence.

The serving analogue of the host-side
:class:`~repro.clustering.cache.SubmatrixCache` (PR 3): where that
cache reuses distance slices *within* a solve, this one reuses whole
solve results *across* requests.  Keys are the canonical fingerprints
of :mod:`repro.service.fingerprint`, so a hit is guaranteed to be
bit-identical to re-running the solve.

Values are plain JSON-safe dicts (tour order as a list, lengths and
timings as floats), which makes the on-disk format trivially
inspectable and diffable.  The cache stores and returns **private
copies** (:func:`_copy`: new dicts and lists, shared immutable
scalars): a caller mutating a dict it got from (or gave to) the cache
can never poison the stored entry — the same shared-mutable-state
defect fixed in ``SubmatrixCache``, enforced here by isolation rather
than by read-only flags.  Hit/miss/eviction counters are
first-class: the service surfaces them through ``GET /stats`` and the
bench's ``service`` grid reads them to report hit rates.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

logger = logging.getLogger(__name__)

#: On-disk schema tag; files with another tag are ignored at load so a
#: stale cache can never serve results from an incompatible recipe.
CACHE_SCHEMA = "repro-result-cache/1"

#: Side length of the occupancy grid behind the near-match signature.
SIGNATURE_GRID = 8


@dataclass(frozen=True)
class InstanceSignature:
    """Small locality signature of an instance's coordinate cloud.

    The signature is an ``8x8`` occupancy histogram of the coordinates
    after centering (translation invariance) and normalizing by the
    centered bounding box (scale invariance — a tour permutation is
    itself invariant under both).  Two signatures are comparable only
    when ``n`` and ``metric`` match exactly: a cached tour is only a
    valid warm start for an instance with the same city count.
    """

    n: int
    metric: str
    grid: tuple[float, ...]

    def similarity(self, other: "InstanceSignature") -> float:
        """Histogram overlap in ``[0, 1]``; ``1.0`` only for identical grids.

        Defined as ``1 - L1/2`` over the normalized occupancy vectors,
        which is symmetric and maximal at self-similarity.  Signatures
        for different ``n`` or ``metric`` never match (similarity 0).
        """
        if self.n != other.n or self.metric != other.metric:
            return 0.0
        a = np.asarray(self.grid)
        b = np.asarray(other.grid)
        return float(max(0.0, 1.0 - 0.5 * np.abs(a - b).sum()))


def instance_signature(instance) -> InstanceSignature | None:
    """Locality signature for a coordinate instance, else ``None``.

    Explicit-matrix instances have no coordinate cloud to compare, so
    they never participate in the near-match warm-start tier.
    """
    coords = getattr(instance, "coords", None)
    if coords is None:
        return None
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] == 0:
        return None
    centered = coords - coords.mean(axis=0)
    lo = centered.min(axis=0)
    span = centered.max(axis=0) - lo
    # Degenerate axes (all points colinear/identical) collapse to cell 0.
    span = np.where(span > 0, span, 1.0)
    cells = np.clip(
        ((centered - lo) / span * SIGNATURE_GRID).astype(int),
        0, SIGNATURE_GRID - 1,
    )
    flat = cells[:, 0] * SIGNATURE_GRID + (cells[:, 1] if coords.shape[1] > 1
                                           else 0)
    counts = np.bincount(flat, minlength=SIGNATURE_GRID * SIGNATURE_GRID)
    grid = counts / counts.sum()
    return InstanceSignature(
        n=int(coords.shape[0]),
        metric=str(getattr(instance, "metric", "euclidean")),
        grid=tuple(float(v) for v in grid),
    )


_CONTAINERS = frozenset({dict, list})


def _copy(value):
    """A private copy of a JSON-safe value: new dicts and lists, shared scalars.

    Cached values hold only dicts, lists and immutable scalars (they
    are persisted and served as JSON), so this isolates an entry as
    ``copy.deepcopy`` would, at a fraction of its cost on a long tour.
    """
    if isinstance(value, dict):
        return {key: _copy(inner) for key, inner in value.items()}
    if isinstance(value, list):
        if _CONTAINERS.isdisjoint(map(type, value)):
            return value.copy()  # a tour: scalars only, copied in C
        return [_copy(inner) for inner in value]
    return value


class ResultCache:
    """Thread-safe in-memory LRU of solve results, keyed by fingerprint.

    ``metrics`` (a :class:`~repro.service.metrics.ServiceMetrics`, or
    anything exposing ``cache_hits``/``cache_misses``/``cache_evictions``
    counters) mirrors the cache's own ledger into the service's metric
    registry, so ``GET /metrics`` reports the same numbers ``stats()``
    does; both are updated under the cache lock.
    """

    def __init__(self, capacity: int = 256, path: str | None = None,
                 metrics=None) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = path
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.load_errors = 0
        self._metrics = metrics
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._signatures: dict[str, InstanceSignature] = {}
        self._lock = threading.Lock()
        if path is not None and os.path.exists(path):
            self.load(path)

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> dict | None:
        """A private copy of the cached result, or ``None``; hits refresh recency."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                if self._metrics is not None:
                    self._metrics.cache_misses.inc()
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            if self._metrics is not None:
                self._metrics.cache_hits.inc()
            return _copy(entry)

    def put(self, fingerprint: str, value: dict,
            signature: InstanceSignature | None = None) -> None:
        """Insert (or refresh) one result, evicting LRU entries beyond capacity.

        ``signature`` (optional) registers the entry with the near-match
        warm-start tier; it lives only in memory (signatures are cheaply
        recomputable, so :meth:`load` does not restore them).
        """
        with self._lock:
            self._entries[fingerprint] = _copy(value)
            self._entries.move_to_end(fingerprint)
            if signature is not None:
                self._signatures[fingerprint] = signature
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._signatures.pop(evicted, None)
                self.evictions += 1
                if self._metrics is not None:
                    self._metrics.cache_evictions.inc()

    def find_similar(self, signature: InstanceSignature | None,
                     threshold: float = 0.9) -> tuple[str, dict] | None:
        """Best near-match ``(fingerprint, result)`` at or above ``threshold``.

        Used on a fingerprint *miss* to seed annealing from the tour of a
        geometrically similar instance.  The scan is deterministic: the
        highest similarity wins, ties broken by fingerprint ordering, so
        a given cache state always yields the same warm-start source.
        Does not count as a cache hit and does not refresh recency — the
        returned tour is a hint, not the requested result.
        """
        if signature is None:
            return None
        with self._lock:
            best: tuple[float, str] | None = None
            for fingerprint, candidate in self._signatures.items():
                score = signature.similarity(candidate)
                if score < threshold:
                    continue
                if best is None or (score, fingerprint) > best:
                    best = (score, fingerprint)
            if best is None:
                return None
            entry = self._entries.get(best[1])
            if entry is None:
                return None
            return best[1], _copy(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._signatures.clear()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot (what ``GET /stats`` and the bench report)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "load_errors": self.load_errors,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    # ------------------------------------------------------------------
    def save(self, path: str | None = None) -> str:
        """Write the cache as JSON (atomic rename); returns the path.

        The lock is held only for an O(entries) pointer snapshot —
        **never** during JSON serialization or disk I/O, so a drain-time
        save of a large cache cannot stall concurrent ``get``/``put``.
        The shallow snapshot is safe to serialize lock-free because
        stored values are immutable by construction: ``put`` stores a
        private copy and ``get`` hands out copies, so no
        caller can mutate a dict the snapshot references.
        """
        target = path if path is not None else self.path
        if target is None:
            raise ConfigError("no cache path configured; pass one to save()")
        snapshot = self._snapshot()
        return self._write_payload(snapshot, target)

    def _snapshot(self) -> dict:
        """Serializable payload referencing the live entries (lock held briefly)."""
        with self._lock:
            return {
                "schema": CACHE_SCHEMA,
                "entries": list(self._entries.items()),
            }

    @staticmethod
    def _write_payload(payload: dict, target: str) -> str:
        """Serialize + atomic-rename, entirely outside the cache lock."""
        parent = os.path.dirname(os.path.abspath(target))
        os.makedirs(parent, exist_ok=True)
        handle, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(payload, stream)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return target

    def load(self, path: str) -> int:
        """Merge entries persisted by :meth:`save`; returns entries loaded.

        Unreadable/foreign files never block serving (a cache is an
        optimization), but they are no longer silent: each one bumps
        ``load_errors`` (mirrored to ``repro_cache_load_errors_total``),
        logs a one-line warning, and is quarantined to
        ``<path>.corrupt`` so the evidence survives the next
        :meth:`save` instead of being overwritten.
        """
        try:
            with open(path) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            return 0
        except (OSError, ValueError) as exc:
            self._quarantine(path, f"unreadable: {exc}")
            return 0
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
            tag = payload.get("schema") if isinstance(payload, dict) else None
            self._quarantine(path, f"unknown schema {tag!r}")
            return 0
        entries = payload.get("entries", [])
        loaded = 0
        with self._lock:
            for item in entries:
                if not (isinstance(item, list) and len(item) == 2):
                    continue
                fingerprint, value = item
                if isinstance(fingerprint, str) and isinstance(value, dict):
                    self._entries[fingerprint] = value
                    loaded += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return loaded

    def _quarantine(self, path: str, reason: str) -> None:
        """Count, warn about, and sideline one bad persistence file."""
        with self._lock:
            self.load_errors += 1
            if self._metrics is not None:
                self._metrics.cache_load_errors.inc()
        target: str | None = path + ".corrupt"
        try:
            os.replace(path, target)
        except OSError:
            target = None
        logger.warning(
            "result cache file %s ignored (%s)%s", path, reason,
            f"; quarantined to {target}" if target else "",
        )
