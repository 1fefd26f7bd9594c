"""Shared-memory instance arena: content-addressed, zero-copy placement.

The reuse-aware near-memory Ising studies make data-movement avoidance
the central architectural lever; the serving-layer analogue is this
arena.  Instead of every worker process re-materializing an instance
and recomputing its O(n^2) distance matrix (or, for inline instances,
re-unpickling coordinate arrays per task), the dispatching process
**publishes** the instance's coordinate and distance arrays into
:mod:`multiprocessing.shared_memory` once, keyed by a content digest,
and tasks ship a tiny picklable :class:`ArenaRef` instead of array
payloads.  Workers **attach** the named blocks read-only — one physical
copy system-wide, however many processes solve against it.

Contracts:

* **content-addressed** — publishing the same geometry twice returns
  the same blocks (the digest recipe is shared with
  :func:`repro.service.fingerprint.instance_digest`, which delegates
  here, so arena keys and solve fingerprints can never disagree about
  instance identity);
* **read-only attachment** — every array handed out (owner side
  included) has ``writeable=False``; the annealing kernels never
  mutate instance geometry, and this makes that a hard error instead
  of a convention;
* **deterministic** — an attached instance is built from the exact
  bytes the owner published, so solves against arena-backed specs are
  bit-identical to solves against locally materialized instances
  (asserted in tests);
* **owner-managed lifetime** — the publishing process unlinks its
  blocks on :meth:`InstanceArena.close`; attaching processes
  deliberately unregister from the ``resource_tracker`` so a worker
  exiting can never destroy a block other processes still map
  (CPython registers on *attach* too, which would otherwise tear the
  arena down with the first recycled pool worker);
* **orphans are reclaimed** — an owner killed with SIGKILL never
  unlinks, and its forked workers' unregister dropped the tracker's
  record of its blocks.  Every block's name carries its owner's pid
  (``repro_<pid>_<random>``), and each new arena unlinks the blocks of
  owners that are gone (:func:`sweep_orphans`): a restarted service or
  a respawned shard reclaims what its dead predecessor left.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ConfigError
from repro.tsp.instance import EdgeWeightType, TSPInstance

#: Instances above this size never get their full matrix published
#: (memory, not CPU, binds there) — coordinates still are.
MATRIX_SHARE_LIMIT = 4096

#: Name prefix of every published block; the owner's pid follows it.
BLOCK_PREFIX = "repro_"

#: Where POSIX shared-memory blocks appear as files (Linux).
SHM_DIR = "/dev/shm"


def content_key(instance: TSPInstance) -> str:
    """Content hash of the instance geometry (name-independent).

    Two instances with identical coordinates and metric share a key
    whatever they are called.  This is the canonical geometry-digest
    recipe for the whole repo: the service fingerprint layer delegates
    to it, so arena blocks and result-cache keys agree by construction.
    """
    digest = hashlib.sha256()
    digest.update(instance.metric.value.encode())
    if instance.metric is EdgeWeightType.EXPLICIT:
        matrix = np.ascontiguousarray(instance.matrix, dtype="<f8")
        digest.update(str(matrix.shape).encode())
        digest.update(matrix.tobytes())
    else:
        coords = np.ascontiguousarray(instance.coords, dtype="<f8")
        digest.update(str(coords.shape).encode())
        digest.update(coords.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ArenaBlock:
    """Picklable name-plus-layout handle of one shared array."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class ArenaRef:
    """Picklable handle of one published instance (ships with tasks).

    A few hundred bytes however large the instance: the arrays stay in
    shared memory, named by their blocks.  ``neighbors`` /
    ``neighbor_dists`` (published together, k-NN width ``neighbor_k``)
    are the sparse-mode payload: O(n·k) candidate lists shared across
    workers in place of an O(n²) matrix.
    """

    key: str
    instance_name: str
    metric: str
    n: int
    coords: ArenaBlock | None = None
    matrix: ArenaBlock | None = None
    neighbors: ArenaBlock | None = None
    neighbor_dists: ArenaBlock | None = None
    neighbor_k: int = 0

    @property
    def nbytes(self) -> int:
        total = 0
        for block in (self.coords, self.matrix, self.neighbors,
                      self.neighbor_dists):
            if block is not None:
                total += block.nbytes
        return total


#: Same-process fast path: arrays published by an arena in *this*
#: process (or inherited over fork, where the mmap itself is shared)
#: are served directly instead of re-attaching the named block.
_LOCAL: dict[str, tuple[TSPInstance, np.ndarray | None]] = {}

#: Per-process attach cache: key -> (blocks kept alive, instance,
#: matrix).  The SharedMemory objects must stay referenced for as long
#: as any array view onto their buffers lives.
_ATTACHED: dict[str, tuple[tuple[shared_memory.SharedMemory, ...],
                           TSPInstance, np.ndarray | None]] = {}

#: Candidate-list twins of _LOCAL/_ATTACHED, keyed by content key.
#: Values are CandidateLists artifacts whose arrays live in the shared
#: blocks (attach side additionally keeps the SharedMemory handles).
_LOCAL_CANDIDATES: dict[str, object] = {}
_ATTACHED_CANDIDATES: dict[str, tuple[tuple[shared_memory.SharedMemory, ...],
                                      object]] = {}


def _publish_array(array: np.ndarray) -> tuple[ArenaBlock,
                                               shared_memory.SharedMemory,
                                               np.ndarray]:
    """Copy one array into a fresh shared block; return a readonly view.

    The source dtype is preserved (coordinate/matrix blocks are float64
    already; candidate-index blocks stay int32, half the bytes).
    """
    data = np.ascontiguousarray(array)
    while True:
        name = f"{BLOCK_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, data.nbytes)
            )
            break
        except FileExistsError:  # pragma: no cover - 32-bit name clash
            continue
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
    view[...] = data
    view.flags.writeable = False
    return ArenaBlock(name=shm.name, shape=tuple(data.shape),
                      dtype=data.dtype.str), shm, view


def _attach_array(block: ArenaBlock) -> tuple[shared_memory.SharedMemory,
                                              np.ndarray]:
    """Map one named block read-only in this process.

    CPython's :class:`SharedMemory` registers the segment with the
    ``resource_tracker`` on attach as well as on create; without the
    unregister below, the first attaching process to exit would unlink
    the block out from under everyone else (including the owner).
    """
    shm = shared_memory.SharedMemory(name=block.name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    view = np.ndarray(tuple(block.shape), dtype=np.dtype(block.dtype),
                      buffer=shm.buf)
    view.flags.writeable = False
    return shm, view


def _build_instance(ref: ArenaRef, coords: np.ndarray | None,
                    matrix: np.ndarray | None) -> TSPInstance:
    metric = EdgeWeightType(ref.metric)
    if metric is EdgeWeightType.EXPLICIT:
        if matrix is None:
            raise ConfigError(
                f"arena ref {ref.key[:16]} is EXPLICIT but carries no "
                "matrix block"
            )
        return TSPInstance(ref.instance_name, coords, metric, matrix=matrix)
    if coords is None:
        raise ConfigError(
            f"arena ref {ref.key[:16]} ({ref.metric}) carries no "
            "coordinate block"
        )
    return TSPInstance(ref.instance_name, coords, metric)


def attach_shared_instance(
    ref: ArenaRef,
) -> tuple[TSPInstance, np.ndarray | None]:
    """Materialize an arena-backed instance in this process (memoized).

    Returns ``(instance, matrix)`` where ``matrix`` is the shared full
    distance matrix when the owner published one (``None`` otherwise).
    Both are read-only views onto the shared blocks — no copies.
    """
    local = _LOCAL.get(ref.key)
    if local is not None:
        return local
    cached = _ATTACHED.get(ref.key)
    if cached is not None:
        return cached[1], cached[2]
    blocks: list[shared_memory.SharedMemory] = []
    coords = matrix = None
    if ref.coords is not None:
        shm, coords = _attach_array(ref.coords)
        blocks.append(shm)
    if ref.matrix is not None:
        shm, matrix = _attach_array(ref.matrix)
        blocks.append(shm)
    instance = _build_instance(ref, coords, matrix)
    _ATTACHED[ref.key] = (tuple(blocks), instance, matrix)
    return instance, matrix


def attach_shared_candidates(ref: ArenaRef):
    """Materialize an arena-backed candidate-list artifact (memoized).

    Returns a :class:`~repro.tsp.neighbors.CandidateLists` whose arrays
    are read-only views onto the shared blocks, or ``None`` when the
    ref was published without candidates.
    """
    if ref.neighbors is None or ref.neighbor_dists is None:
        return None
    local = _LOCAL_CANDIDATES.get(ref.key)
    if local is not None:
        return local
    cached = _ATTACHED_CANDIDATES.get(ref.key)
    if cached is not None:
        return cached[1]
    from repro.tsp.neighbors import CandidateLists

    instance, _matrix = attach_shared_instance(ref)
    shm_nb, neighbors = _attach_array(ref.neighbors)
    shm_nd, distances = _attach_array(ref.neighbor_dists)
    lists = CandidateLists(
        instance=instance, neighbors=neighbors, distances=distances
    )
    _ATTACHED_CANDIDATES[ref.key] = ((shm_nb, shm_nd), lists)
    return lists


def sweep_orphans() -> None:
    """Unlink the blocks of arena owners that are gone.

    A block's owner is the pid in its name.  Only owners in this
    process's pid namespace are told apart, as processes of one host
    or container are.  Where blocks are not files under
    :data:`SHM_DIR`, nothing can be listed and nothing is swept.
    """
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return
    for name in names:
        owner = name[len(BLOCK_PREFIX):].split("_", 1)[0]
        if name.startswith(BLOCK_PREFIX) and owner.isdigit() and not _alive(int(owner)):
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:  # another sweeper won the race
                pass


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # someone else's live process
        return True
    return True


def clear_attachments() -> None:
    """Drop this process's attach cache (tests, memory reclamation)."""
    for blocks, _instance, _matrix in _ATTACHED.values():
        for shm in blocks:
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
    _ATTACHED.clear()
    for blocks, _lists in _ATTACHED_CANDIDATES.values():
        for shm in blocks:
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
    _ATTACHED_CANDIDATES.clear()


class InstanceArena:
    """The owner-side registry of published instances.

    One arena per serving process (each shard owns its own); thread
    safe because the service dispatcher publishes from concurrent group
    runners.  ``close()`` unlinks every block — attached processes keep
    their mappings (POSIX semantics) but no new attach can succeed.
    A new arena first reclaims the blocks of dead owners
    (:func:`sweep_orphans`).
    """

    def __init__(self) -> None:
        sweep_orphans()
        self._lock = threading.Lock()
        self._refs: dict[str, ArenaRef] = {}
        self._blocks: list[shared_memory.SharedMemory] = []
        self._owner_pid = os.getpid()
        self.publishes = 0

    # ------------------------------------------------------------------
    def publish(
        self,
        instance: TSPInstance,
        with_matrix: bool = False,
        key: str | None = None,
        with_candidates: int = 0,
    ) -> ArenaRef:
        """Place one instance's arrays in shared memory (idempotent).

        ``with_matrix=True`` additionally publishes the full distance
        matrix (bounded by :data:`MATRIX_SHARE_LIMIT`) so full-matrix
        solvers skip the per-process O(n^2) rebuild.
        ``with_candidates=k`` (k > 0) additionally publishes the k-NN
        :class:`~repro.tsp.neighbors.CandidateLists` arrays — the
        sparse-mode sharing path, O(n·k) bytes at any instance size.
        Re-publishing the same content upgrades an entry in place when
        a matrix or (wider) candidate lists are newly requested.
        """
        if key is None:
            key = content_key(instance)
        if (instance.metric is EdgeWeightType.EXPLICIT
                and instance.n > MATRIX_SHARE_LIMIT):
            raise ConfigError(
                f"explicit matrix of n={instance.n} exceeds the arena "
                f"share limit ({MATRIX_SHARE_LIMIT})"
            )
        want_matrix = (
            with_matrix
            and instance.metric is not EdgeWeightType.EXPLICIT
            and instance.n <= MATRIX_SHARE_LIMIT
        )
        want_k = min(int(with_candidates), instance.n - 1) if with_candidates else 0
        with self._lock:
            existing = self._refs.get(key)
            need_matrix = want_matrix and (
                existing is None or existing.matrix is None
            )
            need_candidates = want_k > 0 and (
                existing is None
                or existing.neighbors is None
                or existing.neighbor_k < want_k
            )
            if existing is not None and not need_matrix and not need_candidates:
                return existing
            local = _LOCAL.get(key)
            shared_matrix = None
            if instance.metric is EdgeWeightType.EXPLICIT:
                coords_block = coords_view = None
                if existing is None or existing.matrix is None:
                    matrix_block, shm, matrix_view = _publish_array(
                        instance.matrix
                    )
                    self._blocks.append(shm)
                else:  # candidate upgrade: matrix block already published
                    matrix_block = existing.matrix
                    matrix_view = (
                        local[1] if local is not None else instance.matrix
                    )
                shared_matrix = matrix_view
            else:
                matrix_view = None
                coords_block = existing.coords if existing is not None else None
                if coords_block is None:
                    coords_block, shm, coords_view = _publish_array(
                        instance.coords
                    )
                    self._blocks.append(shm)
                else:  # upgrade: coords block already published
                    coords_view = (
                        local[0].coords
                        if local is not None else instance.coords
                    )
                matrix_block = existing.matrix if existing is not None else None
                if matrix_block is not None and local is not None:
                    shared_matrix = local[1]
                if need_matrix:
                    matrix_block, shm, shared_matrix = _publish_array(
                        instance.distance_matrix()
                    )
                    self._blocks.append(shm)
            neighbors_block = (
                existing.neighbors if existing is not None else None
            )
            dists_block = (
                existing.neighbor_dists if existing is not None else None
            )
            neighbor_k = existing.neighbor_k if existing is not None else 0
            shared_lists = None
            if need_candidates:
                from repro.tsp.neighbors import build_candidate_lists

                lists = build_candidate_lists(instance, want_k)
                neighbors_block, shm, neighbors_view = _publish_array(
                    lists.neighbors
                )
                self._blocks.append(shm)
                dists_block, shm, dists_view = _publish_array(lists.distances)
                self._blocks.append(shm)
                neighbor_k = lists.k
                shared_lists = (neighbors_view, dists_view)
            ref = ArenaRef(
                key=key, instance_name=instance.name,
                metric=instance.metric.value, n=instance.n,
                coords=coords_block, matrix=matrix_block,
                neighbors=neighbors_block, neighbor_dists=dists_block,
                neighbor_k=neighbor_k,
            )
            local_instance = _build_instance(ref, coords_view, matrix_view)
            self._refs[key] = ref
            self.publishes += 1
            # Same-process resolves (and fork-inherited workers) read
            # the shm-backed arrays directly — the owner shares the one
            # physical copy too.
            _LOCAL[key] = (local_instance, shared_matrix)
            if shared_lists is not None:
                from repro.tsp.neighbors import CandidateLists

                _LOCAL_CANDIDATES[key] = CandidateLists(
                    instance=local_instance,
                    neighbors=shared_lists[0],
                    distances=shared_lists[1],
                )
            return ref

    def get(self, key: str) -> ArenaRef | None:
        with self._lock:
            return self._refs.get(key)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "instances": len(self._refs),
                "blocks": len(self._blocks),
                "bytes": sum(ref.nbytes for ref in self._refs.values()),
                "publishes": self.publishes,
            }

    def close(self) -> None:
        """Unlink every published block (owner shutdown path)."""
        with self._lock:
            blocks, self._blocks = self._blocks, []
            refs, self._refs = dict(self._refs), {}
        for key in refs:
            _LOCAL.pop(key, None)
            _LOCAL_CANDIDATES.pop(key, None)
        for shm in blocks:
            # Child processes share this process's resource tracker, so
            # their attach-side unregister may have already dropped the
            # owner registration; re-adding it (idempotent) keeps the
            # unregister inside unlink() from tripping a tracker error.
            try:
                resource_tracker.register(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals vary
                pass
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "InstanceArena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
