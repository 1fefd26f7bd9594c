"""The compiled kernels: build ``_sweep.c`` and ``_ward.c`` at first use, call them.

Two C sources ship beside this module: the macro anneal sweep
(:func:`anneal`) and the exact Ward nearest-neighbour chain with its
dendrogram cut (:func:`ward`).  The first call that asks for either
compiles both with the system C compiler (``$CC``, default ``cc``) into
one library, ``__pycache__/_kernels.<digest>.so`` next to Python's own
bytecode, and loads it through :mod:`ctypes`.  The digest covers the
sources, the flags and the machine, so an edited source builds afresh.
Spawned workers may build at the same time: each compiles to its own
temp file and moves it into place with :func:`os.replace`.

Without a compiler, or when the build or the load fails, :func:`load`
returns no library and the reason, and the callers run their NumPy
code.  The outcome is decided once per process.  Which path ran never
changes a result: the C code is bit-identical to the NumPy code (see
``docs/backends.md``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
import threading
from contextlib import ExitStack
from pathlib import Path
from typing import Sequence

import numpy as np

SOURCES = (Path(__file__).with_name("_sweep.c"), Path(__file__).with_name("_ward.c"))

#: Where built libraries go (tests point it elsewhere).
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: Exact IEEE double arithmetic: no FMA contraction, and never
#: ``-ffast-math`` or ``-march=native``.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Seconds a build may take before the NumPy code is used instead.
BUILD_TIMEOUT_S = 120

#: Largest coordinate magnitude :func:`ward` takes: below it no square,
#: weight product or merged centroid can overflow.  Beyond it the NumPy
#: chain runs, whose inf and NaN ties follow NumPy's own semantics.
WARD_COORD_LIMIT = 1e100

_lock = threading.Lock()
#: ``(library or None, "compiled" or the reason it is missing)``, once
#: decided for this process.
_loaded: tuple[ctypes.CDLL | None, str] | None = None


def load() -> tuple[ctypes.CDLL | None, str]:
    """The compiled kernel library, building it on first use.

    Returns ``(library, "compiled")``, or ``(None, reason)`` when the
    NumPy code must run instead.
    """
    global _loaded
    with _lock:
        if _loaded is None:
            _loaded = _build_and_load()
        return _loaded


def _build_and_load() -> tuple[ctypes.CDLL | None, str]:
    sources = []
    for source in SOURCES:
        try:
            sources.append(source.read_bytes())
        except OSError:
            return None, f"no C source ({source.name})"
    key = b"\0".join([*sources, " ".join(CFLAGS).encode(), platform.machine().encode()])
    target = CACHE_DIR / f"_kernels.{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not target.exists():
        failure = _build(target)
        if failure is not None:
            return None, failure
    try:
        library = ctypes.CDLL(str(target))
    except OSError as exc:
        return None, f"load failed: {exc}"
    _declare(library)
    return library, "compiled"


def _build(target: Path) -> str | None:
    """Compile :data:`SOURCES` into ``target``; the failure reason, if any."""
    compiler = shlex.split(os.environ.get("CC") or "cc")
    if shutil.which(compiler[0]) is None:
        return "no C compiler"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=target.parent)
    except OSError as exc:
        return f"cache not writable: {exc}"
    os.close(fd)
    try:
        done = subprocess.run(
            [*compiler, *CFLAGS, "-o", temp, *map(str, SOURCES), "-lm"],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            return "build failed: " + (
                lines[0] if lines else f"{compiler[0]} exited with status {done.returncode}"
            )
        os.replace(temp, target)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"build failed: {exc}"
    finally:
        if os.path.exists(temp):
            os.unlink(temp)
    return None


def _declare(library: ctypes.CDLL) -> None:
    """Argument and result types of the C entry points.

    ``anneal_sweeps`` checks each array's dtype and layout per call.
    ``ward_chain`` takes raw pointers: :func:`ward` converts or
    allocates every array it passes, and the checks cost more than the
    C chain on the many tiny re-split problems.
    """

    def array(dtype, *flags):
        return np.ctypeslib.ndpointer(dtype, flags=("C_CONTIGUOUS", *flags))

    f64, i64 = array(np.float64), array(np.int64)
    f64_out, i64_out = array(np.float64, "WRITEABLE"), array(np.int64, "WRITEABLE")
    pointers = ctypes.POINTER(ctypes.c_void_p)
    size = ctypes.c_int64
    library.anneal_sweeps.argtypes = [
        size, size, f64, i64_out, i64_out, array(np.bool_), f64_out,
        i64, i64, size, i64, i64, size, i64, pointers, pointers, f64, size,
        ctypes.c_int, ctypes.c_double, ctypes.c_int,
        f64_out, f64_out, f64_out,
    ]
    library.anneal_sweeps.restype = ctypes.c_int64
    pointer = ctypes.c_void_p
    library.ward_chain.argtypes = [
        size, size, pointer, size, pointer, pointer, pointer, pointer, pointer,
    ]
    library.ward_chain.restype = ctypes.c_int64


def anneal(
    library: ctypes.CDLL,
    batch,
    probabilities: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> int:
    """Every sweep of ``batch`` (a ``macro._Batch``) in one C call.

    Chunk ``c`` of the batch draws from ``rngs[c]``.  The call holds
    each distinct bit generator's lock throughout, since ``ctypes``
    releases the interpreter lock while the C code draws.  Returns the
    sweeps run.
    """
    m, n = batch.order.shape
    steps = batch.tables.shape[1]
    # The C code indexes rows with these: out-of-range entries would
    # read or write outside the arrays instead of raising.
    for index in (batch.order, batch.pos_of, batch.tables):
        if index.size and not (index.min() >= 0 and index.max() < n):
            raise ValueError("macro kernel positions or cities out of range")
    bitgens = [rngs[c].bit_generator for c in batch.rank]
    lanes = np.array(
        [
            (lane.start, lane.stop - lane.start, k, s)
            for lane, k, s in zip(batch.lanes, batch.sizes, batch.steps)
        ],
        dtype=np.int64,
    )
    states = (ctypes.c_void_p * len(bitgens))(
        *(g.ctypes.state_address for g in bitgens)
    )
    draws = (ctypes.c_void_p * len(bitgens))(
        *(ctypes.cast(g.ctypes.next_double, ctypes.c_void_p).value for g in bitgens)
    )
    probabilities = np.ascontiguousarray(probabilities, dtype=np.float64)
    with ExitStack() as held:
        # Distinct locks, in one global order: no two calls deadlock.
        for lock in sorted({id(g.lock): g.lock for g in bitgens}.values(), key=id):
            held.enter_context(lock)
        return library.anneal_sweeps(
            m, n, batch.weights, batch.order, batch.pos_of, batch.allowed,
            batch.proxy, batch.sum_width, batch.last, steps, batch.active,
            batch.tables, len(bitgens), lanes, states, draws,
            probabilities, probabilities.size,
            batch.closed, batch.resolution, batch.guarded,
            np.zeros((steps, m, n)), np.zeros((steps, m, n)), np.zeros((steps, m)),
        )


def ward(
    library: ctypes.CDLL, points: np.ndarray, n_clusters: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The exact Ward NN-chain over ``points`` ``(n, d)`` in one C call.

    Returns the merges in chain order as arrays ``(slot_a, slot_b,
    heights, sizes)`` (see ``agglomerative._nn_chain_merges``) and, for
    ``1 <= n_clusters <= n``, the labels of the dendrogram cut into
    ``n_clusters`` groups (else ``None``).  Returns ``None`` instead
    when the NumPy chain must run: a coordinate beyond
    :data:`WARD_COORD_LIMIT`, or an error in the C code.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, d = points.shape
    if n < 1 or d < 1 or not np.abs(points).max() <= WARD_COORD_LIMIT:
        return None
    cut = 1 <= n_clusters <= n
    merge_a, merge_b, sizes = (np.empty(n - 1, dtype=np.int64) for _ in range(3))
    heights = np.empty(n - 1)
    labels = np.empty(n if cut else 0, dtype=np.int64)
    status = library.ward_chain(
        n, d, points.ctypes.data, n_clusters if cut else 0,
        *(array.ctypes.data for array in (merge_a, merge_b, heights, sizes, labels)),
    )
    if status != 0:
        return None
    return merge_a, merge_b, heights, sizes, labels if cut else None
