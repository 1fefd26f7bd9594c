"""Vectorized hot-path kernels behind selectable backends.

TAXI's X-bar Ising macros evaluate every candidate move of a visiting
order in parallel; this package mirrors that algorithmically for the
software solvers.  Each hot path ships two implementations:

* ``reference`` — the original, loop-per-proposal semantics, kept
  bit-for-bit stable as the ground truth;
* ``fast`` — vectorized/batched evaluation (checkerboard spin classes,
  batched 2-opt delta blocks, bulk-RNG macro sweeps that pad the chunks
  of a whole hierarchy level, of any shapes, into one ragged batch)
  that is either bit-exact with the reference (2-opt SA) or validated
  against it at distribution level (spin annealing, macro batches).
  The macro sweeps run in C (:mod:`repro.kernels.compiled` builds
  ``_sweep.c`` with the system C compiler at first use), bit-identical
  to their NumPy loop, which runs when no compiler is available.  The
  same library holds Ward clustering's exact nearest-neighbour chain
  (``_ward.c``), bit-identical to the NumPy chain in
  :mod:`repro.clustering.agglomerative`.

``auto`` (the default everywhere a ``backend=`` knob exists) resolves
to ``fast``, and so does ``array``, the name of a former replica-batched
backend whose batching now lives in ``fast``.  Kernels that cannot
profit on a given input (dense coupling graphs, missing distance
matrix) silently degrade to the reference loop, so ``fast`` is never a
pessimisation cliff.

Usage::

    from repro.kernels import resolve_backend

    backend = resolve_backend("auto")   # -> "fast"
    backend = resolve_backend(None)     # -> "fast"
    backend = resolve_backend("array")  # -> "fast"
    backend = resolve_backend("nope")   # ConfigError
"""

from __future__ import annotations

from repro.errors import ConfigError

#: The loop-per-proposal ground-truth implementation.
BACKEND_REFERENCE = "reference"

#: The vectorized implementation (checkerboard / batched kernels).
BACKEND_FAST = "fast"

#: What ``auto`` (and ``None``) resolve to.
DEFAULT_BACKEND = BACKEND_FAST

#: Alias names and the backend each resolves to.
_ALIASES = {"auto": DEFAULT_BACKEND, "array": BACKEND_FAST}

#: Names a ``backend=`` knob accepts besides ``auto``: the two backends
#: plus the ``array`` alias.
BACKENDS = (BACKEND_REFERENCE, BACKEND_FAST, "array")


def resolve_backend(backend: str | None) -> str:
    """Resolve a backend knob value to a concrete backend name.

    ``None``, ``"auto"`` and ``"array"`` pick :data:`BACKEND_FAST`;
    anything not in :data:`BACKENDS` (or ``auto``) raises
    :class:`~repro.errors.ConfigError`.
    """
    if backend is None:
        return DEFAULT_BACKEND
    resolved = _ALIASES.get(backend, backend)
    if resolved not in (BACKEND_REFERENCE, BACKEND_FAST):
        raise ConfigError(
            f"unknown backend {backend!r}; known backends: "
            f"auto, {', '.join(BACKENDS)}"
        )
    return resolved


__all__ = [
    "BACKENDS",
    "BACKEND_FAST",
    "BACKEND_REFERENCE",
    "DEFAULT_BACKEND",
    "resolve_backend",
]
