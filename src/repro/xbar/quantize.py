"""Distance-to-conductance quantization (paper eq. 4).

The paper reformulates each city-pair distance as

    W_D(A, B) = (D_min / D_{A-B}) * B_precision              (eq. 4)

so that *shorter* distances map to *larger* conductances (more current
-> preferred by the ArgMax stage).  With B bits of precision, W_D is an
integer level in [0, 2^B - 1]; the minimum distance saturates at full
scale.  The diagonal (the "infinity" entries of Fig 3b) maps to level 0
so a city never scores current for travelling to itself.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CrossbarError


def full_scale(bits: int) -> int:
    """The maximum quantization level 2^B - 1."""
    if bits < 1:
        raise CrossbarError(f"bit precision must be >= 1, got {bits}")
    return (1 << bits) - 1


def inverse_distance_levels(distances: np.ndarray, bits: int) -> np.ndarray:
    """Quantized inverse-distance levels W_D per eq. 4.

    Parameters
    ----------
    distances:
        Symmetric ``(n, n)`` distance matrix; the diagonal is ignored
        (treated as infinite distance, level 0).  A ``(..., n, n)``
        stack is quantized slice by slice, each with its own D_min.
    bits:
        Bit precision B; levels are integers in ``[0, 2^B - 1]``.

    Notes
    -----
    Zero off-diagonal distances (coincident cities) saturate at full
    scale, like D_min itself; so does every pair of a slice whose
    cities all coincide.
    """
    scale = full_scale(bits)
    dist = np.asarray(distances, dtype=float)
    if dist.ndim < 2 or dist.shape[-1] != dist.shape[-2]:
        raise CrossbarError(f"distances must be square, got shape {dist.shape}")
    n = dist.shape[-1]
    off_diag = ~np.eye(n, dtype=bool)
    positive = off_diag & (dist > 0)
    # Per-slice D_min; inf where every city of the slice coincides, so
    # that every off-diagonal ratio below saturates.
    d_min = np.where(positive, dist, np.inf).min(axis=(-2, -1), initial=np.inf)
    with np.errstate(divide="ignore"):
        ratio = np.where(
            dist > 0, d_min[..., None, None] / np.where(dist > 0, dist, 1.0), np.inf
        )
    levels = np.rint(np.clip(ratio, 0.0, 1.0) * scale).astype(np.int64)
    levels[off_diag & (dist == 0)] = scale  # coincident pairs saturate
    levels[..., ~off_diag] = 0
    return levels


def quantized_weight_matrix(distances: np.ndarray, bits: int) -> np.ndarray:
    """Normalized quantized weights in [0, 1]: ``levels / (2^B - 1)``.

    This is the value the analog MAC effectively computes with ideal
    bit-sliced partitions and 2^(b-1) current mirrors.
    """
    return inverse_distance_levels(distances, bits) / float(full_scale(bits))


def bit_slices(levels: np.ndarray, bits: int) -> np.ndarray:
    """Decompose integer levels into B binary partitions.

    Returns an ``(bits, n, n)`` uint8 array, index 0 = MSB (stored
    nearest the drivers in the paper to minimize wire-resistance impact
    on the most significant bits).  A ``(..., n, n)`` stack gives
    ``(..., bits, n, n)``.
    """
    levels = np.asarray(levels)
    scale = full_scale(bits)
    if levels.min(initial=0) < 0 or levels.max(initial=0) > scale:
        raise CrossbarError(
            f"levels must be in [0, {scale}] for {bits}-bit precision"
        )
    shifts = np.arange(bits - 1, -1, -1)  # MSB first
    return (
        (levels[..., None, :, :] >> shifts[:, None, None]) & 1
    ).astype(np.uint8)


def reconstruct_levels(slices: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bit_slices` (for round-trip testing)."""
    bits = slices.shape[0]
    weights = 1 << np.arange(bits - 1, -1, -1)
    return np.tensordot(weights, slices.astype(np.int64), axes=1)
