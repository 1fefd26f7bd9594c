"""TSP instances and TSPLIB edge-weight metrics.

A :class:`TSPInstance` holds either 2-D node coordinates with a metric
(EUC_2D, CEIL_2D, ATT, GEO, MAX_2D, MAN_2D) or an explicit distance
matrix.  Distances follow the TSPLIB95 specification, including the
integer rounding conventions, because the paper benchmarks on TSPLIB
instances whose published optima assume those conventions.

Large instances (the paper goes to 85,900 cities) cannot materialize a
full distance matrix, so the class also exposes row-wise and sub-matrix
distance computation that solvers use instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InstanceError

# TSPLIB's GEO metric constants (see Reinelt, TSPLIB95 documentation).
_GEO_PI = 3.141592
_GEO_RRR = 6378.388

# Above this size, TSPInstance.distance_matrix() refuses to allocate the
# full n x n array (it would be > ~1.8 GB of float64 at 15k nodes).
_FULL_MATRIX_LIMIT = 15_000


class EdgeWeightType(enum.Enum):
    """Supported TSPLIB EDGE_WEIGHT_TYPE values."""

    EUC_2D = "EUC_2D"
    CEIL_2D = "CEIL_2D"
    MAX_2D = "MAX_2D"
    MAN_2D = "MAN_2D"
    ATT = "ATT"
    GEO = "GEO"
    EXPLICIT = "EXPLICIT"

    @classmethod
    def from_string(cls, text: str) -> "EdgeWeightType":
        try:
            return cls(text.strip().upper())
        except ValueError as exc:
            supported = ", ".join(member.value for member in cls)
            raise InstanceError(
                f"unsupported EDGE_WEIGHT_TYPE {text!r}; supported: {supported}"
            ) from exc


def _geo_radians(coords: np.ndarray) -> np.ndarray:
    """Convert TSPLIB DDD.MM coordinates to radians (TSPLIB95 convention)."""
    degrees = np.trunc(coords)
    minutes = coords - degrees
    return _GEO_PI * (degrees + 5.0 * minutes / 3.0) / 180.0


@dataclass
class TSPInstance:
    """A symmetric TSP instance.

    Parameters
    ----------
    name:
        Instance identifier (TSPLIB ``NAME`` field).
    coords:
        ``(n, 2)`` array of node coordinates, or ``None`` for EXPLICIT
        instances.
    metric:
        The TSPLIB edge-weight metric.
    matrix:
        Explicit ``(n, n)`` distance matrix; required iff ``metric`` is
        :attr:`EdgeWeightType.EXPLICIT`.
    comment:
        Free-text comment carried through TSPLIB round trips.
    best_known:
        Best-known (or exact) tour length when available; used by the
        analysis layer to compute optimal ratios.
    """

    name: str
    coords: np.ndarray | None
    metric: EdgeWeightType = EdgeWeightType.EUC_2D
    matrix: np.ndarray | None = None
    comment: str = ""
    best_known: float | None = None
    _geo_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.metric is EdgeWeightType.EXPLICIT:
            if self.matrix is None:
                raise InstanceError("EXPLICIT instances require a distance matrix")
            self.matrix = np.asarray(self.matrix, dtype=float)
            if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
                raise InstanceError(
                    f"explicit matrix must be square, got shape {self.matrix.shape}"
                )
            if not np.allclose(self.matrix, self.matrix.T, atol=1e-9):
                raise InstanceError("explicit matrix must be symmetric")
            if self.coords is not None:
                self.coords = np.asarray(self.coords, dtype=float)
        else:
            if self.coords is None:
                raise InstanceError(f"{self.metric.value} instances require coordinates")
            self.coords = np.asarray(self.coords, dtype=float)
            if self.coords.ndim != 2 or self.coords.shape[1] != 2:
                raise InstanceError(
                    f"coords must have shape (n, 2), got {self.coords.shape}"
                )
        if self.n < 2:
            raise InstanceError(f"instance needs at least 2 cities, got {self.n}")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of cities."""
        if self.metric is EdgeWeightType.EXPLICIT:
            return int(self.matrix.shape[0])  # type: ignore[union-attr]
        return int(self.coords.shape[0])  # type: ignore[union-attr]

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # distance computation
    # ------------------------------------------------------------------
    def distance(self, i: int, j: int) -> float:
        """Distance between cities ``i`` and ``j`` under the metric."""
        if i == j:
            return 0.0
        return float(self.distance_block([i], [j])[0, 0])

    def distance_rows(self, rows: np.ndarray) -> np.ndarray:
        """Distances from each city in ``rows`` to every city.

        Returns an array of shape ``(len(rows), n)``.  This is the
        memory-safe workhorse for large instances.
        """
        return self.distance_block(rows, None)

    def distance_block(
        self, rows: np.ndarray, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """Pairwise distances between two index sets.

        Returns ``(len(rows), len(cols))``; ``cols=None`` means all
        cities.  Only the requested block is computed — essential for
        the endpoint-fixing step on 85k-city instances.

        Leading batch axes are allowed: ``rows`` of shape ``(..., a)``
        and ``cols`` of shape ``(..., b)`` give ``(..., a, b)``, one
        block per batch slice, each bit-identical to its own call.
        """
        rows = np.asarray(rows, dtype=int)
        if cols is not None:
            cols = np.asarray(cols, dtype=int)
        if self.metric is EdgeWeightType.EXPLICIT:
            if cols is None:
                return self.matrix[rows]  # type: ignore[index]
            return self.matrix[rows[..., :, None], cols[..., None, :]]  # type: ignore[index]
        if self.metric is EdgeWeightType.GEO:
            return self._geo_block(rows, cols)
        coords = self.coords
        col_coords = coords if cols is None else coords[cols]  # type: ignore[index]
        delta = coords[rows][..., :, None, :] - col_coords[..., None, :, :]  # type: ignore[index]
        if self.metric is EdgeWeightType.EUC_2D:
            return np.rint(np.sqrt((delta**2).sum(axis=-1)))
        if self.metric is EdgeWeightType.CEIL_2D:
            return np.ceil(np.sqrt((delta**2).sum(axis=-1)))
        if self.metric is EdgeWeightType.MAX_2D:
            return np.rint(np.abs(delta).max(axis=-1))
        if self.metric is EdgeWeightType.MAN_2D:
            return np.rint(np.abs(delta).sum(axis=-1))
        if self.metric is EdgeWeightType.ATT:
            rij = np.sqrt((delta**2).sum(axis=-1) / 10.0)
            tij = np.rint(rij)
            return np.where(tij < rij, tij + 1.0, tij)
        raise InstanceError(f"unhandled metric {self.metric}")  # pragma: no cover

    def _geo_block(self, rows: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        if self._geo_cache is None:
            self._geo_cache = _geo_radians(self.coords)  # type: ignore[arg-type]
        rad = self._geo_cache
        row_rad = rad[rows]
        col_rad = rad if cols is None else rad[cols]
        lat_i = row_rad[..., :, None, 0]
        lon_i = row_rad[..., :, None, 1]
        lat_j = col_rad[..., None, :, 0]
        lon_j = col_rad[..., None, :, 1]
        q1 = np.cos(lon_i - lon_j)
        q2 = np.cos(lat_i - lat_j)
        q3 = np.cos(lat_i + lat_j)
        arg = 0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)
        arg = np.clip(arg, -1.0, 1.0)
        dist = _GEO_RRR * np.arccos(arg) + 1.0
        out = np.trunc(dist)
        # TSPLIB defines d(i, i) = 0 even though the formula gives +1:
        # every entry whose row and column are one city, duplicates too.
        col_ids = np.arange(self.n) if cols is None else cols
        out[rows[..., :, None] == col_ids[..., None, :]] = 0.0
        return out

    def distance_submatrix(self, indices: np.ndarray) -> np.ndarray:
        """Full pairwise distance matrix restricted to ``indices``."""
        indices = np.asarray(indices, dtype=int)
        return self.distance_block(indices, indices)

    def distance_matrix(self) -> np.ndarray:
        """The full ``(n, n)`` distance matrix.

        Raises :class:`InstanceError` for instances larger than the
        full-matrix safety limit; use :meth:`distance_rows` /
        :meth:`distance_submatrix` there instead.
        """
        if self.n > _FULL_MATRIX_LIMIT:
            raise InstanceError(
                f"refusing to materialize a {self.n}x{self.n} distance matrix; "
                "use distance_rows() or distance_submatrix()"
            )
        if self.metric is EdgeWeightType.EXPLICIT:
            return np.array(self.matrix, copy=True)
        return self.distance_rows(np.arange(self.n))

    # ------------------------------------------------------------------
    # tour evaluation
    # ------------------------------------------------------------------
    def tour_length(self, order: np.ndarray, closed: bool = True) -> float:
        """Length of the tour visiting cities in ``order``.

        ``closed=True`` adds the edge returning from the last city to the
        first (a tour); ``closed=False`` evaluates an open path.
        """
        order = np.asarray(order, dtype=int)
        if order.size < 2:
            return 0.0
        if self.metric is EdgeWeightType.EXPLICIT:
            total = float(self.matrix[order[:-1], order[1:]].sum())  # type: ignore[index]
            if closed:
                total += float(self.matrix[order[-1], order[0]])  # type: ignore[index]
            return total
        segs = self._edge_lengths(order[:-1], order[1:])
        total = float(segs.sum())
        if closed:
            total += float(self._edge_lengths(order[-1:], order[:1])[0])
        return total

    def _edge_lengths(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized per-edge distances between paired city arrays."""
        coords = self.coords
        if self.metric is EdgeWeightType.GEO:
            if self._geo_cache is None:
                self._geo_cache = _geo_radians(coords)  # type: ignore[arg-type]
            rad = self._geo_cache
            q1 = np.cos(rad[a, 1] - rad[b, 1])
            q2 = np.cos(rad[a, 0] - rad[b, 0])
            q3 = np.cos(rad[a, 0] + rad[b, 0])
            arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
            out = np.trunc(_GEO_RRR * np.arccos(arg) + 1.0)
            return np.where(a == b, 0.0, out)
        delta = coords[a] - coords[b]  # type: ignore[index]
        if self.metric is EdgeWeightType.EUC_2D:
            return np.rint(np.sqrt((delta**2).sum(axis=-1)))
        if self.metric is EdgeWeightType.CEIL_2D:
            return np.ceil(np.sqrt((delta**2).sum(axis=-1)))
        if self.metric is EdgeWeightType.MAX_2D:
            return np.rint(np.abs(delta).max(axis=-1))
        if self.metric is EdgeWeightType.MAN_2D:
            return np.rint(np.abs(delta).sum(axis=-1))
        if self.metric is EdgeWeightType.ATT:
            rij = np.sqrt((delta**2).sum(axis=-1) / 10.0)
            tij = np.rint(rij)
            return np.where(tij < rij, tij + 1.0, tij)
        raise InstanceError(f"unhandled metric {self.metric}")  # pragma: no cover

    # ------------------------------------------------------------------
    # derived instances
    # ------------------------------------------------------------------
    def subinstance(self, indices: np.ndarray, name: str | None = None) -> "TSPInstance":
        """A new instance restricted to ``indices`` (in the given order)."""
        indices = np.asarray(indices, dtype=int)
        if indices.size < 2:
            raise InstanceError("subinstance needs at least 2 cities")
        sub_name = name if name is not None else f"{self.name}[{indices.size}]"
        if self.metric is EdgeWeightType.EXPLICIT:
            sub_matrix = self.matrix[np.ix_(indices, indices)]  # type: ignore[index]
            sub_coords = None if self.coords is None else self.coords[indices]
            return TSPInstance(
                sub_name, sub_coords, EdgeWeightType.EXPLICIT, matrix=sub_matrix
            )
        return TSPInstance(sub_name, self.coords[indices], self.metric)  # type: ignore[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TSPInstance(name={self.name!r}, n={self.n}, metric={self.metric.value})"


def euclidean_instance(name: str, coords: np.ndarray) -> TSPInstance:
    """Convenience constructor for a rounded-Euclidean (EUC_2D) instance."""
    return TSPInstance(name, np.asarray(coords, dtype=float), EdgeWeightType.EUC_2D)
