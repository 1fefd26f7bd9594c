"""The crossbar array holding the bit-sliced W_D partitions (Fig 4b).

Physical model
--------------
The weight region of the macro's crossbar has ``n`` rows (cities) and
``B`` partitions of ``n`` columns each (bit slices of the quantized
inverse-distance matrix, MSB partition leftmost).  Each cell is a 3T-1M
SOT-MRAM whose MTJ is programmed LRS (high conductance) for bit 1 or
HRS for bit 0.  A distance MAC applies the latched binary visiting
vector to the rows; per Ohm's and Kirchhoff's laws each column collects

    I_col = V_read * sum_rows v_row * G(row, col) * alpha(row, col)

where ``alpha`` is the wire-resistance attenuation.  Current mirrors
then scale each partition by its significance 2^(b-1) and the per-city
scores are the partition sums (eq. 5 in current form).

Non-idealities modelled: HRS leakage (finite on/off ratio),
IR-drop attenuation, programmed-conductance variation, read noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devices.mtj import MTJ
from repro.devices.variation import DeviceVariation
from repro.errors import CrossbarError
from repro.utils.rng import ensure_rng
from repro.xbar.nonideal import WireResistanceModel
from repro.xbar.periph import CurrentMirror
from repro.xbar.quantize import bit_slices, full_scale


@dataclass(frozen=True)
class CrossbarConfig:
    """Electrical configuration of a weight crossbar.

    Parameters
    ----------
    mtj:
        MTJ resistance model (sets G_on = 1/R_P, G_off = 1/R_AP).
    read_voltage:
        Row drive voltage during MAC reads (volts).
    wire:
        IR-drop attenuation model.
    variation:
        Device variation/noise model.
    mirror_mismatch_sigma:
        Gain mismatch of the per-partition current mirrors.
    """

    mtj: MTJ = field(default_factory=MTJ)
    read_voltage: float = 0.2
    wire: WireResistanceModel = field(default_factory=WireResistanceModel)
    variation: DeviceVariation = field(default_factory=DeviceVariation)
    mirror_mismatch_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.read_voltage <= 0:
            raise CrossbarError(f"read_voltage must be positive, got {self.read_voltage}")

    @classmethod
    def ideal(cls) -> "CrossbarConfig":
        """An idealized array: no wire resistance, no variation, infinite on/off.

        G_off is approximated by a 1e6 on/off ratio rather than exactly
        zero so conductance stays physical.
        """
        return cls(
            mtj=MTJ(r_parallel=5e3, tmr=1e6),
            wire=WireResistanceModel(wire_resistance=0.0),
            variation=DeviceVariation(),
        )


class CrossbarArray:
    """An ``n x (n * bits)`` programmed weight crossbar.

    Build it with :meth:`program`, then call :meth:`mac_scores` with the
    binary visiting vector each iteration.
    """

    def __init__(
        self,
        n: int,
        bits: int,
        config: CrossbarConfig | None = None,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        if n < 2:
            raise CrossbarError(f"crossbar needs n >= 2 rows, got {n}")
        if bits < 1:
            raise CrossbarError(f"bit precision must be >= 1, got {bits}")
        self.n = n
        self.bits = bits
        self.config = config if config is not None else CrossbarConfig()
        self._rng = ensure_rng(seed)
        self._conductance: np.ndarray | None = None  # (n, bits * n)
        self._attenuation = self.config.wire.attenuation(n, bits * n)
        self._mirrors = CurrentMirror.bank_for_bits(
            bits, self.config.mirror_mismatch_sigma, self._rng
        )

    # ------------------------------------------------------------------
    # programming
    # ------------------------------------------------------------------
    def program(self, levels: np.ndarray) -> None:
        """Program quantized W_D levels (``(n, n)`` ints) into the array."""
        levels = np.asarray(levels)
        if levels.shape != (self.n, self.n):
            raise CrossbarError(
                f"levels must have shape ({self.n}, {self.n}), got {levels.shape}"
            )
        slices = bit_slices(levels, self.bits)  # (bits, n, n), MSB first
        g_on = 1.0 / self.config.mtj.r_parallel
        g_off = 1.0 / self.config.mtj.r_antiparallel
        # Partition b occupies columns [b*n, (b+1)*n); cell (row=k, col=x)
        # within a partition holds bit_b of W_D(x, k) — the latched vector
        # drives rows (cities k), columns accumulate scores for city x.
        cond = np.empty((self.n, self.bits * self.n))
        for b in range(self.bits):
            block = slices[b].T.astype(float)  # (k rows, x cols)
            cond[:, b * self.n : (b + 1) * self.n] = g_off + block * (g_on - g_off)
        if not self.config.variation.is_ideal:
            cond = self.config.variation.apply_programming(cond, g_on, g_off, self._rng)
        self._conductance = cond

    @property
    def is_programmed(self) -> bool:
        return self._conductance is not None

    @property
    def array_size(self) -> tuple[int, int]:
        """Physical array dimensions (rows, weight columns)."""
        return (self.n, self.bits * self.n)

    # ------------------------------------------------------------------
    # MAC
    # ------------------------------------------------------------------
    def partition_currents(self, visiting: np.ndarray) -> np.ndarray:
        """Raw column currents per bit partition, shape ``(bits, n)``.

        ``visiting`` is the latched binary vector applied to the rows.
        """
        if self._conductance is None:
            raise CrossbarError("crossbar must be programmed before MAC")
        v = np.asarray(visiting, dtype=float)
        if v.shape != (self.n,):
            raise CrossbarError(
                f"visiting vector must have shape ({self.n},), got {v.shape}"
            )
        if not np.all(np.isin(v, (0.0, 1.0))):
            raise CrossbarError("visiting vector must be binary")
        effective = self._conductance * self._attenuation
        currents = self.config.read_voltage * (v @ effective)  # (bits * n,)
        currents = currents.reshape(self.bits, self.n)
        if self.config.variation.read_noise_sigma > 0:
            currents = self.config.variation.apply_read_noise(currents, self._rng)
        return currents

    def mac_scores(self, visiting: np.ndarray) -> np.ndarray:
        """Per-city analog scores: mirror-scaled partition sums (eq. 5).

        Larger score = shorter total distance to the visited neighbours
        = preferred by the ArgMax stage.
        """
        currents = self.partition_currents(visiting)
        scores = np.zeros(self.n)
        for mirror, partition in zip(self._mirrors, currents):
            scores += mirror.mirror(partition)
        return scores

    def ideal_scores(self, visiting: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """The scores an ideal array would produce (for error analysis)."""
        v = np.asarray(visiting, dtype=float)
        lv = np.asarray(levels, dtype=float)
        g_on = 1.0 / self.config.mtj.r_parallel
        return self.config.read_voltage * g_on * (lv @ v)

    def score_full_scale(self) -> float:
        """Score produced by one full-scale weight with one active row."""
        g_on = 1.0 / self.config.mtj.r_parallel
        return self.config.read_voltage * g_on * full_scale(self.bits)

    def effective_weights(self) -> np.ndarray:
        """The ``(n, n)`` matrix W_eff with ``mac_scores(v) == v @ W_eff``.

        Collapses the bit partitions, mirror gains, conductances, and
        wire attenuation into one matrix.  ``W_eff[k, x]`` is the score
        city ``x`` collects per unit drive on city ``k``'s row.  Read
        noise (cycle-to-cycle) is *not* folded in — it is re-sampled per
        MAC by :meth:`mac_scores`.
        """
        if self._conductance is None:
            raise CrossbarError("crossbar must be programmed first")
        effective = self._conductance * self._attenuation
        w = np.zeros((self.n, self.n))
        for mirror, b in zip(self._mirrors, range(self.bits)):
            block = effective[:, b * self.n : (b + 1) * self.n]
            w += mirror.actual_gain * block
        return self.config.read_voltage * w


def effective_weight_matrices(
    levels_batch: np.ndarray,
    bits: int,
    config: CrossbarConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Batched W_eff for many sub-problems at once.

    Same math as :meth:`CrossbarArray.effective_weights` (bit slicing,
    conductance mapping, wire attenuation, programming variation,
    mirror gains) vectorized over a leading batch axis.

    Parameters
    ----------
    levels_batch:
        ``(m, n, n)`` integer W_D levels, one sub-problem per slice.
    bits:
        Bit precision B.
    config:
        Shared electrical configuration; programming variation and
        mirror mismatch are sampled independently per sub-problem.
    rng:
        Generator for the per-macro variation draws.

    Returns
    -------
    ``(m, n, n)`` array with ``scores = visiting @ W_eff[i]`` per macro.
    """
    levels_batch = np.asarray(levels_batch)
    if levels_batch.ndim != 3 or levels_batch.shape[1] != levels_batch.shape[2]:
        raise CrossbarError(
            f"levels_batch must be (m, n, n), got {levels_batch.shape}"
        )
    m, n, _ = levels_batch.shape
    slices = bit_slices(levels_batch, bits)  # (m, bits, n, n) MSB first
    g_on = 1.0 / config.mtj.r_parallel
    g_off = 1.0 / config.mtj.r_antiparallel
    # Conductance per cell; transpose city axes so rows drive axis -2
    # (matches CrossbarArray.program's block.T layout).
    cond = g_off + slices.transpose(0, 1, 3, 2).astype(float) * (g_on - g_off)
    if not config.variation.is_ideal:
        flat = cond.reshape(m, -1)
        for i in range(m):
            flat[i] = config.variation.apply_programming(flat[i], g_on, g_off, rng)
        cond = flat.reshape(m, bits, n, n)
    attenuation = config.wire.attenuation(n, bits * n)  # (n, bits * n)
    atten_blocks = attenuation.reshape(n, bits, n).transpose(1, 0, 2)  # (bits, n, n)
    cond = cond * atten_blocks[None, :, :, :]
    gains = (2.0 ** np.arange(bits - 1, -1, -1)).reshape(1, bits, 1, 1)
    if config.mirror_mismatch_sigma > 0:
        mismatch = rng.normal(
            1.0, config.mirror_mismatch_sigma, size=(m, bits, 1, 1)
        )
        gains = gains * mismatch
    return config.read_voltage * (cond * gains).sum(axis=1)
