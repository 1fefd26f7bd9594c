"""Metropolis simulated annealing over an :class:`IsingModel`.

This is the conventional CMOS-annealer baseline: single spin-flip
proposals accepted with probability ``min(1, exp(-dE / T))`` under a
decreasing temperature schedule.  Supports geometric, linear, and
sigmoid-shaped schedules; the sigmoid mirrors TAXI's "natural
annealing" stochasticity decay for apples-to-apples ablations.

The sweep inner loops live in :mod:`repro.kernels.spin`: the kernel
batches whole graph-coloring classes per accept step, and falls back to
the historical per-spin loop on dense coupling graphs, where it is
bit-exact with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.ising.model import IsingModel
from repro.kernels import spin as spin_kernels
from repro.utils.rng import ensure_rng


class TemperatureSchedule(enum.Enum):
    """Cooling schedule shapes for the Metropolis annealer."""

    GEOMETRIC = "geometric"
    LINEAR = "linear"
    SIGMOID = "sigmoid"

    def temperatures(self, t_start: float, t_end: float, sweeps: int) -> np.ndarray:
        """The temperature at the start of each sweep."""
        if t_start <= 0 or t_end <= 0:
            raise ConfigError("temperatures must be positive")
        if t_end > t_start:
            raise ConfigError(
                f"t_end ({t_end}) must not exceed t_start ({t_start})"
            )
        if sweeps < 1:
            raise ConfigError(f"sweeps must be >= 1, got {sweeps}")
        steps = np.arange(sweeps)
        if sweeps == 1:
            return np.asarray([t_start])
        frac = steps / (sweeps - 1)
        if self is TemperatureSchedule.GEOMETRIC:
            ratio = (t_end / t_start) ** frac
            return t_start * ratio
        if self is TemperatureSchedule.LINEAR:
            return t_start + (t_end - t_start) * frac
        # Sigmoid: fast early decay, slow late decay (paper III-C6 shape).
        z = 8.0 * (frac - 0.35)
        sig = 1.0 / (1.0 + np.exp(z))
        sig = (sig - sig[-1]) / (sig[0] - sig[-1])
        return t_end + (t_start - t_end) * sig


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    spins: np.ndarray
    energy: float
    energy_trace: np.ndarray
    sweeps: int
    accepted_flips: int

    @property
    def acceptance_rate(self) -> float:
        total = self.sweeps * self.spins.size
        return self.accepted_flips / total if total else 0.0


@dataclass
class MetropolisAnnealer:
    """Single spin-flip Metropolis annealer.

    Parameters
    ----------
    sweeps:
        Number of full sweeps (each sweep proposes every spin once, in
        random order).
    t_start, t_end:
        Temperature endpoints.
    schedule:
        Cooling curve shape.
    seed:
        RNG seed (or generator) for proposals and acceptances.
    """

    sweeps: int = 200
    t_start: float = 10.0
    t_end: float = 0.05
    schedule: TemperatureSchedule = TemperatureSchedule.GEOMETRIC
    seed: int | None | np.random.Generator = None
    track_energy: bool = True
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ConfigError(f"sweeps must be >= 1, got {self.sweeps}")
        self._rng = ensure_rng(self.seed)

    def anneal(
        self, model: IsingModel, initial: np.ndarray | None = None
    ) -> AnnealResult:
        """Run annealing and return the best state encountered."""
        rng = self._rng
        spins = (
            model.random_state(rng) if initial is None else model.check_state(initial).copy()
        )
        temperatures = self.schedule.temperatures(self.t_start, self.t_end, self.sweeps)
        best_spins, best_energy, trace, accepted = spin_kernels.anneal_fast(
            model, spins, temperatures, rng, self.track_energy
        )
        return AnnealResult(best_spins, best_energy, trace, self.sweeps, accepted)

    def descend(self, model: IsingModel, initial: np.ndarray | None = None) -> AnnealResult:
        """Zero-temperature greedy descent (always-descending updates).

        Demonstrates the paper's Fig 2 point: without stochasticity the
        system lands in the nearest local minimum.
        """
        rng = self._rng
        spins = (
            model.random_state(rng) if initial is None else model.check_state(initial).copy()
        )
        spins, energy, sweeps_done, accepted = spin_kernels.descend_fast(
            model, spins, self.sweeps, rng
        )
        trace = np.asarray([energy])
        return AnnealResult(spins, energy, trace, sweeps_done, accepted)
