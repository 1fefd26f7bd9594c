"""IMA [6] and CIMA [7] clustered-annealer baselines.

Both systems cluster with k-means and anneal clusters on in-memory
arrays while **storing spin states outside the macros** (the paper's
core latency criticism).  Algorithmically they differ from TAXI in:

* clustering — k-means instead of Ward agglomerative;
* IMA's analog charge-trap arrays have intrinsic uncontrolled noise
  that grows with array size [11], modelled as read noise plus
  unguarded updates;
* CIMA is digital (noisy SRAM bit for stochasticity, exact MAC),
  modelled as guarded updates with k-means clustering — the closest
  competitor, which Fig 5c shows trailing TAXI by a few percent.

Latency modelling: the off-macro spin storage costs one round-trip per
iteration; :meth:`modeled_iteration_latency` exposes the multiplier the
architecture comparison uses (the paper reports TAXI's in-macro design
avoids exactly this traffic).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.hvc import BaselineResult
from repro.clustering.hierarchy import build_hierarchy
from repro.clustering.kmeans import kmeans_with_max_size
from repro.core.pipeline import solve_hierarchical
from repro.devices.variation import DeviceVariation
from repro.errors import SolverError
from repro.macro.batch import BatchedMacroSolver
from repro.macro.config import MacroConfig
from repro.macro.schedule import paper_schedule
from repro.macro.timing import MacroTiming
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour
from repro.utils.rng import ensure_rng
from repro.utils.units import NANO
from repro.xbar.crossbar import CrossbarConfig

#: Extra per-iteration latency for the off-macro spin-state round trip
#: (SRAM/DRAM access + bus), the overhead TAXI's in-macro storage removes.
OFF_MACRO_SPIN_ACCESS = 6.0 * NANO


class _ClusteredAnnealerBase:
    """Shared machinery for the IMA/CIMA baselines."""

    name = "base"
    guarded = False
    read_noise_sigma = 0.0

    def __init__(
        self,
        max_cluster_size: int = 12,
        bits: int = 4,
        sweeps: int | None = None,
        seed: int | None = 0,
    ) -> None:
        if max_cluster_size < 4:
            raise SolverError(
                f"max_cluster_size must be >= 4, got {max_cluster_size}"
            )
        self.max_cluster_size = max_cluster_size
        self.bits = bits
        self.sweeps = sweeps
        self.seed = seed

    def solve(self, instance: TSPInstance) -> BaselineResult:
        rng = ensure_rng(self.seed)
        kmeans_seed = int(rng.integers(0, 2**31 - 1))

        def cluster_fn(points: np.ndarray, max_size: int) -> np.ndarray:
            return kmeans_with_max_size(points, max_size, seed=kmeans_seed)

        hierarchy = build_hierarchy(instance, self.max_cluster_size, cluster_fn)
        crossbar = CrossbarConfig(
            variation=DeviceVariation(read_noise_sigma=self.read_noise_sigma)
        )
        macro = BatchedMacroSolver(
            MacroConfig(
                max_cities=self.max_cluster_size,
                bits=self.bits,
                crossbar=crossbar,
                guarded_updates=self.guarded,
            ),
            seed=rng,
        )
        order, times, _ = solve_hierarchical(
            hierarchy, macro, paper_schedule(self.sweeps), endpoint_fixing=True
        )
        return BaselineResult(self.name, Tour(instance, order), times)

    @staticmethod
    def modeled_iteration_latency(timing: MacroTiming | None = None) -> float:
        """Per-iteration latency including the off-macro spin round trip."""
        timing = timing if timing is not None else MacroTiming()
        return timing.iteration_latency + OFF_MACRO_SPIN_ACCESS


class IMASolver(_ClusteredAnnealerBase):
    """In-memory annealer with charge-trap temporal noise (ref [6])."""

    name = "IMA"
    guarded = False
    # Intrinsic array noise: uncontrollable, grows with array size [11];
    # 5 % read noise reproduces the reported quality class.
    read_noise_sigma = 0.05


class CIMASolver(_ClusteredAnnealerBase):
    """Digital compute-in-memory annealer with noisy SRAM bit (ref [7])."""

    name = "CIMA"
    guarded = True
    read_noise_sigma = 0.0
