"""repro — reproduction of TAXI (DAC 2025).

TAXI is a traveling-salesman-problem accelerator built from
crossbar-based Ising macros with SOT-MRAM stochastic devices and a
hierarchical-clustering decomposition.  This package implements the
full system in Python: the TSP and Ising substrates, device and
crossbar models, the Ising macro and its batched chip-level solver,
Ward agglomerative clustering with endpoint fixing, the end-to-end
:class:`~repro.core.solver.TAXISolver`, comparator baselines, and a
PUMA-style architecture simulator.

Quickstart::

    from repro import TAXIConfig, TAXISolver, load_benchmark

    instance = load_benchmark(1060)
    result = TAXISolver(TAXIConfig(seed=0)).solve(instance)
    print(result.tour.length)
"""

from repro.core import (
    BatchResult,
    EngineConfig,
    TAXIConfig,
    TAXIResult,
    TAXISolver,
)
from repro.engine import run_batch, run_replicas, solve_with, solver_names
from repro.tsp import TSPInstance, Tour, load_benchmark
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "TAXIConfig",
    "EngineConfig",
    "TAXISolver",
    "TAXIResult",
    "BatchResult",
    "TSPInstance",
    "Tour",
    "load_benchmark",
    "run_replicas",
    "run_batch",
    "solve_with",
    "solver_names",
    "ReproError",
    "__version__",
]
