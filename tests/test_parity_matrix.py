"""Solver parity matrix.

Every registry solver runs one kernel.  One parameterized sweep asserts,
per solver, the strongest property its kernel guarantees:

* ``BIT_EXACT`` — the solver's vectorized kernel gives the same tours
  as the scalar loop it replaced, for any seed.  ``sa_tsp`` reaches its
  reference loop through the solver, which runs it above
  ``FAST_MATRIX_LIMIT`` cities; ``two_opt`` through
  :class:`~repro.kernels.neighbor.NeighborKernelParity`.
* ``RERUN`` — every other solver reruns bit-identically: the same seed
  gives the same tour.

A new registry solver fails here until it is classified below.
"""

import numpy as np
import pytest

import repro.ising.sa_tsp
from repro.baselines.greedy import nearest_neighbor_tour
from repro.engine import solve_with, solver_names
from repro.engine.registry import EXACT_SIZE_LIMIT
from repro.kernels.neighbor import NeighborKernelParity
from repro.tsp.generators import clustered_instance, uniform_instance

SEEDS = (0, 1, 2)


def _instance_for(solver: str):
    if solver == "exact":
        return uniform_instance(EXACT_SIZE_LIMIT - 1, seed=90)
    return clustered_instance(64, seed=90)


def _params_for(solver: str) -> dict:
    if solver in ("taxi", "hvc", "ima", "cima", "neuro_ising", "sa_tsp"):
        return {"sweeps": 60}
    return {}


def _sa_tsp_tours(instance, seed, monkeypatch):
    """sa_tsp's tour, then the same solve on its per-proposal loop."""
    fast = solve_with("sa_tsp", instance, seed=seed, sweeps=60).order
    with monkeypatch.context() as patch:
        # Above FAST_MATRIX_LIMIT cities the solver runs its reference loop.
        patch.setattr(repro.ising.sa_tsp, "FAST_MATRIX_LIMIT", 0)
        reference = solve_with("sa_tsp", instance, seed=seed, sweeps=60).order
    return fast, reference


def _two_opt_tours(instance, seed, monkeypatch):
    """two_opt's tour, then its start tour improved by the scalar passes."""
    reference, fast = NeighborKernelParity(instance).run(
        nearest_neighbor_tour(instance)
    )
    # The harness starts from the solver's own start tour, so its
    # vectorized side is the solve itself (deterministic: any seed).
    np.testing.assert_array_equal(
        solve_with("two_opt", instance, seed=seed).order, fast
    )
    return fast, reference


#: Parity class per registry solver (every solver must be listed).
#: A bit-exact solver maps to a function returning its tour and its
#: scalar reference's tour for one seed.
BIT_EXACT = {"sa_tsp": _sa_tsp_tours, "two_opt": _two_opt_tours}
RERUN = {
    "taxi", "hvc", "ima", "cima", "neuro_ising",
    "greedy", "exact", "concorde_surrogate", "portfolio",
}


def test_matrix_covers_the_whole_registry():
    """A new solver must declare its parity class before it ships."""
    unclassified = set(solver_names()) - (set(BIT_EXACT) | RERUN)
    assert not unclassified, (
        f"solvers without a parity class: {sorted(unclassified)}; "
        "add them to BIT_EXACT or RERUN in test_parity_matrix.py"
    )
    overlap = set(BIT_EXACT) & RERUN
    assert not overlap, f"solvers in two parity classes: {sorted(overlap)}"


@pytest.mark.parametrize("solver", sorted(BIT_EXACT))
def test_bit_exact_kernel_parity(solver, monkeypatch):
    instance = _instance_for(solver)
    for seed in SEEDS:
        fast, reference = BIT_EXACT[solver](instance, seed, monkeypatch)
        np.testing.assert_array_equal(
            fast, reference,
            err_msg=f"{solver} seed={seed}: kernel != reference",
        )


@pytest.mark.parametrize("solver", sorted(RERUN))
def test_reruns_bit_identical(solver):
    instance = _instance_for(solver)
    params = _params_for(solver)
    for seed in SEEDS:
        first = solve_with(solver, instance, seed=seed, **params)
        second = solve_with(solver, instance, seed=seed, **params)
        assert sorted(first.order.tolist()) == list(range(instance.n))
        np.testing.assert_array_equal(
            second.order, first.order,
            err_msg=f"{solver} seed={seed}: reruns differ",
        )
        assert second.length == first.length
