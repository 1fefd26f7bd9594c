"""Backend x solver parity matrix.

One parameterized sweep asserting that the ``fast`` and ``reference``
kernel backends agree for *every* registry solver, at the strength PR 2
guarantees per solver:

* ``bit_exact`` — identical tours for any seed.  Holds for ``sa_tsp``
  (the batched 2-opt kernel replays the reference Markov chain
  exactly) and for all deterministic solvers (greedy, two_opt, exact,
  concorde_surrogate — they accept the knob but ignore randomness).
* ``distribution`` — the macro-based solvers (taxi, hvc, ima, cima,
  neuro_ising) hoist their RNG draws in the fast backend (same
  distributions, different stream), so parity is asserted on mean tour
  length over seeds instead.

This replaces the ad-hoc per-solver parity tests that used to live in
``test_kernels.py``; a new registry solver fails here until it is
classified below.
"""

import numpy as np
import pytest

from repro.engine import solve_with, solver_names
from repro.engine.registry import EXACT_SIZE_LIMIT
from repro.kernels import resolve_backend
from repro.tsp.generators import clustered_instance, uniform_instance

#: Parity class per registry solver (every solver must be listed).
BIT_EXACT = {
    "sa_tsp", "greedy", "two_opt", "exact", "concorde_surrogate",
}
DISTRIBUTION = {
    "taxi", "hvc", "ima", "cima", "neuro_ising",
}
#: Meta-solvers with no backend knob of their own: parity is defined as
#: bit-identical reruns (their arms' backend parity is covered above).
META_DETERMINISTIC = {
    "portfolio",
}

#: Relative tolerance for distribution-level parity on mean lengths.
DISTRIBUTION_RTOL = 0.10

SEEDS = (0, 1, 2)


def _instance_for(solver: str):
    if solver == "exact":
        return uniform_instance(EXACT_SIZE_LIMIT - 1, seed=90)
    return clustered_instance(64, seed=90)


def _params_for(solver: str) -> dict:
    if solver in ("taxi", "hvc", "ima", "cima", "neuro_ising", "sa_tsp"):
        return {"sweeps": 60}
    return {}


def test_matrix_covers_the_whole_registry():
    """A new solver must declare its parity class before it ships."""
    classes = (BIT_EXACT, DISTRIBUTION, META_DETERMINISTIC)
    unclassified = set(solver_names()) - set().union(*classes)
    assert not unclassified, (
        f"solvers without a parity class: {sorted(unclassified)}; "
        "add them to BIT_EXACT, DISTRIBUTION, or META_DETERMINISTIC in "
        "test_parity_matrix.py"
    )
    for first in classes:
        for second in classes:
            if first is not second:
                overlap = first & second
                assert not overlap, (
                    f"solvers in two parity classes: {sorted(overlap)}")


@pytest.mark.parametrize("solver", sorted(BIT_EXACT))
def test_bit_exact_backend_parity(solver):
    instance = _instance_for(solver)
    params = _params_for(solver)
    for seed in SEEDS:
        ref = solve_with(solver, instance, seed=seed, backend="reference",
                         **params)
        fast = solve_with(solver, instance, seed=seed, backend="fast",
                          **params)
        np.testing.assert_array_equal(
            fast.order, ref.order,
            err_msg=f"{solver} seed={seed}: fast != reference",
        )
        assert fast.length == ref.length


@pytest.mark.parametrize("solver", sorted(META_DETERMINISTIC))
def test_meta_deterministic_reruns(solver):
    instance = clustered_instance(64, seed=90)
    for seed in SEEDS:
        first = solve_with(solver, instance, seed=seed)
        second = solve_with(solver, instance, seed=seed)
        np.testing.assert_array_equal(
            second.order, first.order,
            err_msg=f"{solver} seed={seed}: reruns differ",
        )
        assert second.length == first.length


#: Solvers checked under the ``array`` name, an alias of ``fast``
#: (see docs/backends.md).
ARRAY_BIT_EXACT = ("sa_tsp", "taxi")


@pytest.mark.parametrize("solver", ARRAY_BIT_EXACT)
def test_array_backend_bit_exact_vs_fast(solver):
    assert resolve_backend("array") == "fast"
    instance = clustered_instance(48, seed=11)
    fast = solve_with(solver, instance, seed=0, backend="fast", sweeps=40)
    array = solve_with(solver, instance, seed=0, backend="array", sweeps=40)
    np.testing.assert_array_equal(array.order, fast.order)
    assert array.length == fast.length


@pytest.mark.parametrize("solver", sorted(DISTRIBUTION))
def test_distribution_backend_parity(solver):
    instance = _instance_for(solver)
    params = _params_for(solver)
    lengths = {"reference": [], "fast": []}
    for backend in lengths:
        for seed in SEEDS:
            tour = solve_with(solver, instance, seed=seed, backend=backend,
                              **params)
            assert sorted(tour.order.tolist()) == list(range(instance.n))
            lengths[backend].append(tour.length)
    ref_mean = float(np.mean(lengths["reference"]))
    fast_mean = float(np.mean(lengths["fast"]))
    assert abs(fast_mean - ref_mean) <= DISTRIBUTION_RTOL * ref_mean, (
        f"{solver}: fast mean {fast_mean:.0f} vs reference mean "
        f"{ref_mean:.0f} exceeds {DISTRIBUTION_RTOL:.0%}"
    )
