"""Tests for the vectorized kernels (repro.kernels) and their fallbacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ising.sa_tsp
from repro.ising.annealer import TemperatureSchedule
from repro.ising.model import IsingModel
from repro.ising.sa_tsp import SimulatedAnnealingTSP
from repro.kernels import spin
from repro.kernels.macro import batch_proxy, ragged_proxy
from repro.kernels.spin import color_classes
from repro.macro.batch import BatchedMacroSolver, SubProblem
from repro.macro.schedule import paper_schedule
from repro.tsp.benchmarks import load_benchmark
from repro.tsp.generators import uniform_instance


def lattice_model(n: int, seed: int = 0) -> IsingModel:
    """A ring-lattice Ising model (degree 4, random Gaussian couplings).

    Sparse and small-chromatic-number by construction — the model class
    batched hardware annealers (and the checkerboard kernel) target.
    """
    rng = np.random.default_rng(seed)
    couplings = np.zeros((n, n))
    for offset in (1, 2):
        i = np.arange(n)
        j = (i + offset) % n
        w = rng.normal(size=n)
        couplings[i, j] = w
        couplings[j, i] = w
    fields = 0.1 * rng.normal(size=n)
    return IsingModel(couplings, fields=fields)


def dense_model(n: int = 8) -> IsingModel:
    j = np.ones((n, n))
    np.fill_diagonal(j, 0.0)
    return IsingModel(j)


class TestColorClasses:
    def test_partition_into_independent_sets(self):
        model = lattice_model(60, seed=1)
        classes = color_classes(model.couplings)
        seen = np.concatenate(classes)
        assert sorted(seen.tolist()) == list(range(60))
        for cls in classes:
            block = model.couplings[np.ix_(cls, cls)]
            assert not block.any()  # no intra-class couplings

    def test_lattice_uses_few_colors(self):
        model = lattice_model(100, seed=2)
        assert len(color_classes(model.couplings)) <= 6

    def test_dense_graph_degenerates_to_singletons(self):
        model = dense_model(8)
        assert len(color_classes(model.couplings)) == 8


#: The two Metropolis kernels by name: each an (anneal, descend) pair.
SPIN_KERNELS = {
    "fast": (spin.anneal_fast, spin.descend_fast),
    "reference": (spin.anneal_reference, spin.descend_reference),
}


def anneal(kernel: str, model: IsingModel, sweeps: int, seed: int):
    """One anneal on the named kernel: ``(best_spins, energy, trace, accepted)``."""
    rng = np.random.default_rng(seed)
    temperatures = TemperatureSchedule.GEOMETRIC.temperatures(10.0, 0.05, sweeps)
    return SPIN_KERNELS[kernel][0](model, model.random_state(rng), temperatures, rng)


def descend(kernel: str, model: IsingModel, sweeps: int, seed: int, initial=None):
    """One descent on the named kernel: ``(spins, energy, sweeps, accepted)``."""
    rng = np.random.default_rng(seed)
    spins = model.random_state(rng) if initial is None else initial.copy()
    return SPIN_KERNELS[kernel][1](model, spins, sweeps, rng)


class TestMetropolisBackends:
    def test_dense_fast_falls_back_bit_exact(self):
        # Coloring is useless on a dense graph; the fast kernel must
        # degrade to the reference loop and match it bit for bit.
        model = dense_model(8)
        ref_spins, ref_energy, ref_trace, _ = anneal("reference", model, 60, 3)
        fast_spins, fast_energy, fast_trace, _ = anneal("fast", model, 60, 3)
        assert ref_energy == fast_energy
        np.testing.assert_array_equal(ref_spins, fast_spins)
        np.testing.assert_array_equal(ref_trace, fast_trace)

    def test_sparse_quality_parity(self):
        # Different streams, same physics: mean best energy over seeds
        # must land in the same quality class.
        model = lattice_model(80, seed=4)
        ref = [anneal("reference", model, 120, s)[1] for s in range(4)]
        fast = [anneal("fast", model, 120, s)[1] for s in range(4)]
        assert abs(np.mean(ref) - np.mean(fast)) <= 0.1 * abs(np.mean(ref))

    @pytest.mark.parametrize("kernel", sorted(SPIN_KERNELS))
    def test_best_energy_matches_best_spins(self, kernel):
        # The flip-journal reconstruction must return exactly the state
        # whose energy was recorded as the best.
        model = lattice_model(40, seed=5)
        spins, energy, _, _ = anneal(kernel, model, 40, 6)
        assert model.energy(spins) == pytest.approx(energy)

    @pytest.mark.parametrize("kernel", sorted(SPIN_KERNELS))
    def test_descend_reaches_local_minimum(self, kernel):
        model = lattice_model(48, seed=7)
        spins = descend(kernel, model, 100, 8)[0]
        for i in range(model.n):
            assert model.flip_delta(spins, i) >= -1e-9

    def test_descend_fixed_points_identical(self):
        # A reference fixed point is a fast fixed point and vice versa:
        # both kernels return it unchanged.
        model = lattice_model(48, seed=9)
        fixed = descend("reference", model, 100, 1)[0]
        for kernel in SPIN_KERNELS:
            spins, _, _, accepted = descend(kernel, model, 50, 2, initial=fixed)
            np.testing.assert_array_equal(spins, fixed)
            assert accepted == 0

    def test_fast_solves_ferromagnet_ground_state(self):
        # Sparse ferromagnetic ring: the fast kernel must find the
        # aligned ground state just like the reference.
        n = 32
        couplings = np.zeros((n, n))
        i = np.arange(n)
        couplings[i, (i + 1) % n] = 1.0
        couplings[(i + 1) % n, i] = 1.0
        model = IsingModel(couplings)
        assert anneal("fast", model, 200, 0)[1] == pytest.approx(-n)


class TestSATSPBackends:
    # Kernel parity across the registry lives in the solver parity
    # matrix: tests/test_parity_matrix.py.

    @pytest.mark.parametrize("size", [76, 200])
    def test_registry_instances_bit_exact(self, size, monkeypatch):
        # Larger-n spot check than the matrix's common instance: the
        # hybrid scalar/batch sweep must replay the reference Markov
        # chain exactly at realistic sizes too.  Above FAST_MATRIX_LIMIT
        # cities the solver runs the reference loop.
        inst = load_benchmark(size)
        fast = SimulatedAnnealingTSP(sweeps=60, seed=11).solve(inst)
        monkeypatch.setattr(repro.ising.sa_tsp, "FAST_MATRIX_LIMIT", 0)
        ref = SimulatedAnnealingTSP(sweeps=60, seed=11).solve(inst)
        assert fast.length == ref.length
        np.testing.assert_array_equal(fast.order, ref.order)

    def test_initial_order_respected(self):
        inst = uniform_instance(20, seed=13)
        initial = np.roll(np.arange(20), 5)
        tour = SimulatedAnnealingTSP(sweeps=5, seed=3).solve(
            inst, initial
        )
        assert sorted(tour.order.tolist()) == list(range(20))

    def test_tiny_instances(self):
        for n in (4, 5):
            inst = uniform_instance(n, seed=14)
            tour = SimulatedAnnealingTSP(sweeps=20, seed=0).solve(inst)
            assert sorted(tour.order.tolist()) == list(range(n))


class TestMacroBackends:
    def problems(self, count=6, n=8):
        return [
            SubProblem(
                uniform_instance(n, seed=300 + i).distance_matrix(),
                closed=False,
                tag=i,
            )
            for i in range(count)
        ]

    def test_fast_orders_valid_with_fixed_endpoints(self):
        solver = BatchedMacroSolver(seed=0)
        for sol in solver.solve_all(self.problems(), paper_schedule(60)):
            assert sorted(sol.order.tolist()) == list(range(8))
            assert sol.order[0] == 0
            assert sol.order[-1] == 7

    def test_fast_deterministic_given_seed(self):
        a = BatchedMacroSolver(seed=5).solve_all(
            self.problems(4), paper_schedule(40)
        )
        b = BatchedMacroSolver(seed=5).solve_all(
            self.problems(4), paper_schedule(40)
        )
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.order, y.order)


class TestRaggedProxy:
    """The ragged kernel's guard proxy equals the unpadded one bit-for-bit.

    NumPy sums fewer than 8 terms in sequence and 8 or more in eight
    interleaved partial sums, so zero-padding a short row to a wide
    width changes its rounding.  One padded ``.sum(axis=1)`` over the
    whole batch would therefore break bit-identity with solo solves.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        closed=st.booleans(),
        exponent=st.integers(-3, 3),
    )
    def test_every_edge_count_at_every_pad_width(self, seed, closed, exponent):
        rng = np.random.default_rng(seed)
        for width in range(2, 13):  # padded cities: up to 11 path edges
            sizes = np.arange(2, width + 1)  # real edges 1 .. width - 1
            weights = np.zeros((sizes.size, width, width))
            orders = np.tile(np.arange(width), (sizes.size, 1))
            expected = []
            for row, n in enumerate(sizes):
                real = rng.random((1, n, n)) * 10.0**exponent
                order = rng.permutation(n)[None, :]
                weights[row, :n, :n] = real
                orders[row, :n] = order
                expected.append(batch_proxy(real, order, closed)[0])
            got = ragged_proxy(weights, orders, sizes, closed)
            np.testing.assert_array_equal(got, expected)
