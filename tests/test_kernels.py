"""Tests for the selectable kernel backends (repro.kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.ising.annealer import MetropolisAnnealer
from repro.ising.model import IsingModel
from repro.ising.sa_tsp import SimulatedAnnealingTSP
from repro.kernels import BACKEND_FAST, BACKENDS, resolve_backend
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


class TestResolveBackend:
    def test_auto_and_none_resolve_to_fast(self):
        assert resolve_backend("auto") == BACKEND_FAST
        assert resolve_backend(None) == BACKEND_FAST

    @pytest.mark.parametrize("name", BACKENDS)
    def test_known_names_pass_through(self, name):
        # ``array`` is an alias of ``fast``; the others name themselves.
        expected = BACKEND_FAST if name == "array" else name
        assert resolve_backend(name) == expected

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            resolve_backend("cuda")


class TestUnknownBackendEverywhere:
    def test_metropolis(self):
        with pytest.raises(ConfigError):
            MetropolisAnnealer(backend="bogus")

    def test_sa_tsp(self):
        with pytest.raises(ConfigError):
            SimulatedAnnealingTSP(backend="bogus")

    def test_macro_batch(self):
        with pytest.raises(ConfigError):
            BatchedMacroSolver(backend="bogus")

    def test_taxi_config(self):
        from repro.core import TAXIConfig

        with pytest.raises(ConfigError):
            TAXIConfig(backend="bogus")

    def test_registry_param(self):
        from repro.engine import solve_with

        inst = uniform_instance(12, seed=0)
        with pytest.raises(ConfigError):
            solve_with("sa_tsp", inst, sweeps=5, backend="bogus")


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


class TestMetropolisBackends:
    def test_dense_fast_falls_back_bit_exact(self):
        # Coloring is useless on a dense graph; the fast kernel must
        # degrade to the reference loop and match it bit for bit.
        model = dense_model(8)
        ref = MetropolisAnnealer(sweeps=60, seed=3, backend="reference").anneal(model)
        fast = MetropolisAnnealer(sweeps=60, seed=3, backend="fast").anneal(model)
        assert ref.energy == fast.energy
        np.testing.assert_array_equal(ref.spins, fast.spins)
        np.testing.assert_array_equal(ref.energy_trace, fast.energy_trace)

    def test_sparse_quality_parity(self):
        # Different streams, same physics: mean best energy over seeds
        # must land in the same quality class.
        model = lattice_model(80, seed=4)
        ref = [
            MetropolisAnnealer(sweeps=120, seed=s, backend="reference")
            .anneal(model).energy
            for s in range(4)
        ]
        fast = [
            MetropolisAnnealer(sweeps=120, seed=s, backend="fast")
            .anneal(model).energy
            for s in range(4)
        ]
        assert abs(np.mean(ref) - np.mean(fast)) <= 0.1 * abs(np.mean(ref))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_best_energy_matches_best_spins(self, backend):
        # The flip-journal reconstruction must return exactly the state
        # whose energy was recorded as the best.
        model = lattice_model(40, seed=5)
        result = MetropolisAnnealer(sweeps=40, seed=6, backend=backend).anneal(model)
        assert model.energy(result.spins) == pytest.approx(result.energy)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_descend_reaches_local_minimum(self, backend):
        model = lattice_model(48, seed=7)
        result = MetropolisAnnealer(sweeps=100, seed=8, backend=backend).descend(model)
        for i in range(model.n):
            assert model.flip_delta(result.spins, i) >= -1e-9

    def test_descend_fixed_points_identical(self):
        # A reference fixed point is a fast fixed point and vice versa:
        # both backends return it unchanged.
        model = lattice_model(48, seed=9)
        fixed = MetropolisAnnealer(sweeps=100, seed=1, backend="reference").descend(model)
        for backend in BACKENDS:
            again = MetropolisAnnealer(sweeps=50, seed=2, backend=backend).descend(
                model, initial=fixed.spins
            )
            np.testing.assert_array_equal(again.spins, fixed.spins)
            assert again.accepted_flips == 0

    def test_fast_solves_ferromagnet_ground_state(self):
        # Sparse ferromagnetic ring: the fast kernel must find the
        # aligned ground state just like the reference.
        n = 32
        couplings = np.zeros((n, n))
        i = np.arange(n)
        couplings[i, (i + 1) % n] = 1.0
        couplings[(i + 1) % n, i] = 1.0
        model = IsingModel(couplings)
        result = MetropolisAnnealer(sweeps=200, seed=0, backend="fast").anneal(model)
        assert result.energy == pytest.approx(-n)


class TestSATSPBackends:
    # Backend parity (bit-exact tours on registry instances, aggregate
    # quality over seeds) lives in the backend x solver matrix:
    # tests/test_parity_matrix.py.

    @pytest.mark.parametrize("size", [76, 200])
    def test_registry_instances_bit_exact(self, size):
        # Larger-n spot check than the matrix's common instance: the
        # hybrid scalar/batch sweep must replay the reference Markov
        # chain exactly at realistic sizes too.
        inst = load_benchmark(size)
        ref = SimulatedAnnealingTSP(sweeps=60, seed=11, backend="reference").solve(inst)
        fast = SimulatedAnnealingTSP(sweeps=60, seed=11, backend="fast").solve(inst)
        assert fast.length == ref.length
        np.testing.assert_array_equal(fast.order, ref.order)

    def test_initial_order_respected(self):
        inst = uniform_instance(20, seed=13)
        initial = np.roll(np.arange(20), 5)
        tour = SimulatedAnnealingTSP(sweeps=5, seed=3, backend="fast").solve(
            inst, initial
        )
        assert sorted(tour.order.tolist()) == list(range(20))

    def test_tiny_instances(self):
        for n in (4, 5):
            inst = uniform_instance(n, seed=14)
            tour = SimulatedAnnealingTSP(sweeps=20, seed=0, backend="fast").solve(inst)
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
        solver = BatchedMacroSolver(seed=0, backend="fast")
        for sol in solver.solve_all(self.problems(), paper_schedule(60)):
            assert sorted(sol.order.tolist()) == list(range(8))
            assert sol.order[0] == 0
            assert sol.order[-1] == 7

    # Macro-level distribution parity between backends is asserted for
    # every macro-based registry solver in tests/test_parity_matrix.py.

    def test_fast_deterministic_given_seed(self):
        a = BatchedMacroSolver(seed=5, backend="fast").solve_all(
            self.problems(4), paper_schedule(40)
        )
        b = BatchedMacroSolver(seed=5, backend="fast").solve_all(
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


class TestBackendThreading:
    # Per-solver backend agreement (bit-exact and distribution-level)
    # is swept across the whole registry in tests/test_parity_matrix.py;
    # here we only keep the TAXI end-to-end threading check.

    def test_taxi_backend_flows_to_macro(self):
        from repro.core import TAXIConfig, TAXISolver

        inst = uniform_instance(50, seed=16)
        for backend in BACKENDS:
            result = TAXISolver(
                TAXIConfig(sweeps=20, seed=0, backend=backend)
            ).solve(inst)
            assert sorted(result.tour.order.tolist()) == list(range(50))
