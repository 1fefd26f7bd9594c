"""Tests for the comparator systems (HVC, IMA, CIMA, Neuro-Ising)."""

import pytest

from repro.baselines.cima import CIMASolver, IMASolver, OFF_MACRO_SPIN_ACCESS
from repro.baselines.concorde_surrogate import ConcordeSurrogate
from repro.baselines.hvc import HVCSolver
from repro.baselines.neuro_ising import NeuroIsingSolver
from repro.core import TAXIConfig, TAXISolver
from repro.macro.timing import MacroTiming
from repro.tsp.generators import clustered_instance, uniform_instance
from repro.utils.hashing import tour_hash

SWEEPS = 80


@pytest.fixture(scope="module")
def inst():
    return uniform_instance(150, seed=20)


@pytest.fixture(scope="module")
def reference(inst):
    return ConcordeSurrogate().solve(inst).length


class TestComparatorValidity:
    @pytest.mark.parametrize(
        "solver_cls", [HVCSolver, IMASolver, CIMASolver, NeuroIsingSolver]
    )
    def test_valid_tour(self, solver_cls, inst):
        result = solver_cls(sweeps=SWEEPS, seed=0).solve(inst)
        assert sorted(result.tour.order.tolist()) == list(range(inst.n))

    @pytest.mark.parametrize(
        "solver_cls", [HVCSolver, IMASolver, CIMASolver, NeuroIsingSolver]
    )
    def test_named(self, solver_cls):
        assert solver_cls(sweeps=SWEEPS).name

    def test_invalid_cluster_size(self):
        with pytest.raises(Exception):
            HVCSolver(max_cluster_size=2)


class TestQualityOrdering:
    def test_taxi_beats_hvc(self, inst, reference):
        taxi = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=0)).solve(inst)
        hvc = HVCSolver(sweeps=SWEEPS, seed=0).solve(inst)
        assert taxi.tour.length < hvc.tour.length

    def test_taxi_beats_ima(self, inst, reference):
        taxi = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=0)).solve(inst)
        ima = IMASolver(sweeps=SWEEPS, seed=0).solve(inst)
        assert taxi.tour.length < ima.tour.length

    def test_cima_beats_hvc(self, inst):
        cima = CIMASolver(sweeps=SWEEPS, seed=0).solve(inst)
        hvc = HVCSolver(sweeps=SWEEPS, seed=0).solve(inst)
        assert cima.tour.length < hvc.tour.length

    def test_taxi_close_to_or_beats_cima(self, inst):
        taxi = TAXISolver(TAXIConfig(sweeps=SWEEPS, seed=0)).solve(inst)
        cima = CIMASolver(sweeps=SWEEPS, seed=0).solve(inst)
        assert taxi.tour.length <= cima.tour.length * 1.05


class TestNeuroIsing:
    def test_modeled_seconds_positive_and_sequential(self, inst):
        result = NeuroIsingSolver(sweeps=SWEEPS, seed=0).solve(inst)
        assert result.modeled_seconds is not None
        assert result.modeled_seconds > 0

    def test_modeled_latency_grows_with_size(self):
        small = NeuroIsingSolver(sweeps=SWEEPS, seed=0).solve(
            uniform_instance(100, seed=22)
        )
        large = NeuroIsingSolver(sweeps=SWEEPS, seed=0).solve(
            uniform_instance(300, seed=23)
        )
        assert large.modeled_seconds > small.modeled_seconds

    def test_selective_budget_tour_is_pinned(self):
        # The solve_all path: the pipeline builds every wave's
        # sub-problems in process and hands them over in level order.
        # 3,000 cities make ~300 level-1 clusters against a budget of
        # 40, so most problems keep their nearest-neighbour input order.
        # Recorded before the wave tasks built their own sub-problems.
        result = NeuroIsingSolver(sweeps=10, seed=2, cluster_budget=40).solve(
            clustered_instance(3000, seed=5)
        )
        assert tour_hash(result.tour.order) == "6fef3cb05f612abb"
        assert result.tour.length == 381210


class TestOffMacroPenalty:
    def test_ima_iteration_slower_than_taxi(self):
        taxi_iteration = MacroTiming().iteration_latency
        ima_iteration = IMASolver.modeled_iteration_latency()
        assert ima_iteration == pytest.approx(
            taxi_iteration + OFF_MACRO_SPIN_ACCESS
        )
        assert ima_iteration > taxi_iteration
