"""Tests for the batched (chip-parallel) macro solver."""

import numpy as np
import pytest

from repro.baselines.exact import held_karp_path
from repro.errors import MacroError
from repro.macro.batch import BatchedMacroSolver, SubProblem, solve_chunks
from repro.macro.config import MacroConfig
from repro.macro.schedule import paper_schedule
from repro.tsp.generators import uniform_instance


def open_problem(seed: int, n: int = 8, tag=None) -> SubProblem:
    inst = uniform_instance(n, seed=seed)
    return SubProblem(
        inst.distance_matrix(),
        closed=False,
        fixed_first=True,
        fixed_last=True,
        tag=seed if tag is None else tag,
    )


class TestSubProblem:
    def test_defaults(self):
        p = open_problem(0)
        assert p.n == 8
        np.testing.assert_array_equal(p.initial_order, np.arange(8))

    def test_bad_initial_order(self):
        inst = uniform_instance(5, seed=0)
        with pytest.raises(MacroError):
            SubProblem(inst.distance_matrix(), initial_order=np.zeros(5, int))

    def test_closed_with_fixed_rejected(self):
        inst = uniform_instance(5, seed=0)
        with pytest.raises(MacroError):
            SubProblem(inst.distance_matrix(), closed=True, fixed_first=True)

    def test_shape_key_groups(self):
        a, b = open_problem(1), open_problem(2)
        assert a.shape_key == b.shape_key


class TestSolveAll:
    def test_empty(self):
        assert BatchedMacroSolver().solve_all([]) == []

    def test_validity_and_endpoints(self):
        problems = [open_problem(i) for i in range(12)]
        solver = BatchedMacroSolver(MacroConfig(restarts=1), seed=0)
        solutions = solver.solve_all(problems, paper_schedule(80))
        assert len(solutions) == 12
        for sol in solutions:
            assert sorted(sol.order.tolist()) == list(range(8))
            assert sol.order[0] == 0
            assert sol.order[-1] == 7

    def test_tags_preserved_in_order(self):
        problems = [open_problem(i, tag=f"t{i}") for i in range(5)]
        solutions = BatchedMacroSolver(seed=0).solve_all(
            problems, paper_schedule(20)
        )
        assert [s.tag for s in solutions] == [f"t{i}" for i in range(5)]

    def test_mixed_sizes_grouped(self):
        problems = [open_problem(1, n=6), open_problem(2, n=9), open_problem(3, n=6)]
        solutions = BatchedMacroSolver(seed=0).solve_all(
            problems, paper_schedule(30)
        )
        assert [s.order.size for s in solutions] == [6, 9, 6]

    def test_capacity_enforced(self):
        with pytest.raises(MacroError):
            BatchedMacroSolver(MacroConfig(max_cities=6)).solve_all(
                [open_problem(0, n=8)]
            )

    def test_trivial_sizes_skip_annealing(self):
        p2 = open_problem(0, n=2)
        p3 = open_problem(1, n=3)
        solutions = BatchedMacroSolver(seed=0).solve_all(
            [p2, p3], paper_schedule(20)
        )
        assert solutions[0].sweeps == 0
        np.testing.assert_array_equal(solutions[0].order, [0, 1])
        np.testing.assert_array_equal(solutions[1].order, p3.initial_order)

    def test_closed_tours_valid(self):
        inst = uniform_instance(9, seed=5)
        p = SubProblem(inst.distance_matrix(), closed=True,
                       fixed_first=False, fixed_last=False)
        sol = BatchedMacroSolver(seed=1).solve_all([p], paper_schedule(80))[0]
        assert sorted(sol.order.tolist()) == list(range(9))

    def test_length_reported_correctly(self):
        p = open_problem(3)
        sol = BatchedMacroSolver(seed=0).solve_all([p], paper_schedule(40))[0]
        manual = p.distances[sol.order[:-1], sol.order[1:]].sum()
        assert sol.length == pytest.approx(manual)

    def test_deterministic_given_seed(self):
        problems_a = [open_problem(i) for i in range(4)]
        problems_b = [open_problem(i) for i in range(4)]
        sols_a = BatchedMacroSolver(seed=7).solve_all(problems_a, paper_schedule(40))
        sols_b = BatchedMacroSolver(seed=7).solve_all(problems_b, paper_schedule(40))
        for a, b in zip(sols_a, sols_b):
            np.testing.assert_array_equal(a.order, b.order)


class TestQualityAndRestarts:
    def test_near_exact_on_small_problems(self):
        # Guarded dynamics with restarts should land close to DP-optimal.
        problems = [open_problem(100 + i) for i in range(10)]
        solver = BatchedMacroSolver(MacroConfig(restarts=3), seed=1)
        solutions = solver.solve_all(problems, paper_schedule(300))
        ratios = []
        for sol in solutions:
            p = problems[[q.tag for q in problems].index(sol.tag)]
            _, opt = held_karp_path(p.distances, 0, p.n - 1)
            ratios.append(sol.length / opt)
        assert np.mean(ratios) < 1.25
        assert np.min(ratios) < 1.1

    def test_restarts_do_not_hurt(self):
        problems = [open_problem(200 + i) for i in range(6)]
        one = BatchedMacroSolver(MacroConfig(restarts=1), seed=3).solve_all(
            [open_problem(200 + i) for i in range(6)], paper_schedule(150)
        )
        three = BatchedMacroSolver(MacroConfig(restarts=3), seed=3).solve_all(
            problems, paper_schedule(150)
        )
        assert np.mean([s.length for s in three]) <= np.mean(
            [s.length for s in one]
        ) * 1.05

    def test_iteration_accounting_scales_with_restarts(self):
        p = open_problem(5)
        sol1 = BatchedMacroSolver(MacroConfig(restarts=1), seed=0).solve_all(
            [open_problem(5)], paper_schedule(50)
        )[0]
        sol3 = BatchedMacroSolver(MacroConfig(restarts=3), seed=0).solve_all(
            [p], paper_schedule(50)
        )[0]
        assert sol3.iterations == 3 * sol1.iterations

    def test_merged_chunks_need_one_config(self):
        chunks = [[open_problem(0)], [open_problem(1)]]
        solvers = [
            BatchedMacroSolver(MacroConfig(restarts=1), seed=0),
            BatchedMacroSolver(MacroConfig(restarts=2), seed=1),
        ]
        with pytest.raises(MacroError, match="one shared config"):
            solve_chunks(solvers, chunks, paper_schedule(20))

    def test_merged_chunks_need_one_closed_flag(self):
        # The padded batch has one neighbour rule: a closed top-level
        # tour cannot share it with open cluster paths.
        tour = SubProblem(
            uniform_instance(6, seed=4).distance_matrix(),
            closed=True, fixed_first=False, fixed_last=False,
        )
        chunks = [[open_problem(0)], [tour]]
        solvers = [BatchedMacroSolver(seed=0), BatchedMacroSolver(seed=1)]
        with pytest.raises(MacroError, match="all closed or all open"):
            solve_chunks(solvers, chunks, paper_schedule(20))

    def test_unguarded_still_valid(self):
        problems = [open_problem(i) for i in range(4)]
        solver = BatchedMacroSolver(
            MacroConfig(guarded_updates=False, restarts=1), seed=2
        )
        for sol in solver.solve_all(problems, paper_schedule(60)):
            assert sorted(sol.order.tolist()) == list(range(8))
