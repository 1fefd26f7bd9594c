"""Sparse-mode scale path: lazy distances, capacity routing, parity.

These tests pin the contract that lets ``repro solve clustered:100000:7``
run end-to-end without an (n, n) allocation: lazy distance slices are
IEEE-identical to full-matrix values on every metric, candidate lists
travel through the shared-memory arena, oversized full-matrix requests are
routed to sparse solvers with a clear error, and a sparse batch solve is
bit-identical whatever the worker count.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tsp.generators import clustered_instance, uniform_instance
from repro.tsp.instance import EdgeWeightType, TSPInstance
from repro.tsp.neighbors import build_candidate_lists

COORD_METRICS = (
    EdgeWeightType.EUC_2D,
    EdgeWeightType.CEIL_2D,
    EdgeWeightType.MAX_2D,
    EdgeWeightType.MAN_2D,
    EdgeWeightType.ATT,
    EdgeWeightType.GEO,
)


def _metric_instance(metric: EdgeWeightType, n: int, seed: int) -> TSPInstance:
    rng = np.random.default_rng(seed)
    if metric is EdgeWeightType.GEO:
        coords = np.column_stack([
            rng.uniform(-80, 80, size=n), rng.uniform(-170, 170, size=n),
        ])
    else:
        coords = rng.uniform(0, 1000, size=(n, 2))
    return TSPInstance(f"m-{metric.name}", coords, metric)


class TestLazyDistanceParity:
    """Lazy slices must equal full-matrix values bit-for-bit."""

    @pytest.mark.parametrize("metric", COORD_METRICS, ids=lambda m: m.name)
    def test_distance_block_matches_matrix(self, metric):
        inst = _metric_instance(metric, 60, seed=1)
        full = inst.distance_matrix()
        rows = np.array([0, 7, 13, 59])
        cols = np.array([2, 7, 30, 58, 59])
        block = inst.distance_block(rows, cols)
        np.testing.assert_array_equal(block, full[np.ix_(rows, cols)])
        # Duplicate columns (padded batches repeat ids): d(i, i) = 0 in
        # every copy, not only the last.
        cols = np.array([0, 0, 7, 59, 7, 59])
        block = inst.distance_block(rows, cols)
        np.testing.assert_array_equal(block, full[np.ix_(rows, cols)])

    @pytest.mark.parametrize("metric", COORD_METRICS, ids=lambda m: m.name)
    def test_overlapping_block_diagonal_is_zero(self, metric):
        # GEO is the trap: its longitude formula does not analytically
        # vanish at i == j, so blocks need the same d(i, i) = 0 special
        # case the full matrix applies.
        inst = _metric_instance(metric, 40, seed=2)
        idx = np.arange(40)
        block = inst.distance_block(idx, idx)
        np.testing.assert_array_equal(np.diag(block), 0.0)
        np.testing.assert_array_equal(block, inst.distance_matrix())

    @pytest.mark.parametrize("metric", COORD_METRICS, ids=lambda m: m.name)
    def test_edge_lengths_match_matrix(self, metric):
        inst = _metric_instance(metric, 50, seed=3)
        full = inst.distance_matrix()
        rng = np.random.default_rng(4)
        i = rng.integers(0, 50, size=200)
        j = rng.integers(0, 50, size=200)
        np.testing.assert_array_equal(inst._edge_lengths(i, j), full[i, j])

    @pytest.mark.parametrize("metric", COORD_METRICS, ids=lambda m: m.name)
    def test_tour_length_matches_matrix_sum(self, metric):
        inst = _metric_instance(metric, 50, seed=5)
        full = inst.distance_matrix()
        order = np.random.default_rng(6).permutation(50)
        expected = full[order, np.roll(order, -1)].sum()
        assert inst.tour_length(order) == expected

    @pytest.mark.parametrize("metric", COORD_METRICS, ids=lambda m: m.name)
    def test_submatrix_matches_matrix(self, metric):
        inst = _metric_instance(metric, 45, seed=7)
        full = inst.distance_matrix()
        idx = np.array([3, 11, 12, 40, 44])
        np.testing.assert_array_equal(
            inst.distance_submatrix(idx), full[np.ix_(idx, idx)]
        )


class TestArenaCandidates:
    def test_publish_and_attach_roundtrip(self):
        from repro.engine.arena import (
            InstanceArena,
            attach_shared_candidates,
            clear_attachments,
        )

        inst = clustered_instance(300, seed=6)
        expected = build_candidate_lists(inst, 6)
        with InstanceArena() as arena:
            ref = arena.publish(inst, with_candidates=6)
            assert ref.neighbor_k == 6
            try:
                lists = attach_shared_candidates(ref)
                assert lists is not None and lists.k == 6
                np.testing.assert_array_equal(
                    lists.neighbors, expected.neighbors
                )
                np.testing.assert_array_equal(
                    lists.distances, expected.distances
                )
                assert not lists.neighbors.flags.writeable
            finally:
                clear_attachments()

    def test_attach_without_candidates_returns_none(self):
        from repro.engine.arena import (
            InstanceArena,
            attach_shared_candidates,
            clear_attachments,
        )

        inst = uniform_instance(50, seed=7)
        with InstanceArena() as arena:
            ref = arena.publish(inst)
            try:
                assert attach_shared_candidates(ref) is None
            finally:
                clear_attachments()

    def test_republish_upgrades_k(self):
        from repro.engine.arena import InstanceArena

        inst = uniform_instance(80, seed=8)
        with InstanceArena() as arena:
            narrow = arena.publish(inst, with_candidates=4)
            wide = arena.publish(inst, with_candidates=8)
            assert narrow.neighbor_k == 4
            assert wide.neighbor_k == 8
            # Narrower re-request reuses the wide entry.
            again = arena.publish(inst, with_candidates=4)
            assert again.neighbor_k == 8


class TestCapacityRouting:
    def test_full_matrix_solver_rejected_oversize(self):
        from repro.engine.registry import check_instance_capacity

        with pytest.raises(ConfigError, match="two_opt"):
            check_instance_capacity("sa_tsp", 50_000)

    def test_sparse_solver_accepted_any_size(self):
        from repro.engine.registry import check_instance_capacity

        check_instance_capacity("two_opt", 1_000_000)
        check_instance_capacity("taxi", 1_000_000)

    def test_under_guard_accepted(self):
        from repro.engine.registry import check_instance_capacity

        check_instance_capacity("sa_tsp", 2_000)

    def test_cached_distance_matrix_oversize(self):
        from repro.engine.jobs import cached_distance_matrix

        coords = np.zeros((15_001, 2))
        inst = TSPInstance("big", coords)
        with pytest.raises(ConfigError, match="sparse-capable"):
            cached_distance_matrix(inst)

    def test_batch_create_rejects_oversize_matrix_solver(self):
        from repro.engine.jobs import BatchJob

        with pytest.raises(ConfigError, match="sparse-capable"):
            BatchJob.create(["clustered:50000:1"], solver="sa_tsp")

    def test_batch_create_accepts_sparse_solver(self):
        from repro.engine.jobs import BatchJob

        job = BatchJob.create(["clustered:50000:1"], solver="two_opt")
        assert job.instances[0].size == 50_000

    def test_service_admission_rejects_oversize(self):
        from repro.service.queue import SolveRequest

        with pytest.raises(ConfigError, match="sparse-capable"):
            SolveRequest.create("clustered:50000:1", solver="sa_tsp")

    def test_service_admission_accepts_sparse(self):
        from repro.service.queue import SolveRequest

        request = SolveRequest.create("clustered:50000:1", solver="two_opt")
        assert request.spec.size == 50_000


class TestSolverRegistryCapabilities:
    def test_needs_matrix_flags(self):
        from repro.engine.registry import get_solver, sparse_solver_names

        assert get_solver("sa_tsp").needs_matrix
        assert get_solver("greedy").needs_matrix
        assert not get_solver("two_opt").needs_matrix
        assert not get_solver("taxi").needs_matrix
        names = sparse_solver_names()
        assert "two_opt" in names and "sa_tsp" not in names


@pytest.mark.slow
class TestSparseWorkerParity:
    """A sparse batch solve is bit-identical across worker counts."""

    def test_workers_1_vs_2_bit_identical(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.core import EngineConfig
        from repro.engine import BatchJob, run_batch
        from repro.utils.hashing import tour_hash

        class CountingPool(ProcessPoolExecutor):
            submitted = 0

            def submit(self, *args, **kwargs):
                self.submitted += 1
                return super().submit(*args, **kwargs)

        token = "clustered:16000:3"  # above the full-matrix guard
        params = {"k": 4, "max_rounds": 1}

        def hashes(workers, executor=None):
            job = BatchJob.create(
                [token],
                solver="two_opt",
                params=params,
                engine=EngineConfig(replicas=1, workers=workers, seed=0),
            )
            result = run_batch(job, executor=executor)[0]
            return [tour_hash(replica.order) for replica in result.replicas]

        inline = hashes(1)
        # two_opt is deterministic, so the job is one task, which the
        # engine solves inline at any worker count; an explicit executor
        # takes even a single task across the process boundary.
        with CountingPool(2) as pool:
            pooled = hashes(2, pool)
        assert pool.submitted == 1
        assert pooled == inline


class TestScaleBenchGrid:
    def test_scale_entries_and_curvature(self):
        from repro.engine.bench import run_bench

        payload = run_bench(
            quick=True, replica_batch_sizes=[], scale_sizes=[300, 900],
            portfolio_sizes=[],
        )
        cells = [e for e in payload["entries"] if e["kind"] == "scale"]
        assert [c["n"] for c in cells] == [300, 900]
        for cell in cells:
            assert cell["seconds"] > 0
            assert cell["peak_rss_bytes"] > 0
            assert cell["tour_hash"]
        curvature = payload["scale_curvature"]
        assert len(curvature) == 1
        assert curvature[0]["n_from"] == 300
        assert curvature[0]["n_to"] == 900
        assert np.isfinite(curvature[0]["exponent"])


class TestCLIInstanceToken:
    def test_solve_positional_token(self, capsys):
        from repro.cli import main

        code = main(["solve", "uniform:120:3", "--sweeps", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform120@3" in out

    def test_token_conflicts_with_size(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["solve", "uniform:120:3", "--size", "76"])
