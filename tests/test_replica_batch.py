"""Replica folding: bit-identity, the fold rule, and its resources.

The contract under test (see ``docs/backends.md``): folding a taxi
job's R replicas into one pipeline run must be *bit-identical* to
running them as separate tasks — every replica keeps its own RNG
streams and each chunk draws exactly the blocks it would draw solo —
and the fold engages only where the run itself allows it.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.macro.batch as batch
from repro.clustering.cache import SubmatrixCache
from repro.core.config import EngineConfig, TAXIConfig
from repro.core.solver import TAXISolver, solve_taxi_replicas
from repro.devices.variation import DeviceVariation
from repro.engine.bench import (
    _bench_replica_batch,
    compute_replica_batch_speedups,
)
from repro.engine.jobs import BatchJob
from repro.engine.replica_batch import foldable
from repro.engine.runner import ReplicaTask, run_batch, run_tasks, set_task_hook
from repro.engine.wavefront import WavefrontPool
from repro.errors import ConfigError
from repro.macro.batch import BatchedMacroSolver, SubProblem, solve_chunks
from repro.macro.config import MacroConfig
from repro.macro.schedule import paper_schedule
from repro.tsp.generators import clustered_instance
from repro.utils.rng import replica_seeds
from repro.xbar.crossbar import CrossbarConfig


def _job(solver="taxi", token="clustered:40:3", replicas=4, **params):
    return BatchJob.create(
        [token],
        solver=solver,
        params=params,
        engine=EngineConfig(replicas=replicas, workers=1, seed=0),
    )


def _per_replica(job):
    """The job's replicas as separate engine tasks (never folded)."""
    seeds = replica_seeds(job.engine.seed, job.engine.replicas)
    return run_tasks([
        ReplicaTask(spec=job.instances[0], solver=job.solver,
                    params=job.params, seed=seed, index=index,
                    instance_index=index)
        for index, seed in enumerate(seeds)
    ])


def _replica_tuples(replicas):
    return [
        (r.index, r.seed, r.length, tuple(r.order.tolist()))
        for r in replicas
    ]


class TestEngagement:
    def test_supported_solvers_and_params(self):
        assert foldable(_job(sweeps=10), workers=1)
        # Only taxi folds; sa_tsp replicas run as ordinary tasks.
        assert not foldable(_job(solver="sa_tsp", sweeps=10), workers=1)
        # A pool runs the replicas, not the fold.
        assert not foldable(_job(sweeps=10), workers=2)
        # k-means hierarchies differ per seed.
        assert not foldable(_job(clustering="kmeans"), workers=1)
        assert not foldable(_job(mystery_knob=1), workers=1)


def _problem(rng, n, **shape):
    pts = rng.random((n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    return SubProblem(dist, **shape)


def _mixed_open_chunks(rng):
    """Open chunks of sizes 3-12 in every fixed-endpoint variant.

    ``(True, False)`` is the entry==exit conflict shape; the 3-city
    chunk with both ends pinned has nothing to anneal.
    """
    variants = [(True, True), (True, False), (False, False)]
    chunks = []
    for n in range(3, 13):
        fixed_first, fixed_last = variants[n % 3]
        chunks.append([
            _problem(rng, n, fixed_first=fixed_first, fixed_last=fixed_last)
            for _ in range(1 + n % 3)
        ])
    assert chunks[0][0].shape_key == (3, False, True, True)  # nothing to anneal
    return chunks


def _closed_chunks(rng):
    return [
        [_problem(rng, n, closed=True, fixed_first=False, fixed_last=False)
         for _ in range(count)]
        for n, count in ((4, 2), (7, 1), (9, 2), (12, 1))
    ]


#: Macro configs the ragged kernel must merge exactly.
KERNEL_CONFIGS = (
    MacroConfig(),
    MacroConfig(  # IMA-like: analog read noise, unguarded writes
        crossbar=CrossbarConfig(variation=DeviceVariation(read_noise_sigma=0.05)),
        guarded_updates=False,
    ),
    MacroConfig(wta_resolution=0.0),
)


class TestKernelBitIdentity:
    def test_merged_macro_kernel_equals_solo_per_chunk(self, monkeypatch):
        # Chunks of different shapes share one ragged kernel call, yet
        # each evolves exactly as its own solo solve.
        self._check_merged_equals_solo(monkeypatch)

    def test_merged_equals_solo_on_numpy_sweeps(self, monkeypatch, numpy_sweeps):
        self._check_merged_equals_solo(monkeypatch)

    @staticmethod
    def _check_merged_equals_solo(monkeypatch):
        calls = []
        kernel = batch.anneal_group_fast
        monkeypatch.setattr(
            batch, "anneal_group_fast",
            lambda *a, **k: calls.append(1) or kernel(*a, **k),
        )
        schedule = paper_schedule(30)
        for config in KERNEL_CONFIGS:
            for make_chunks in (_mixed_open_chunks, _closed_chunks):
                chunks = make_chunks(np.random.default_rng(3))
                solo = [
                    BatchedMacroSolver(config, seed=seed).solve_all(
                        problems, schedule
                    )
                    for seed, problems in enumerate(chunks)
                ]
                solvers = [
                    BatchedMacroSolver(config, seed=seed)
                    for seed in range(len(chunks))
                ]
                calls.clear()
                merged = solve_chunks(solvers, chunks, schedule)

                assert len(calls) == 1  # every chunk in one kernel call
                for solo_chunk, merged_chunk in zip(solo, merged):
                    for a, b in zip(solo_chunk, merged_chunk):
                        np.testing.assert_array_equal(a.order, b.order)
                        assert a.length == b.length
                        assert a.iterations == b.iterations
                        assert a.sweeps == b.sweeps


class TestEngineBitIdentity:
    @pytest.mark.parametrize("solver,token,params", [
        ("sa_tsp", "uniform:40:3", {"sweeps": 60}),
        ("taxi", "clustered:60:5", {"sweeps": 20}),
    ])
    def test_lockstep_equals_sequential(self, solver, token, params):
        job = _job(solver=solver, token=token, **params)
        batched = run_batch(job)[0]
        assert _replica_tuples(batched.replicas) == _replica_tuples(
            _per_replica(job)
        )

    def test_auto_engagement_is_invisible_in_results(self):
        # The fold needs no option: run_batch folds on its own, and an
        # injected executor forces per-replica dispatch instead.
        job = _job(token="clustered:48:9", sweeps=15)
        folded = run_batch(job)[0]
        with ThreadPoolExecutor(max_workers=2) as executor:
            tasks = run_batch(job, executor=executor)[0]
        assert _replica_tuples(folded.replicas) == _replica_tuples(tasks.replicas)

    def test_runtime_ineligible_taxi_falls_back_identically(self):
        # kmeans hierarchies diverge per replica seed, so the job runs
        # as per-replica tasks — the same tours either way.
        job = _job(token="clustered:48:2", replicas=2, sweeps=15,
                   clustering="kmeans")
        assert not foldable(job, workers=1)
        assert _replica_tuples(run_batch(job)[0].replicas) == _replica_tuples(
            _per_replica(job)
        )

    def test_task_hook_sees_the_same_instance_index_folded_or_not(self):
        # The fold fires the engine task hook once per replica, with the
        # instance's position, as the per-replica tasks do.
        def hooked(clustering):
            seen = []
            job = BatchJob.create(
                ["clustered:40:3", "clustered:44:5"], solver="taxi",
                params={"sweeps": 10, "clustering": clustering},
                engine=EngineConfig(replicas=2, workers=1, seed=0),
            )
            previous = set_task_hook(
                lambda task: seen.append((task.spec.label, task.instance_index))
            )
            try:
                run_batch(job)
            finally:
                set_task_hook(previous)
            return foldable(job, workers=1), seen

        folded, fold_seen = hooked("ward")
        per_replica, task_seen = hooked("kmeans")
        assert folded and not per_replica
        assert fold_seen == task_seen
        assert [index for _, index in fold_seen] == [0, 0, 1, 1]

    def test_progress_events_stream_per_replica(self):
        events = []
        job = _job(token="clustered:24:1", replicas=3, sweeps=20)
        assert foldable(job, workers=1)
        run_batch(job, events.append)
        assert [e.replica for e in events] == [0, 1, 2]
        assert all(e.total == 3 for e in events)


class TestFoldResources:
    def test_fold_cache_retains_no_blocks(self, monkeypatch):
        built = []
        init = SubmatrixCache.__init__

        def record(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            built.append(cache)

        monkeypatch.setattr(SubmatrixCache, "__init__", record)
        job = _job(token="clustered:60:5", replicas=3, sweeps=10)
        assert foldable(job, workers=1)
        run_batch(job)
        assert built
        for cache in built:
            assert not cache.retain_cross_blocks
            assert not cache._cross

    def test_fold_honours_taxi_workers(self, monkeypatch):
        executors = []
        resolve = WavefrontPool._resolve_executor

        def record(pool, pending):
            executor = resolve(pool, pending)
            executors.append(executor)
            return executor

        monkeypatch.setattr(WavefrontPool, "_resolve_executor", record)
        job = _job(token="clustered:60:5", replicas=2, sweeps=10, workers=2)
        assert foldable(job, workers=1)
        folded = run_batch(job)[0]
        assert any(executor is not None for executor in executors)

        instance = clustered_instance(60, seed=5)
        for replica in folded.replicas:
            solo = TAXISolver(
                TAXIConfig(sweeps=10, seed=replica.seed, workers=1)
            ).solve(instance)
            np.testing.assert_array_equal(replica.order, solo.tour.order)

    def test_replicas_need_one_hierarchy(self):
        # k-means draws its clusters per seed, so replicas cannot share.
        config = TAXIConfig(sweeps=10, clustering="kmeans")
        with pytest.raises(ConfigError, match="clustering='ward'"):
            solve_taxi_replicas(clustered_instance(40, seed=1), config, [0, 1])


class TestBenchGrid:
    def test_replica_batch_grid_reports_bit_identical_speedup(self):
        entries = _bench_replica_batch(
            (30,), sweeps=8, replicas=2, seed=0, repeats=1
        )
        assert [e["mode"] for e in entries] == ["tasks", "folded"]
        assert all(e["seconds"] > 0 for e in entries)
        speedups = compute_replica_batch_speedups(entries)
        assert len(speedups) == 1
        cell = speedups[0]
        assert cell["n"] == 30 and cell["replicas"] == 2
        assert cell["bit_identical"] is True
        assert cell["speedup"] is not None and cell["speedup"] > 0
