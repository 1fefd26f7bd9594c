"""Concurrency stress tests: cache hammering and duplicate-fingerprint storms.

Single-threaded tests can't catch lost updates or double-dispatch; these
run real thread contention and then reconcile every ledger:

* N threads of mixed get/put on one :class:`ResultCache` — counters
  must sum exactly (no lost increment), the size bound must hold, and
  the service metrics mirror must agree with the cache's own ints;
* N threads submitting the *same* fingerprint to a live
  :class:`SolveService` — the engine must run that fingerprint exactly
  once (in-flight dedup), with every other submission accounted for as
  a dedup or a cache hit.
"""

import threading
import time

import pytest

from repro.core.config import ServiceConfig
from repro.errors import ShedError
from repro.service import ResultCache, ServiceMetrics, SolveRequest, SolveService

pytestmark = pytest.mark.slow

THREADS = 8
OPS_PER_THREAD = 400


class TestCacheStress:
    def test_counters_survive_thread_contention(self):
        metrics = ServiceMetrics()
        cache = ResultCache(capacity=16, metrics=metrics)
        keys = [f"fp{i}" for i in range(48)]
        per_thread_gets = [0] * THREADS
        per_thread_puts = [0] * THREADS
        errors = []

        def hammer(thread_index: int) -> None:
            try:
                for op in range(OPS_PER_THREAD):
                    key = keys[(thread_index * 13 + op * 7) % len(keys)]
                    if op % 3 == 0:
                        cache.put(key, {"v": thread_index, "op": op})
                        per_thread_puts[thread_index] += 1
                    else:
                        value = cache.get(key)
                        per_thread_gets[thread_index] += 1
                        if value is not None:
                            # Returned dicts are isolated copies; writing
                            # into one must never corrupt the store.
                            value["v"] = "scribble"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = cache.stats()
        total_gets = sum(per_thread_gets)
        assert stats["hits"] + stats["misses"] == total_gets
        assert stats["size"] <= 16
        assert len(cache) == stats["size"]
        # Inserts either still live or were evicted — nothing vanished.
        assert stats["evictions"] <= sum(per_thread_puts)
        # The metrics mirror is updated under the same lock: exact match.
        snapshot = metrics.snapshot()
        assert snapshot["repro_cache_hits_total"] == stats["hits"]
        assert snapshot["repro_cache_misses_total"] == stats["misses"]
        assert snapshot["repro_cache_evictions_total"] == stats["evictions"]
        for key in keys:
            value = cache.get(key)
            if value is not None:
                assert value["v"] != "scribble"

    def test_get_latency_bounded_during_large_save(self, tmp_path,
                                                   monkeypatch):
        """A drain-time save must not stall concurrent reads.

        ``save()`` holds the lock only for an O(entries) pointer
        snapshot; serialization and disk I/O run outside it.  Slowing
        ``json.dump`` to a crawl therefore must NOT show up in ``get``
        latency — if it does, serialization crept back under the lock.
        """
        import json as real_json

        import repro.service.cache as cache_module

        cache = ResultCache(capacity=512, path=str(tmp_path / "cache.json"))
        for i in range(400):
            cache.put(f"fp{i}", {"tour": list(range(50)), "i": i})

        dump_window = {}

        class SlowJson:
            def __getattr__(self, name):
                return getattr(real_json, name)

            @staticmethod
            def dump(payload, stream):
                dump_window["start"] = time.perf_counter()
                time.sleep(0.4)
                real_json.dump(payload, stream)
                dump_window["end"] = time.perf_counter()

        monkeypatch.setattr(cache_module, "json", SlowJson())

        get_latencies: list[tuple[float, float]] = []
        stop = threading.Event()

        def reader() -> None:
            index = 0
            while not stop.is_set():
                began = time.perf_counter()
                cache.get(f"fp{index % 400}")
                get_latencies.append((began, time.perf_counter() - began))
                index += 1

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            saved = cache.save()
        finally:
            stop.set()
            for thread in readers:
                thread.join()

        # Reads really did overlap the slowed serialization window...
        overlapped = [
            duration for began, duration in get_latencies
            if dump_window["start"] <= began <= dump_window["end"]
        ]
        assert overlapped
        # ...and none of them waited out the 0.4 s dump stall.
        assert max(duration for _, duration in get_latencies) < 0.2
        # The file written under contention still round-trips intact.
        fresh = ResultCache(capacity=512)
        assert fresh.load(saved) == 400


class TestDuplicateFingerprintStress:
    def test_inflight_dedup_never_solves_twice(self, monkeypatch):
        import repro.service.queue as queue_module

        executed_tasks = []
        execution_lock = threading.Lock()
        real_run_replica_task = queue_module.run_replica_task

        def counting_run_replica_task(task):
            with execution_lock:
                executed_tasks.append(
                    (task.spec, task.solver, task.params, task.seed)
                )
            return real_run_replica_task(task)

        monkeypatch.setattr(
            queue_module, "run_replica_task", counting_run_replica_task
        )

        submissions_per_thread = 5
        with SolveService(ServiceConfig()) as service:
            request = SolveRequest.create(
                "uniform:24:9", solver="sa_tsp", params={"sweeps": 10}, seed=0
            )
            barrier = threading.Barrier(THREADS)
            job_ids = []
            ids_lock = threading.Lock()
            errors = []

            def storm() -> None:
                try:
                    barrier.wait(timeout=30)
                    for _ in range(submissions_per_thread):
                        job = service.submit(request)
                        with ids_lock:
                            job_ids.append(job.id)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=storm) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            service.wait(job_ids[0], timeout=120)
            stats = service.stats()

        # The same fingerprint went through the engine exactly once.
        assert len(executed_tasks) == 1
        assert len(set(job_ids)) == 1

        counters = stats["requests"]
        total = THREADS * submissions_per_thread
        assert counters["requests"] == total
        # Every submission is exactly one of: the solve, a dedup onto
        # the in-flight job, or a cache hit after it finished.
        assert (
            counters["deduplicated"] + counters["served_from_cache"]
            == total - 1
        )
        assert counters["completed"] == 1
        assert counters["failed"] == 0
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == counters["served_from_cache"]

    def test_worker_kill_storm_recovers_every_request(self):
        """SIGKILL pool workers repeatedly mid-run; every job still lands.

        The recovery driver must respawn the broken pool and replay the
        lost chunks, so a kill storm costs latency, never answers.  The
        sibling in-process run (workers=1, no kills) pins the expected
        hashes: replayed work must be bit-identical.
        """
        from repro.service.faults import FaultInjector

        request_count = 12

        def requests():
            # Large enough that the batch is still solving while the
            # killer fires (n=200 x 400 sweeps ~ tens of ms per task).
            return [
                SolveRequest.create(
                    f"uniform:200:{i}", solver="sa_tsp",
                    params={"sweeps": 400}, seed=i,
                )
                for i in range(request_count)
            ]

        baseline = {}
        with SolveService(ServiceConfig()) as service:
            for request in requests():
                job = service.solve(request, timeout=120)
                assert job.status == "done"
                baseline[request.fingerprint()] = job.result["tour_hash"]

        # A survivable storm: a bounded burst of kills lands mid-run and
        # the respawn budget covers every break.  An *unbounded* storm
        # (faster than the budget) is meant to fail the group with
        # PoolBrokenError — that contract lives in test_chaos.py.
        with SolveService(
            ServiceConfig(workers=2, queue_depth=64,
                          max_retries=10)
        ) as service:
            stop_killing = threading.Event()
            kills = 0

            def killer() -> None:
                nonlocal kills
                for _ in range(6):
                    if stop_killing.wait(0.08):
                        return
                    if FaultInjector.kill_worker(service.pool):
                        kills += 1

            storm = threading.Thread(target=killer, daemon=True)
            storm.start()
            try:
                jobs = []
                for request in requests():
                    while True:
                        try:
                            jobs.append(service.submit(request))
                            break
                        except ShedError as exc:  # degraded mid-storm:
                            # honor the hint like a real client would
                            time.sleep(exc.retry_after)
                for job in jobs:
                    service.wait(job.id, timeout=120)
            finally:
                stop_killing.set()
                storm.join()

            assert [job.status for job in jobs] == ["done"] * request_count
            for request, job in zip(requests(), jobs):
                assert job.result["tour_hash"] == baseline[request.fingerprint()]
            assert kills > 0
            assert service.pool.respawns > 0
            stats = service.stats()
            assert stats["requests"]["pool_respawns"] == service.pool.respawns
            assert stats["requests"]["completed"] == request_count
            assert stats["requests"]["failed"] == 0
            # Recovered, not stuck degraded: the last successful batch
            # clears the flag, so new submissions are not shed.
            assert service.pool.degraded is False

    def test_distinct_fingerprints_under_contention_all_complete(self):
        with SolveService(ServiceConfig(queue_depth=256)) as service:
            request_count = 24
            results = [None] * request_count
            errors = []

            def submit_and_wait(index: int) -> None:
                try:
                    request = SolveRequest.create(
                        f"uniform:20:{index}", solver="sa_tsp",
                        params={"sweeps": 5}, seed=index,
                    )
                    job = service.solve(request, timeout=120)
                    results[index] = job.status
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit_and_wait, args=(i,))
                for i in range(request_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert results == ["done"] * request_count
            counters = service.stats()["requests"]
            assert counters["completed"] == request_count
            assert counters["batched_requests"] == request_count
