"""Fault-tolerance contracts: recovery, deadlines, drain, shed, chaos.

The PR-7 robustness surface, tested at every layer:

* :mod:`repro.engine.recovery` — bounded replay with deterministic
  backoff; per-task isolation; transient retry budgets;
* :class:`repro.engine.wavefront.WavefrontPool` — worker-kill respawn
  with bit-identical replayed results; degraded-mode bookkeeping;
* :class:`repro.service.queue.SolveService` — request deadlines
  (queued *and* in-flight), graceful drain vs fast-fail stop,
  degraded-mode shedding, health/readiness;
* :class:`repro.service.faults.FaultInjector` — the whole fault
  schedule is a pure function of one seed;
* :func:`repro.service.loadgen.run_loadtest` — a chaos run completes
  every request and repeats bit-for-bit under the same seeds;
* :class:`repro.service.cache.ResultCache` — corrupt persistence files
  are quarantined, counted, and logged instead of crashing startup.
"""

import functools
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.clustering.agglomerative import cluster_with_max_size
from repro.core.config import EngineConfig, LoadgenConfig, ServiceConfig
from repro.engine import (
    BatchJob,
    RetryPolicy,
    run_batch,
    run_with_recovery,
    set_task_hook,
)
from repro.engine.wavefront import WavefrontPool
from repro.errors import (
    ConfigError,
    PoolBrokenError,
    ShedError,
    TransientError,
)
from repro.service import ResultCache, SolveRequest, SolveService
from repro.service.faults import FaultConfig, FaultInjector
from repro.service.loadgen import classify_error, run_loadtest
from repro.tsp.generators import clustered_instance

from conftest import serve_in_thread


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.5, seed=42)
        delays = [policy.delay(k) for k in range(4)]
        assert delays == [policy.delay(k) for k in range(4)]
        for k, delay in enumerate(delays):
            base = 0.1 * 2.0 ** k
            assert base <= delay <= base * 1.5
        # A different seed draws different jitter.
        other = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                            jitter=0.5, seed=43)
        assert [other.delay(k) for k in range(4)] != delays

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.2, backoff_factor=3.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.2 * 9)

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": -0.2},
        {"seed": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy().delay(-1)


# ----------------------------------------------------------------------
# recovery driver
# ----------------------------------------------------------------------
def _no_sleep(_seconds: float) -> None:
    pass


@pytest.fixture(params=["inline", "threads"])
def executor_provider(request):
    """The driver's executor provider: inline, or a thread pool."""
    if request.param == "inline":
        yield lambda pending: None
        return
    with ThreadPoolExecutor(max_workers=2) as executor:
        yield lambda pending: executor


class TestRunWithRecovery:
    def test_inline_transient_retries_then_succeeds(self):
        attempts = {}

        def flaky(task):
            attempts[task] = attempts.get(task, 0) + 1
            if attempts[task] < 3:
                raise TransientError("blip")
            return task * 10

        outcomes = run_with_recovery(
            lambda pending: None, lambda broken: True, flaky, [1, 2],
            RetryPolicy(max_retries=3), sleep=_no_sleep,
        )
        assert [o.value for o in outcomes] == [10, 20]
        assert [o.retries for o in outcomes] == [2, 2]
        assert all(o.ok for o in outcomes)

    def test_transient_budget_exhaustion_is_final(self):
        def always_flaky(_task):
            raise TransientError("never settles")

        outcomes = run_with_recovery(
            lambda pending: None, lambda broken: True, always_flaky, [1],
            RetryPolicy(max_retries=2), sleep=_no_sleep,
        )
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, TransientError)
        assert outcomes[0].retries == 2

    def test_application_error_is_final_and_isolated(self):
        def picky(task):
            if task == "bad":
                raise ValueError("deterministic failure")
            return task.upper()

        outcomes = run_with_recovery(
            lambda pending: None, lambda broken: True, picky,
            ["good", "bad", "fine"],
            RetryPolicy(max_retries=3), sleep=_no_sleep,
        )
        assert outcomes[0].value == "GOOD"
        assert outcomes[2].value == "FINE"
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[1].retries == 0

    def test_before_task_transient_is_retried(self):
        calls = []

        def tripwire(task):
            calls.append(task)
            if len(calls) == 1:
                raise TransientError("injected")

        outcomes = run_with_recovery(
            lambda pending: None, lambda broken: True,
            lambda task: task + 1, [41],
            RetryPolicy(max_retries=2), before_task=tripwire,
            sleep=_no_sleep,
        )
        assert outcomes[0].value == 42
        assert outcomes[0].retries == 1
        assert calls == [41, 41]

    def test_on_retry_fires_per_redispatch(self):
        seen = []

        def flaky_once(task):
            if not seen:
                raise TransientError("first time only")
            return task

        outcomes = run_with_recovery(
            lambda pending: None, lambda broken: True, flaky_once, [7],
            RetryPolicy(max_retries=3),
            on_retry=lambda task, error: seen.append((task, str(error))),
            sleep=_no_sleep,
        )
        assert outcomes[0].value == 7
        assert seen == [(7, "first time only")]

    def test_on_result_fires_once_per_delivered_value(
        self, executor_provider
    ):
        attempts: dict[str, int] = {}

        def task_fn(task):
            attempts[task] = attempts.get(task, 0) + 1
            if task == "flaky" and attempts[task] == 1:
                raise TransientError("blip")
            if task == "bad":
                raise ValueError("deterministic failure")
            return task.upper()

        delivered = []
        outcomes = run_with_recovery(
            executor_provider, lambda broken: True, task_fn,
            ["good", "flaky", "bad", "fine"], RetryPolicy(max_retries=3),
            on_result=delivered.append, sleep=_no_sleep,
        )
        # Round one delivers in task order; the transient retry lands
        # in round two, once; the final error never reports.
        assert delivered == ["GOOD", "FINE", "FLAKY"]
        assert outcomes[1].retries == 1
        assert isinstance(outcomes[2].error, ValueError)

    def test_on_result_exception_propagates(self, executor_provider):
        class Refused(Exception):
            pass

        def refuse(value):
            raise Refused(value)

        with pytest.raises(Refused):
            run_with_recovery(
                executor_provider, lambda broken: True, lambda task: task,
                [1, 2], RetryPolicy(max_retries=3), on_result=refuse,
                sleep=_no_sleep,
            )

    def test_sleep_follows_policy_schedule(self):
        slept = []

        def flaky(task):
            if len(slept) < 2:
                raise TransientError("again")
            return task

        policy = RetryPolicy(max_retries=3, backoff_base=0.5, jitter=0.0)
        run_with_recovery(
            lambda pending: None, lambda broken: True, flaky, [1],
            policy, sleep=slept.append,
        )
        assert slept == [policy.delay(0), policy.delay(1)]


# ----------------------------------------------------------------------
# wavefront pool crash recovery
# ----------------------------------------------------------------------
def _square(task: int) -> int:
    return task * task


def _slow_square(task: int) -> int:
    time.sleep(0.05)
    return task * task


def _first_to_create(sentinel: str) -> bool:
    """True for the one caller, in any process, that creates ``sentinel``."""
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _kill_once_then(sentinel: str, fn, task):
    """SIGKILL the calling worker if it wins the sentinel create, else run ``fn``."""
    if _first_to_create(sentinel):
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(task)


def _sa_batch(workers: int) -> BatchJob:
    """Two instances x three ``sa_tsp`` replicas: per-replica tasks."""
    return BatchJob.create(
        ["uniform:24:1", "uniform:24:2"], solver="sa_tsp",
        params={"sweeps": 10},
        engine=EngineConfig(replicas=3, workers=workers, seed=0),
    )


def _tours(results) -> list:
    return [
        [(r.index, r.length, tuple(r.order.tolist())) for r in result.replicas]
        for result in results
    ]


class TestPoolRecovery:
    def test_kill_respawn_replay_is_bit_identical(self):
        baseline = WavefrontPool(workers=1).map(_square, list(range(12)))
        with WavefrontPool(workers=2, eager=True) as pool:
            pool.prestart()
            pids = pool.worker_pids()
            assert len(pids) == 2
            killer = threading.Timer(
                0.02, lambda: FaultInjector.kill_worker(pool)
            )
            killer.start()
            try:
                results = pool.map(_slow_square, list(range(12)))
            finally:
                killer.cancel()
            assert results == baseline
            assert pool.respawns >= 1
            assert pool.degraded is False  # cleared by the successful map

    def test_degraded_callback_fires_enter_and_exit(self):
        events = []
        with WavefrontPool(
            workers=2, eager=True,
            on_degraded=lambda active, secs: events.append((active, secs)),
        ) as pool:
            pool.prestart()
            threading.Timer(
                0.02, lambda: FaultInjector.kill_worker(pool)
            ).start()
            pool.map(_slow_square, list(range(8)))
        assert events and events[0] == (True, 0.0)
        assert events[-1][0] is False
        assert events[-1][1] >= 0.0

    def test_batch_runner_pool_replays_after_worker_suicide(self, tmp_path):
        """The engine's own batch pool rebuilds + replays after a crash.

        A task hook (inherited by forked workers) SIGKILLs the first
        worker that wins an atomic sentinel create; the replayed run
        must deliver every replica exactly once, bit-identical to the
        inline run.
        """
        from repro.engine.runner import ReplicaTask, run_tasks

        sentinel = str(tmp_path / "killed-once")

        def suicide_once(_task):
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)

        def make_tasks():
            return [
                ReplicaTask(
                    spec=SolveRequest.create(f"uniform:24:{i}").spec,
                    solver="sa_tsp", params=(("sweeps", 10),), seed=i,
                    index=0, instance_index=i,
                )
                for i in range(8)
            ]

        baseline = run_tasks(make_tasks(), workers=1)
        previous = set_task_hook(suicide_once)
        try:
            results = run_tasks(make_tasks(), workers=2)
        finally:
            set_task_hook(previous)
        assert os.path.exists(sentinel)  # the kill actually fired
        assert len(results) == len(baseline)
        for mine, theirs in zip(results, baseline):
            assert mine.length == theirs.length
            assert (mine.order == theirs.order).all()

    def test_batch_streams_each_replica_once_across_a_crash_replay(
        self, tmp_path
    ):
        sentinel = str(tmp_path / "killed-once")

        def suicide_once(_task):
            if _first_to_create(sentinel):
                os.kill(os.getpid(), signal.SIGKILL)

        baseline = run_batch(_sa_batch(workers=1))
        events = []
        previous = set_task_hook(suicide_once)
        try:
            results = run_batch(_sa_batch(workers=2), events.append)
        finally:
            set_task_hook(previous)
        assert os.path.exists(sentinel)  # the kill actually fired
        assert [event.completed for event in events] == list(range(1, 7))
        assert len({(e.instance, e.replica) for e in events}) == 6
        assert _tours(results) == _tours(baseline)

    def test_batch_retries_a_transient_task_error(self, tmp_path):
        sentinel = str(tmp_path / "blipped-once")

        def blip_once(_task):
            if _first_to_create(sentinel):
                raise TransientError("injected blip")

        baseline = run_batch(_sa_batch(workers=1))
        previous = set_task_hook(blip_once)
        try:
            hooked = run_batch(_sa_batch(workers=1))
        finally:
            set_task_hook(previous)
        assert os.path.exists(sentinel)  # the blip actually fired
        assert _tours(hooked) == _tours(baseline)

    def test_hierarchy_kd_map_replays_after_worker_kill(self, tmp_path):
        """A worker SIGKILLed in the KD-block map is replaced, its tasks replayed.

        The first worker to win an atomic sentinel create dies; the
        respawned pool replays the lost blocks and the labels equal the
        inline ones.
        """
        points = clustered_instance(3000, seed=7).coords
        inline = cluster_with_max_size(points, 12, exact_threshold=256)
        sentinel = str(tmp_path / "killed-once")
        maps = 0
        with WavefrontPool(workers=2) as pool:

            def kill_in_kd_map(fn, tasks):
                nonlocal maps
                maps += 1
                if maps == 1:  # level 0's KD blocks
                    fn = functools.partial(_kill_once_then, sentinel, fn)
                return pool.map(fn, tasks)

            labels = cluster_with_max_size(
                points, 12, exact_threshold=256, map=kill_in_kd_map
            )
            respawns = pool.respawns
        assert os.path.exists(sentinel)  # the kill actually fired
        assert respawns >= 1
        assert np.array_equal(labels, inline)

    def test_external_executor_break_raises_pool_broken(self):
        class BrokenOnPurpose(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                from concurrent.futures import BrokenExecutor

                raise BrokenExecutor("externally managed, externally broken")

        with BrokenOnPurpose(max_workers=1) as executor:
            pool = WavefrontPool(executor=executor)
            with pytest.raises(PoolBrokenError, match="externally supplied"):
                pool.map_outcomes(_square, [1, 2, 3])

    def test_exhausted_respawn_budget_raises_pool_broken(self):
        from concurrent.futures import BrokenExecutor

        class AlwaysBroken:
            def submit(self, *args, **kwargs):
                raise BrokenExecutor("still dead")

        pool = WavefrontPool(workers=2, policy=RetryPolicy(
            max_retries=1, backoff_base=0.0, jitter=0.0,
        ))
        pool._resolve_executor = lambda pending: AlwaysBroken()
        pool._respawn = lambda broken: True
        with pytest.raises(PoolBrokenError, match="still broken after 1"):
            pool.map_outcomes(_square, [1, 2])


# ----------------------------------------------------------------------
# fault injector determinism
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        config = FaultConfig(seed=13, horizon=64, kill_rate=0.2,
                             slow_rate=0.3, transient_rate=0.1)
        first, second = FaultInjector(config), FaultInjector(config)
        assert first.task_faults == second.task_faults
        assert first.kill_slots == second.kill_slots
        assert first.schedule_digest() == second.schedule_digest()
        other = FaultInjector(FaultConfig(seed=14, horizon=64, kill_rate=0.2,
                                          slow_rate=0.3, transient_rate=0.1))
        assert other.schedule_digest() != first.schedule_digest()

    def test_rates_shape_the_schedule(self):
        injector = FaultInjector(FaultConfig(seed=5, horizon=2048,
                                             kill_rate=0.25, slow_rate=0.25,
                                             transient_rate=0.25))
        kinds = [kind for kind, _delay in injector.task_faults]
        assert 0.15 < kinds.count("slow") / len(kinds) < 0.35
        assert 0.15 < kinds.count("transient") / len(kinds) < 0.35
        assert 0.15 < sum(injector.kill_slots) / len(injector.kill_slots) < 0.35
        zero = FaultInjector(FaultConfig(seed=5, kill_rate=0.0, slow_rate=0.0,
                                         transient_rate=0.0))
        assert all(kind == "none" for kind, _ in zero.task_faults)
        assert not any(zero.kill_slots)

    def test_on_task_raises_transient_on_scheduled_slots(self):
        injector = FaultInjector(FaultConfig(seed=5, horizon=32,
                                             transient_rate=1.0,
                                             slow_rate=0.0, kill_rate=0.0))
        with pytest.raises(TransientError, match="injected transient"):
            injector.on_task(object())
        assert injector.stats()["transient_injected"] == 1

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"horizon": 0},
        {"kill_rate": 1.5},
        {"slow_rate": -0.1},
        {"transient_rate": 2.0},
        {"slow_rate": 0.7, "transient_rate": 0.7},
        {"slow_seconds": -1.0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FaultConfig(**kwargs)

    def test_kill_worker_without_pool_reports_false(self):
        pool = WavefrontPool(workers=2)  # never started: no live pids
        assert FaultInjector.kill_worker(pool) is False

    def test_task_hook_fires_once_per_replica_on_lockstep_path(self):
        """Folded (lock-step) batches are not a chaos blind spot.

        The engine task hook fires exactly once per replica whether the
        replica dimension runs as separate tasks or folded into one
        solve — and injecting it leaves tours bit-identical.
        """
        from repro.core.config import EngineConfig
        from repro.engine.jobs import BatchJob
        from repro.engine.replica_batch import foldable
        from repro.utils.rng import replica_seeds

        job = BatchJob.create(
            ["clustered:40:3"], solver="taxi", params={"sweeps": 10},
            engine=EngineConfig(replicas=3, workers=1, seed=0),
        )
        assert foldable(job, workers=1)
        seeds = list(replica_seeds(0, 3))
        baseline = run_batch(job)[0]

        seen = []
        previous = set_task_hook(lambda task: seen.append(task.seed))
        try:
            hooked = run_batch(job)[0]
        finally:
            set_task_hook(previous)
        assert seen == seeds  # once per replica, in replica order
        for mine, theirs in zip(hooked.replicas, baseline.replicas):
            assert mine.length == theirs.length
            assert (mine.order == theirs.order).all()


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_excluded_from_fingerprint(self):
        plain = SolveRequest.create("uniform:16:3", params={"sweeps": 5})
        rushed = SolveRequest.create("uniform:16:3", params={"sweeps": 5},
                                     deadline_seconds=0.5)
        assert plain.fingerprint() == rushed.fingerprint()

    @pytest.mark.parametrize("bad", [0, -1.0, True, "soon"])
    def test_invalid_deadline_rejected(self, bad):
        with pytest.raises(ConfigError):
            SolveRequest.create("uniform:16:3", deadline_seconds=bad)

    def test_queued_expiry_never_reaches_the_engine(self, hold_slot):
        # The held slot keeps the job queued past its deadline, so it
        # is already overdue when the dispatcher picks it up.
        with SolveService(ServiceConfig()) as service:
            hold_slot(service)
            request = SolveRequest.create(
                "uniform:16:3", solver="sa_tsp", params={"sweeps": 5},
                deadline_seconds=0.05,
            )
            submitted = service.submit(request)
            time.sleep(0.1)
            hold_slot.release()
            job = service.wait(submitted.id, timeout=30)
            assert job.status == "expired"
            assert "queued" in job.error
            stats = service.stats()
            assert stats["requests"]["deadline_expired"] == 1
            assert stats["requests"]["completed"] == 1  # the filler
            assert service.cache.get(request.fingerprint()) is None

    def test_inflight_expiry_and_late_result_still_cached(self):
        previous = set_task_hook(lambda task: time.sleep(0.5))
        try:
            with SolveService(ServiceConfig()) as service:
                request = SolveRequest.create(
                    "uniform:16:3", solver="sa_tsp", params={"sweeps": 5},
                    deadline_seconds=0.15,
                )
                job = service.solve(request, timeout=30)
                assert job.status == "expired"
                assert "solving" in job.error
                # The engine result landed after expiry — still a valid
                # content-addressed value, so the next ask is a hit.
                deadline = time.time() + 10
                while time.time() < deadline:
                    if service.cache.get(request.fingerprint()) is not None:
                        break
                    time.sleep(0.02)
                again = service.submit(request)
                assert again.status == "done"
                assert again.cached is True
        finally:
            set_task_hook(previous)

    def test_default_deadline_comes_from_config(self, hold_slot):
        with SolveService(ServiceConfig(default_deadline=0.05)) as service:
            hold_slot(service)
            request = SolveRequest.create(
                "uniform:16:4", solver="sa_tsp", params={"sweeps": 5},
            )
            submitted = service.submit(request)
            time.sleep(0.1)
            hold_slot.release()
            job = service.wait(submitted.id, timeout=30)
            assert job.status == "expired"
            assert job.as_dict()["deadline_seconds"] is not None
            assert service.stats()["requests"]["completed"] == 1
            assert service.cache.get(request.fingerprint()) is None

    def test_round_timer_expires_only_the_overdue_job(self, hold_slot):
        # Two jobs leave as one round; the second sleeps past its own
        # deadline inside the engine, so its timer expires it alone.
        slow_seed = 3
        threads_seen = []

        def sleep_slow_job(task):
            if task.seed == slow_seed:
                threads_seen.extend(t.name for t in threading.enumerate())
                time.sleep(0.6)

        with SolveService(ServiceConfig()) as service:
            hold_slot(service)
            previous = set_task_hook(sleep_slow_job)
            try:
                quick, slow = (
                    SolveRequest.create(
                        "uniform:16:3", solver="sa_tsp", params={"sweeps": 5},
                        seed=seed, deadline_seconds=deadline,
                    )
                    for seed, deadline in ((2, 30.0), (slow_seed, 0.3))
                )
                jobs = [service.submit(quick), service.submit(slow)]
                hold_slot.release()
                quick_job, slow_job = (
                    service.wait(job.id, timeout=30) for job in jobs
                )
                assert quick_job.status == "done"
                assert slow_job.status == "expired"
                assert slow_job.error == "deadline expired while solving"
                # The late result lands after expiry and is still cached.
                deadline = time.time() + 10
                while service.cache.get(slow.fingerprint()) is None:
                    assert time.time() < deadline
                    time.sleep(0.02)
                counters = service.stats()["requests"]
                assert counters["windows"] == 2  # the filler's, then both
                assert counters["deadline_expired"] == 1
            finally:
                set_task_hook(previous)
        assert threads_seen
        assert "repro-deadline-watchdog" not in threads_seen


# ----------------------------------------------------------------------
# drain vs fast-fail stop
# ----------------------------------------------------------------------
class TestStopModes:
    def _submit_batchful(self, service, count=4):
        return [
            service.submit(SolveRequest.create(
                f"uniform:16:{i}", solver="sa_tsp", params={"sweeps": 5},
                seed=i,
            ))
            for i in range(count)
        ]

    def test_drain_true_finishes_admitted_jobs(self, hold_slot):
        service = SolveService(ServiceConfig()).start()
        filler = hold_slot(service)
        jobs = self._submit_batchful(service)
        hold_slot.release_on_stop(service)
        service.stop(drain=True)
        assert filler.status == "done"
        assert [job.status for job in jobs] == ["done"] * len(jobs)

    def test_drain_false_fails_queued_jobs_fast(self, hold_slot):
        service = SolveService(ServiceConfig()).start()
        filler = hold_slot(service)
        jobs = self._submit_batchful(service)
        hold_slot.release_on_stop(service)
        service.stop(drain=False)
        assert filler.status == "done"
        assert [job.status for job in jobs] == ["failed"] * len(jobs)
        assert all("shutting down" in job.error for job in jobs)


# ----------------------------------------------------------------------
# degraded-mode shedding + health endpoints
# ----------------------------------------------------------------------
class TestSheddingAndHealth:
    def test_degraded_pool_sheds_with_retry_hint(self):
        with SolveService(
            ServiceConfig(shed_retry_after=0.7)
        ) as service:
            # Warm one fingerprint into the cache first.
            cached_request = SolveRequest.create(
                "uniform:16:5", solver="sa_tsp", params={"sweeps": 5},
            )
            service.solve(cached_request, timeout=30)
            service.pool._mark_degraded()
            with pytest.raises(ShedError) as excinfo:
                service.submit(SolveRequest.create(
                    "uniform:16:6", solver="sa_tsp", params={"sweeps": 5},
                ))
            assert excinfo.value.retry_after == pytest.approx(0.7)
            # Cache hits bypass the pool: still served while degraded.
            hit = service.submit(cached_request)
            assert hit.status == "done"
            ready, info = service.ready()
            assert ready is False
            assert info["degraded"] is True
            assert service.stats()["requests"]["shed"] == 1
            service.pool._clear_degraded()
            ready, _info = service.ready()
            assert ready is True

    def test_health_and_ready_views(self):
        service = SolveService(ServiceConfig())
        ready, info = service.ready()
        assert ready is False and info["running"] is False
        service.start()
        try:
            assert service.health()["status"] == "ok"
            ready, info = service.ready()
            assert ready is True and info["degraded"] is False
        finally:
            service.close()

    def test_http_shed_maps_to_503_with_retry_after(self):
        import json
        import urllib.error
        import urllib.request

        from repro.service.http import make_server

        service = SolveService(
            ServiceConfig(shed_retry_after=0.9)
        )
        server = make_server(service, port=0)
        host, port = server.server_address
        thread = serve_in_thread(server)
        service.start()
        try:
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as resp:
                assert resp.status == 200
            with urllib.request.urlopen(f"{base}/readyz", timeout=10) as resp:
                assert resp.status == 200
            service.pool._mark_degraded()
            body = json.dumps({"instance": "uniform:16:7",
                               "solver": "sa_tsp",
                               "params": {"sweeps": 5}}).encode()
            request = urllib.request.Request(
                f"{base}/solve", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "0.9"
            with pytest.raises(urllib.error.HTTPError) as ready_err:
                urllib.request.urlopen(f"{base}/readyz", timeout=10)
            assert ready_err.value.code == 503
            service.pool._clear_degraded()
            with urllib.request.urlopen(f"{base}/readyz", timeout=10) as resp:
                assert resp.status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.close()


# ----------------------------------------------------------------------
# cache corruption quarantine
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_file_is_quarantined_counted_and_logged(
        self, tmp_path, caplog
    ):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(capacity=8)
        cache.put("fp1", {"v": 1})
        cache.save(path)
        assert FaultInjector().corrupt_cache_file(path) is True
        fresh = ResultCache(capacity=8)
        with caplog.at_level("WARNING", logger="repro.service.cache"):
            loaded = fresh.load(path)
        assert loaded == 0
        assert fresh.load_errors == 1
        assert fresh.stats()["load_errors"] == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert any("quarantined" in rec.message for rec in caplog.records)

    def test_unknown_schema_is_quarantined(self, tmp_path):
        path = str(tmp_path / "cache.json")
        with open(path, "w") as stream:
            stream.write('{"schema": "repro-cache-v999", "entries": []}')
        cache = ResultCache(capacity=8)
        assert cache.load(path) == 0
        assert cache.load_errors == 1
        assert os.path.exists(path + ".corrupt")

    def test_missing_file_is_not_an_error(self, tmp_path):
        cache = ResultCache(capacity=8)
        assert cache.load(str(tmp_path / "absent.json")) == 0
        assert cache.load_errors == 0


# ----------------------------------------------------------------------
# error classification (loadgen client)
# ----------------------------------------------------------------------
class TestClassifyError:
    def test_classes(self):
        from repro.errors import DeadlineError, ReproError

        assert classify_error(ShedError("busy")) == "shed"
        assert classify_error(DeadlineError("late")) == "deadline"
        assert classify_error(TimeoutError("slow")) == "timeout"
        assert classify_error(
            ReproError("job 'x' did not finish within 5s")
        ) == "timeout"
        assert classify_error(ValueError("nope")) == "error"


# ----------------------------------------------------------------------
# end-to-end chaos loadtest
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestChaosLoadtest:
    CONFIG = dict(
        requests=24, concurrency=4, seed=3, warm_ratio=0.4,
        instances=("uniform:32:1", "uniform:48:2"), solver="sa_tsp",
        params=(("sweeps", 10),), timeout=120.0,
        chaos=True, chaos_seed=11, chaos_kill_rate=0.25,
        chaos_slow_rate=0.2, chaos_slow_seconds=0.05,
        chaos_transient_rate=0.1,
    )

    def test_chaos_run_completes_and_repeats(self):
        config = LoadgenConfig(**self.CONFIG)
        first = run_loadtest(config, workers=2).summary()
        assert first["completed"] == first["requests"] == 24
        assert first["chaos"]["injection"] == "in-process"
        assert first["chaos"]["seed"] == 11
        injected = first["chaos"]["injected"]
        assert injected["dispatches_seen"] > 0
        second = run_loadtest(config, workers=2).summary()
        assert second["completed"] == 24
        # The fault schedule is seed-pinned: both runs drew the exact
        # same kill/slow/transient tables.
        assert (first["chaos"]["schedule_digest"]
                == second["chaos"]["schedule_digest"])
        assert first["schedule_digest"] == second["schedule_digest"]

    def test_chaos_results_match_uninjected_run(self):
        from repro.service.loadgen import InProcessDriver, build_schedule

        config = LoadgenConfig(**self.CONFIG)
        requests = {}
        for planned in build_schedule(config):
            request = SolveRequest.create(
                planned.token, solver=planned.solver,
                params=dict(planned.params), seed=planned.seed,
            )
            requests[request.fingerprint()] = request

        # Baseline: every scheduled fingerprint on an inline (workers=1,
        # fault-free) service.
        baseline = {}
        with SolveService(ServiceConfig()) as service:
            for fingerprint, request in requests.items():
                job = service.solve(request, timeout=60)
                assert job.status == "done"
                baseline[fingerprint] = job.result["tour_hash"]

        # Chaos: same traffic through a workers=2 service with kills,
        # slow-solves, and transients injected; reconcile via the cache
        # the run leaves behind.
        injector = FaultInjector(FaultConfig(
            seed=11, kill_rate=0.25, slow_rate=0.2, slow_seconds=0.05,
            transient_rate=0.1,
        ))
        service = SolveService(
            ServiceConfig(workers=2, queue_depth=64,
                          cache_size=256),
            fault_injector=injector,
        ).start()
        try:
            report = run_loadtest(config, driver=InProcessDriver(service))
            assert all(record.ok for record in report.records)
            for fingerprint, tour in baseline.items():
                value = service.cache.get(fingerprint)
                assert value is not None
                assert value["tour_hash"] == tour
        finally:
            service.close()
