"""Solve-as-a-service: asyncio job queue with work-conserving dispatch.

:class:`SolveService` turns the one-shot solve path into a long-lived
serving process:

* **admission** — a :class:`SolveRequest` is fingerprinted
  (:mod:`repro.service.fingerprint`); cache hits complete immediately,
  identical in-flight fingerprints deduplicate onto one job, and a
  full queue refuses with :class:`~repro.errors.ServiceError`
  (backpressure, never unbounded memory);
* **dispatch rounds** — an asyncio dispatcher keeps up to ``workers``
  rounds in flight, one per worker slot.  It takes the next request
  only when a slot is free, together with whatever is already queued
  behind it (up to ``max_batch``), so a cold request starts as soon as
  a worker is free and requests that arrive during a busy spell leave
  as one round.  A round maps all of its engine jobs through one
  :meth:`~repro.engine.wavefront.WavefrontPool.map_outcomes` call of
  :func:`repro.engine.runner.run_replica_task` on the service's shared
  pool (each task carries its own solver, params and seed), and races
  each portfolio job in its own executor call beside it.  Rounds run
  concurrently, so a later request can finish before an earlier,
  slower one;
* **determinism** — every request carries an explicit integer seed
  that the engine task uses *directly* (no replica-seed derivation),
  so a service solve is bit-identical to ``repro solve`` with the same
  instance/config/seed, and job IDs are derived from the fingerprint
  (re-submitting an identical request always names the same job);
* **fault tolerance** — a round's engine call is crash-recovering, so
  a killed worker triggers respawn + bit-identical replay and one
  task's failure never poisons the rest of its round; while the pool
  is degraded, new work is shed with :class:`~repro.errors.ShedError`
  (HTTP 503 + ``Retry-After``).  Requests may carry a
  ``deadline_seconds``: jobs past deadline are cancelled before
  dispatch, and each running job with a deadline gets a timer on the
  dispatcher's event loop that expires it alone.  ``stop()`` awaits
  every in-flight round; ``drain=True`` also solves the admitted jobs
  still queued, ``drain=False`` fails them fast.

The event loop runs on a dedicated daemon thread; ``submit``/``job``/
``stats`` are thread-safe and callable from any number of HTTP handler
threads.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from repro.core.config import ServiceConfig
from repro.engine.arena import MATRIX_SHARE_LIMIT, InstanceArena, content_key
from repro.engine.jobs import InstanceSpec, spec_from_token
from repro.engine.portfolio import WARM_CAPABLE, plan_arms, race
from repro.engine.recovery import RetryPolicy
from repro.engine.runner import ReplicaTask, run_replica_task
from repro.engine.wavefront import WavefrontPool
from repro.errors import ConfigError, ReproError, ServiceError, ShedError
from repro.service.cache import ResultCache, instance_signature
from repro.service.fingerprint import (
    canonical_params,
    canonical_seed,
    solve_fingerprint,
)
from repro.service.metrics import ServiceMetrics
from repro.utils.hashing import tour_hash

#: Job-id prefix + fingerprint digits: deterministic, short, greppable.
_JOB_ID_DIGITS = 16

#: Solvers whose kernels consume the full distance matrix; only their
#: dispatches pay the parent-side O(n^2) matrix build so it can be
#: published once instead of recomputed per worker process.  Everything
#: else (the hierarchical TAXI pipeline works from coordinates) gets a
#: coords-only arena entry.
_FULL_MATRIX_SOLVERS = frozenset({"sa_tsp"})

#: Solvers that consume the per-process candidate-list cache.  Above
#: the matrix share limit their dispatches publish the O(n·k)
#: CandidateLists blocks instead, so worker processes share one k-NN
#: build the same way small instances share one matrix.
_CANDIDATE_SOLVERS = frozenset({"two_opt"})

#: Dispatcher shutdown sentinel.
_STOP = object()


@dataclass(frozen=True)
class SolveRequest:
    """One admitted, validated solve request.

    Build through :meth:`create`, which canonicalizes the parameter set
    and seed at the boundary — a constructed request is always
    fingerprintable.
    """

    spec: InstanceSpec
    solver: str = "taxi"
    params: tuple[tuple[str, object], ...] = ()
    seed: int = 0
    #: Operational hint, deliberately excluded from the fingerprint: two
    #: requests for the same content are the same solve whatever their
    #: patience.
    deadline_seconds: float | None = None

    @classmethod
    def create(
        cls,
        instance,
        solver: str = "taxi",
        params: dict | None = None,
        seed: object = 0,
        deadline_seconds: object = None,
    ) -> "SolveRequest":
        """Validate and canonicalize one request from loose inputs.

        ``instance`` accepts everything ``repro batch`` does (benchmark
        size/name, TSPLIB path, ``family:n[:seed]`` token) plus an
        inline :class:`~repro.tsp.instance.TSPInstance`.
        """
        deadline: float | None = None
        if deadline_seconds is not None:
            if isinstance(deadline_seconds, bool) or not isinstance(
                deadline_seconds, (int, float)
            ):
                raise ConfigError(
                    f"deadline_seconds must be a positive number, got "
                    f"{deadline_seconds!r}"
                )
            deadline = float(deadline_seconds)
            if not deadline > 0:
                raise ConfigError(
                    f"deadline_seconds must be > 0, got {deadline}"
                )
        spec = spec_from_token(instance)
        if spec.size:
            # Admission-time capacity check: a full-matrix solver over
            # an oversized instance is rejected at the service boundary
            # (clear ConfigError naming sparse-capable solvers), never
            # queued to fail inside a worker.
            from repro.engine.registry import check_instance_capacity

            check_instance_capacity(solver, spec.size)
        return cls(
            spec=spec,
            solver=solver,
            params=canonical_params(params),
            seed=canonical_seed(seed),
            deadline_seconds=deadline,
        )

    def fingerprint(self) -> str:
        """Content-addressed key (resolves the instance to hash its bytes)."""
        return solve_fingerprint(
            self.spec.resolve(), self.solver, dict(self.params), self.seed
        )


#: Job statuses that count as finished (history-prunable).
_FINISHED = ("done", "failed", "expired")


@dataclass
class Job:
    """One tracked solve job (shared by every duplicate submission)."""

    id: str
    fingerprint: str
    request: SolveRequest
    status: str = "queued"  # queued | running | done | failed | expired
    cached: bool = False
    result: dict | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    #: Wall-clock instant the job's deadline expires (None = no deadline).
    deadline_at: float | None = None
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    _finish_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def finish(
        self,
        result: dict | None,
        error: str | None = None,
        status: str | None = None,
    ) -> bool:
        """Record the terminal state; first finish wins (idempotent).

        A deadline timer and the engine can race to conclude the same
        job — e.g. the timer expires it while the solve is still
        running and completes later.  Returns True only for the
        call that actually finished the job, so accounting (pending
        decrement, completed/failed counters) happens exactly once.
        """
        with self._finish_lock:
            if self.done_event.is_set():
                return False
            self.result = result
            self.error = error
            self.status = status or ("failed" if error is not None else "done")
            self.finished_at = time.time()
            self.done_event.set()
            return True

    def as_dict(self) -> dict:
        """JSON-safe view (what ``GET /jobs/<id>`` returns)."""
        return {
            "job_id": self.id,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "cached": self.cached,
            "solver": self.request.solver,
            "instance": self.request.spec.label,
            "seed": self.request.seed,
            "params": dict(self.request.params),
            # The *effective* deadline: the request's own, or the
            # service default the queue applied at admission.
            "deadline_seconds": (
                self.deadline_at - self.submitted_at
                if self.deadline_at is not None
                else self.request.deadline_seconds
            ),
            "result": self.result,
            "error": self.error,
        }


def job_id_for(fingerprint: str) -> str:
    """Deterministic job id: same request content -> same id, always."""
    return f"job-{fingerprint[:_JOB_ID_DIGITS]}"


def _result(request: SolveRequest, order, length: float,
            solve_seconds: float, setup_seconds: float) -> dict:
    """The result dict a solved job answers with (and the cache holds)."""
    return {
        "instance": request.spec.label,
        "n": int(order.size),
        "solver": request.solver,
        "seed": request.seed,
        "params": dict(request.params),
        "length": length,
        "tour": [int(city) for city in order],
        "tour_hash": tour_hash(order),
        "solve_seconds": solve_seconds,
        "setup_seconds": setup_seconds,
    }


def _error_message(error: BaseException) -> str:
    """A failed job's error text: a library error's own message, else
    the exception type and message."""
    if isinstance(error, ReproError):
        return str(error)
    return f"{type(error).__name__}: {error}"


class SolveService:
    """The serving facade: cache + queue + dispatcher + worker pool."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        fault_injector=None,
    ) -> None:
        self.config = config or ServiceConfig()
        # The metrics ledger is the single source of truth for every
        # counter: stats(), GET /metrics, and the loadgen summary all
        # read the same instruments (no parallel bookkeeping to drift).
        self.metrics = ServiceMetrics()
        self.metrics.queue_depth_limit.set(self.config.queue_depth)
        self.cache = ResultCache(
            self.config.cache_size, self.config.cache_path,
            metrics=self.metrics,
        )
        # eager=True: with a long-lived pool, single-request traffic
        # should ride it too — otherwise light traffic silently
        # bypasses (and never exercises or recovers) the pool.
        self.pool = WavefrontPool(
            workers=self.config.workers,
            policy=RetryPolicy(max_retries=self.config.max_retries),
            eager=True,
            on_respawn=self.metrics.pool_respawns.inc,
            on_degraded=self._on_pool_degraded,
        )
        #: Optional chaos hook (duck-typed :class:`~repro.service
        #: .faults.FaultInjector`): consulted once per dispatch round
        #: (worker kills) and before each task (latency / transient
        #: faults).
        self.fault_injector = fault_injector
        # Shared-memory instance arena: dispatched tasks carry tiny
        # content-addressed refs instead of pickled coordinate/matrix
        # payloads; pool workers attach the blocks read-only.
        self.arena = InstanceArena() if self.config.arena_enabled() else None
        self.started_at = time.time()
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._pending = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._drain = True

    def _on_pool_degraded(self, active: bool, seconds: float) -> None:
        self.metrics.degraded.set(1.0 if active else 0.0)
        if not active and seconds > 0:
            self.metrics.degraded_seconds.inc(seconds)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SolveService":
        """Start the dispatcher loop on a daemon thread (idempotent)."""
        if self._thread is not None:
            return self
        ready = threading.Event()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._queue = asyncio.Queue()
            ready.set()
            try:
                loop.run_until_complete(self._dispatch())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-service-dispatch", daemon=True
        )
        self._thread.start()
        ready.wait()
        # Warm the worker pool up front: serving should not pay pool
        # startup on the first dispatch, and the chaos harness needs
        # live worker PIDs to aim at.
        self.pool.prestart()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: stop the dispatcher + pool, persist the cache.

        ``drain=True`` (graceful, the SIGTERM path): jobs admitted
        before the stop are still solved — the stop sentinel queues
        behind them, and the lock hand-off with :meth:`submit`
        guarantees no job is enqueued after the sentinel, so nothing
        can be left 'queued' forever.  ``drain=False`` fails the
        still-queued jobs fast ("shutting down") instead of solving
        them; jobs already dispatched to the engine finish either way,
        since the dispatcher awaits every in-flight round before the
        pool closes.
        """
        with self._lock:
            thread, loop, queue = self._thread, self._loop, self._queue
            self._stopping = True
            self._drain = drain
        if thread is not None:
            assert loop is not None and queue is not None
            loop.call_soon_threadsafe(queue.put_nowait, _STOP)
            thread.join(timeout=30)
            with self._lock:
                self._thread = None
                self._loop = None
                self._queue = None
        self.pool.close()
        if self.arena is not None:
            self.arena.close()
        if self.config.cache_path is not None:
            self.cache.save()

    def close(self) -> None:
        """Graceful shutdown (alias for ``stop(drain=True)``)."""
        self.stop(drain=True)

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> Job:
        """Admit one request; returns its (possibly pre-existing) job.

        Cache hits return an already-completed job; identical in-flight
        fingerprints return the job already queued/running for them.
        """
        admitted_at = time.perf_counter()
        fingerprint = request.fingerprint()  # validates; may raise ConfigError
        job_id = job_id_for(fingerprint)
        with self._lock:
            # Checked (and the job enqueued) under the same lock close()
            # takes to flip _stopping, so a job can never slip in after
            # the stop sentinel and sit 'queued' forever.
            if self._thread is None or self._stopping:
                raise ServiceError("service is not running; call start() first")
            self.metrics.requests.inc()
            existing = self._jobs.get(job_id)
            if existing is not None and existing.status in ("queued", "running"):
                self.metrics.deduplicated.inc()
                return existing
            cached = self.cache.get(fingerprint)
            if cached is not None:
                self.metrics.served_from_cache.inc()
                job = Job(
                    id=job_id,
                    fingerprint=fingerprint,
                    request=request,
                    cached=True,
                )
                job.finish(cached)
                self._jobs.pop(job_id, None)  # re-insert as most recent
                self._jobs[job_id] = job
                self._prune_history()
                self.metrics.cache_hit_latency.observe(
                    time.perf_counter() - admitted_at
                )
                return job
            # Degraded pool (worker crash, respawn in flight): shed new
            # engine work with a retry hint instead of queueing behind
            # an uncertain recovery.  Checked after the cache — hits
            # don't need the pool and are still served.
            if self.pool.degraded:
                self.metrics.shed.inc()
                raise ShedError(
                    "service degraded (worker pool respawning); retry "
                    f"in {self.config.shed_retry_after:g}s",
                    retry_after=self.config.shed_retry_after,
                )
            if self._pending >= self.config.queue_depth:
                raise ServiceError(
                    f"queue full ({self.config.queue_depth} pending); retry later"
                )
            deadline = request.deadline_seconds
            if deadline is None:
                deadline = self.config.default_deadline
            job = Job(id=job_id, fingerprint=fingerprint, request=request)
            if deadline is not None:
                job.deadline_at = job.submitted_at + deadline
            self._jobs[job_id] = job
            self._pending += 1
            self.metrics.queue_pending.set(self._pending)
            self._prune_history()
            assert self._loop is not None and self._queue is not None
            self._loop.call_soon_threadsafe(self._queue.put_nowait, job)
        return job

    def _prune_history(self) -> None:
        """Drop the oldest finished jobs beyond ``job_history`` (lock held).

        Bounds the job table in a long-lived process: queue_depth
        bounds pending work and the result cache bounds cached values,
        but without this the per-job result dicts (full tour lists)
        would accumulate forever.  Queued/running jobs are never
        dropped — their submitters still hold the job id.
        """
        excess = len(self._jobs) - self.config.job_history
        if excess <= 0:
            return
        for job_id in [
            job_id
            for job_id, job in self._jobs.items()  # insertion order = oldest first
            if job.status in _FINISHED
        ][:excess]:
            del self._jobs[job_id]

    def solve(self, request: SolveRequest, timeout: float | None = None) -> Job:
        """Submit and block until done (convenience for bench/tests)."""
        job = self.submit(request)
        return self.wait(job.id, timeout=timeout)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        job = self.job(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if not job.done_event.wait(timeout):
            raise ServiceError(f"job {job_id!r} did not finish within {timeout}s")
        return job

    def stats(self) -> dict:
        metrics = self.metrics
        with self._lock:
            counters = {
                "requests": metrics.requests.value,
                "deduplicated": metrics.deduplicated.value,
                "served_from_cache": metrics.served_from_cache.value,
                "completed": metrics.completed.value,
                "failed": metrics.failed.value,
                "batched_requests": metrics.batched_requests.value,
                "windows": metrics.windows.value,
                "retries": metrics.retries.value,
                "deadline_expired": metrics.deadline_expired.value,
                "shed": metrics.shed.value,
                "pool_respawns": metrics.pool_respawns.value,
                "partial_group_failures": (
                    metrics.partial_group_failures.value
                ),
            }
            jobs_by_status: dict[str, int] = {}
            for job in self._jobs.values():
                jobs_by_status[job.status] = jobs_by_status.get(job.status, 0) + 1
            pending = self._pending
        return {
            "uptime_seconds": time.time() - self.started_at,
            "queue": {
                "pending": pending,
                "depth": self.config.queue_depth,
                "max_batch": self.config.max_batch,
                "workers": self.config.workers,
            },
            "requests": counters,
            "jobs": jobs_by_status,
            "cache": self.cache.stats(),
            "arena": (
                {"enabled": True, **self.arena.stats()}
                if self.arena is not None else {"enabled": False}
            ),
            "health": {
                "running": self._thread is not None and not self._stopping,
                "degraded": self.pool.degraded,
                "pool_respawns": self.pool.respawns,
                # Chaos visibility over HTTP: a remote loadtest can
                # cross-check the server's fault schedule + injection
                # counts without being in the server process.
                "chaos_schedule": (
                    self.fault_injector.schedule_digest()
                    if self.fault_injector is not None else None
                ),
                "chaos_injected": (
                    self.fault_injector.stats()
                    if self.fault_injector is not None else None
                ),
            },
        }

    def health(self) -> dict:
        """Liveness view (``GET /healthz``): the process answers."""
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
        }

    def ready(self) -> tuple[bool, dict]:
        """Readiness view (``GET /readyz``): able to take new solves now.

        Not ready while the dispatcher is down/stopping or the pool is
        degraded (mid-respawn) — exactly the states where
        :meth:`submit` would refuse or shed.
        """
        with self._lock:
            running = self._thread is not None and not self._stopping
        degraded = self.pool.degraded
        ready = running and not degraded
        return ready, {
            "ready": ready,
            "running": running,
            "degraded": degraded,
            "pool_respawns": self.pool.respawns,
            "retry_after": None if ready else self.config.shed_retry_after,
        }

    # ------------------------------------------------------------------
    # HTTP backend: the calls :class:`~repro.service.http.ServiceHandler`
    # makes (a ShardedService answers the same ones)
    # ------------------------------------------------------------------
    #: Noun of the ``repro serve: draining ...`` line.
    draining = "in-flight jobs"

    def post_solve(self, request: SolveRequest, _raw: bytes) -> tuple:
        """``POST /solve``: admit locally; ``(200, job view, {})``."""
        return 200, self.submit(request).as_dict(), {}

    def get_job(self, job_id: str, timeout: float | None) -> tuple | None:
        """``GET /jobs/<id>``: wait up to ``timeout`` for an unfinished job."""
        job = self.job(job_id)
        if job is None:
            return None
        if timeout is not None and job.status in ("queued", "running"):
            job.done_event.wait(timeout)
        return 200, job.as_dict(), {}

    @property
    def retry_after(self) -> float:
        return self.config.shed_retry_after

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def render_prometheus(self) -> str:
        return self.metrics.render_prometheus()

    def count_response(self, status: int) -> None:
        self.metrics.http_response(status)

    def banner(self, url: str) -> list[str]:
        """The ``repro serve`` start-up lines for this service at ``url``."""
        lines = [f"listening on {url} (workers={self.config.workers}, "
                 f"cache={self.config.cache_size})"]
        if self.fault_injector is not None:
            lines.append(
                f"CHAOS ENABLED (seed {self.fault_injector.config.seed}, "
                f"schedule {self.fault_injector.schedule_digest()[:16]})"
            )
        return lines

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """Dispatcher main loop: one dispatch round per free worker slot.

        A slot is taken *before* the next request, so at most
        ``workers`` rounds are in flight, and requests that arrive while
        every worker is busy wait in the queue and leave together as
        the next round.  On the stop sentinel, every in-flight round is
        awaited before returning: ``stop()`` closes the pool next.
        """
        assert self._loop is not None and self._queue is not None
        slots = asyncio.Semaphore(self.config.workers)
        rounds: set[asyncio.Task] = set()
        stop = False
        while not stop:
            await slots.acquire()
            first = await self._queue.get()
            if first is _STOP:
                break
            batch = [first]
            stop = self._take_queued(batch)
            # The set holds a reference until the round ends (the loop
            # keeps only weak ones); the round releases its own slot.
            round_task = self._loop.create_task(self._round(batch, slots))
            rounds.add(round_task)
            round_task.add_done_callback(rounds.discard)
        await asyncio.gather(*rounds)

    def _take_queued(self, batch: list[Job]) -> bool:
        """Add what is already queued to ``batch``, up to ``max_batch``.

        Returns True when the stop sentinel was among it.
        """
        assert self._queue is not None
        while len(batch) < self.config.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _STOP:
                return True
            batch.append(item)
        return False

    async def _round(self, batch: list[Job], slots: asyncio.Semaphore) -> None:
        """Run one dispatch round, then free its slot."""
        try:
            await self._run_round(batch)
        except Exception as exc:  # keep dispatching whatever breaks
            self._fail_jobs(batch, _error_message(exc))
        finally:
            slots.release()

    async def _run_round(self, batch: list[Job]) -> None:
        """Gate the round's deadlines, then solve its live jobs at once.

        The engine jobs go through one :meth:`_run_tasks` call, and each
        portfolio job races in its own executor call beside it.  Every
        live job with a deadline gets a timer on this loop that expires
        it alone; the round cancels its timers when it ends.
        """
        assert self._loop is not None
        if self._stopping and not self._drain:
            # Non-drain stop: fail whatever is still only queued, fast,
            # instead of solving it.
            self._fail_jobs(batch, "service shutting down")
            return
        self.metrics.windows.inc()
        self.metrics.batch_size.observe(len(batch))
        self.metrics.batched_requests.inc(len(batch))
        now = time.time()
        live: list[Job] = []
        for job in batch:
            self.metrics.queue_wait.observe(now - job.submitted_at)
            # Deadline gate: no engine work is spent on an overdue job.
            if job.deadline_at is not None and now >= job.deadline_at:
                self._expire(job, "queued")
            else:
                live.append(job)
        if not live:
            return
        with self._lock:
            for job in live:
                job.status = "running"
        timers = [
            self._loop.call_later(
                job.deadline_at - time.time(), self._expire, job, "solving"
            )
            for job in live
            if job.deadline_at is not None
        ]
        try:
            if self.fault_injector is not None:
                # Off the loop thread: a worker kill takes the pool's lock.
                await self._loop.run_in_executor(
                    None, self.fault_injector.on_dispatch, self.pool
                )
            engine_jobs = [
                job for job in live if job.request.solver != "portfolio"
            ]
            calls = [
                self._loop.run_in_executor(None, self._run_portfolio_job, job)
                for job in live
                if job.request.solver == "portfolio"
            ]
            if engine_jobs:
                calls.append(self._loop.run_in_executor(
                    None, self._run_tasks, engine_jobs
                ))
            await asyncio.gather(*calls)
        finally:
            for timer in timers:
                timer.cancel()
        statuses = {job.status for job in live}
        if "done" in statuses and "failed" in statuses:
            self.metrics.partial_group_failures.inc()

    def _conclude(
        self,
        job: Job,
        result: dict | None = None,
        error: str | None = None,
        status: str | None = None,
    ) -> bool:
        """Finish one queued job exactly once + keep pending accounting.

        Safe to call from the dispatcher loop (deadline gate and
        timers) and from a round's executor calls concurrently: only
        the first caller wins (and decrements ``_pending``).  Never
        used for cache-hit jobs, which are finished at admission and
        never counted pending.
        """
        if not job.finish(result, error=error, status=status):
            return False
        with self._lock:
            self._pending -= 1
            self.metrics.queue_pending.set(self._pending)
        return True

    def _complete(self, job: Job, result: dict) -> None:
        if self._conclude(job, result=result):
            self.metrics.completed.inc()
            self.metrics.solve_latency.observe(
                job.finished_at - job.submitted_at
            )

    def _fail_jobs(self, jobs: list[Job], error: str) -> None:
        for job in jobs:
            if self._conclude(job, error=error):
                self.metrics.failed.inc()

    def _expire(self, job: Job, where: str) -> None:
        """Expire ``job`` (``where`` is "queued" or "solving")."""
        if self._conclude(
            job, error=f"deadline expired while {where}", status="expired"
        ):
            self.metrics.deadline_expired.inc()

    def _count_retry(self, _task, _error) -> None:
        self.metrics.retries.inc()

    def _dispatch_spec(self, request: SolveRequest) -> InstanceSpec:
        """The spec a dispatched task ships: arena-backed when possible.

        Publishing is content-addressed and idempotent, so repeated
        dispatches of one instance reuse the first blocks.  The arena
        is an optimization, never a correctness gate — any publish
        failure (oversized explicit matrix, shared-memory exhaustion)
        falls back to the original picklable spec.
        """
        if self.arena is None or request.spec.kind == "arena":
            return request.spec
        try:
            instance = request.spec.resolve()
            with_candidates = 0
            if (request.solver in _CANDIDATE_SOLVERS
                    and instance.n > MATRIX_SHARE_LIMIT):
                params = dict(request.params)
                with_candidates = min(
                    int(params.get("k", 8)), instance.n - 1
                )
            ref = self.arena.publish(
                instance,
                with_matrix=request.solver in _FULL_MATRIX_SOLVERS,
                with_candidates=with_candidates,
            )
        except Exception:
            return request.spec
        self.metrics.arena_publishes.inc()
        arena_stats = self.arena.stats()
        self.metrics.arena_instances.set(arena_stats["instances"])
        self.metrics.arena_bytes.set(arena_stats["bytes"])
        return InstanceSpec.shared(ref)

    def _run_tasks(self, jobs: list[Job]) -> None:
        """Solve a round's engine jobs through one ``map_outcomes`` call.

        Each task carries its own solver, params and seed, and each job
        concludes as its task's value lands (in task order).  Fault
        handling is per task: one job's deterministic failure (bad
        instance, non-finite tour) fails only that job's fingerprint.
        Worker crashes are respawned + replayed and transients retried
        inside the call; only exhausted recovery
        (:class:`~repro.errors.PoolBrokenError`) fails the jobs still
        unfinished.
        """
        tasks = [
            ReplicaTask(
                spec=self._dispatch_spec(job.request),
                solver=job.request.solver,
                params=job.request.params,
                seed=job.request.seed,
                index=0,
                instance_index=position,
            )
            for position, job in enumerate(jobs)
        ]

        def land(value) -> None:
            position, replica = value
            job = jobs[position]
            result = _result(job.request, replica.order, replica.length,
                             replica.seconds, replica.setup_seconds)
            # Cache before concluding: even if its deadline timer already
            # expired the job, the finished work is still a valid
            # content-addressed result for future requests.
            self.cache.put(job.fingerprint, result,
                           signature=self._result_signature(job.request))
            self._complete(job, result)

        try:
            outcomes = self.pool.map_outcomes(
                run_replica_task,
                tasks,
                before_task=(
                    self.fault_injector.on_task
                    if self.fault_injector is not None else None
                ),
                on_retry=self._count_retry,
                on_result=land,
            )
        except Exception as exc:  # PoolBrokenError, or anything unforeseen
            self._fail_jobs(jobs, _error_message(exc))
            return
        for job, outcome in zip(jobs, outcomes):
            if not outcome.ok:
                self._fail_jobs([job], _error_message(outcome.error))

    def _result_signature(self, request: SolveRequest):
        """Locality signature to register with the warm-start tier, or None."""
        if not self.config.warm_start_enabled():
            return None
        try:
            return instance_signature(request.spec.resolve())
        except Exception:  # a failed signature must never fail the solve
            return None

    def _run_portfolio_job(self, job: Job) -> None:
        """Plan, warm-seed, and race one portfolio solve to conclusion.

        The race fans its planned arms over the shared
        :class:`WavefrontPool` via :func:`repro.engine.portfolio.race`.
        """
        request = job.request
        try:
            instance = request.spec.resolve()
            params = dict(request.params)
            budget = float(params.get("budget_seconds", 2.0))
            mode = str(params.get("mode", "best"))
            arms = plan_arms(
                instance.n,
                budget_seconds=budget,
                seed=request.seed,
                digest=content_key(instance),
                max_arms=int(params.get("max_arms", 4)),
            )
            signature = (
                instance_signature(instance)
                if self.config.warm_start_enabled() else None
            )
            # Near-match warm start: this job is here because its exact
            # fingerprint missed; a geometrically similar cached tour
            # can still seed the annealing arms.
            warm_start = warm_source = None
            if signature is not None and any(
                    arm.solver in WARM_CAPABLE for arm in arms):
                near = self.cache.find_similar(signature)
                if near is not None and isinstance(near[1].get("tour"), list):
                    warm_source, warm_start = near[0], near[1]["tour"]
            result = race(
                arms,
                spec=self._dispatch_spec(request),
                pool=self.pool,
                mode=mode,
                accept_ratio=float(params.get("accept_ratio", 1.0)),
                budget_seconds=budget,
                warm_start=warm_start,
                warm_source=warm_source,
            )
        except Exception as exc:  # defensive: keep serving whatever breaks
            self._fail_jobs([job], _error_message(exc))
            return
        launched = sum(
            1 for outcome in result.outcomes if outcome.status != "cancelled")
        self.metrics.portfolio_arms.inc(launched)
        self.metrics.portfolio_win(result.winner.label)
        value = _result(request, result.order, result.length,
                        result.seconds, 0.0)
        value["portfolio"] = result.ledger()
        if result.warm_source is not None:
            self.metrics.warm_starts.inc()
            value["warm_start"] = result.warm_source[:16]
        # Only a result the fingerprint determines is cached.  A
        # first-mode race stops on its wave width (the pool's workers)
        # and on wall-clock overrun, and a warm-started race depends on
        # what the cache held when it ran (a fresh shard, a restart or a
        # crash replay would solve it cold).  Both are answered but
        # never cached, which also keeps them out of the warm-start tier.
        if mode != "first" and result.warm_source is None:
            self.cache.put(job.fingerprint, value, signature=signature)
        self._complete(job, value)
