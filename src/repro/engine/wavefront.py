"""Deterministic wavefront dispatch over an optional process pool.

The hierarchical pipeline produces *wavefronts*: at each hierarchy
level, every cluster's sub-problem is independent of its siblings, so
the whole level can be solved as one batch — the software analogue of
TAXI's chip annealing all of a level's macros in parallel.

This module provides the dispatch mechanics:

* work is split into **chunks deterministically** — chunk boundaries
  depend only on the task list and ``chunk_size``, never on worker
  count or completion order;
* each chunk carries its **own derived seed**, so a chunk's result is a
  pure function of the chunk description;
* results are re-assembled in submission order, so ``workers=1``
  reproduces any parallel run bit-for-bit.

:class:`WavefrontPool` is the engine's one fan-out: the pipeline's
levels, the batch runner's replicas, the portfolio's arms and the
solve service's dispatch rounds all run through it.  It keeps one
process pool alive across many ``map`` calls (one per hierarchy level)
instead of paying pool startup per call.  An explicit ``executor``
(e.g. a thread pool, or an inline test executor) overrides the pool
entirely.

**Crash recovery**: a killed worker marks the whole
``ProcessPoolExecutor`` broken.  Because tasks are pure functions of
their descriptions, the pool can respawn the executor and replay only
the lost tasks — retried results are bit-identical to an uninjected
run.  Replay is driven by :mod:`repro.engine.recovery` with a bounded
:class:`~repro.engine.recovery.RetryPolicy`; while a respawn is in
flight the pool reports itself *degraded* so serving layers can shed
load instead of erroring.

**Process model**: the internal pool always *forks* its workers, in
every process that owns one (a spawned shard included), so a worker
starts with the solver stack its parent already imported, at start
and on every respawn.  :func:`_init_worker` then drops the sockets the
fork copied, ties the worker's life to its parent's and reports the
worker started; :meth:`WavefrontPool.prestart` and
:meth:`WavefrontPool.worker_pids` wait for every launched worker's
report, so no PID they give out still holds an inherited socket.
"""

from __future__ import annotations

import multiprocessing
import os
import stat
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.engine.recovery import RetryPolicy, TaskOutcome, run_with_recovery
from repro.errors import ConfigError

_T = TypeVar("_T")
_R = TypeVar("_R")


def _init_worker(started) -> None:
    """Pool worker initializer: shed inherited sockets, die with the parent.

    A forked worker inherits every socket of its parent: a service's
    listening socket and its open client connections would outlive a
    killed service in its workers.  A daemon thread exits the worker
    when its parent dies, since the siblings keep the call queue open
    and the worker's read on it would never end.  Last, the worker
    releases ``started``, the pool's fork-inherited start-up semaphore.

    Never raises: an initializer error breaks the pool.
    """
    try:
        _shed_sockets()
    except OSError:  # no /proc or no /dev/null: keep what was inherited
        pass
    parent = multiprocessing.parent_process()
    if parent is not None:
        try:
            threading.Thread(
                target=_exit_with, args=(parent,),
                name="repro-worker-parent-watch", daemon=True,
            ).start()
        except RuntimeError:  # no thread to spare: run unwatched
            pass
    started.release()


def _shed_sockets() -> None:
    """Point every socket fd of this process at ``/dev/null``.

    Not closed: a socket object the fork copied may still close its
    fd later, and must not hit a file that reused the number.  The
    executor's queues and the resource tracker use pipes, not sockets.
    """
    devnull = os.open(os.devnull, os.O_RDWR | os.O_CLOEXEC)
    try:
        for name in os.listdir("/proc/self/fd"):
            fd = int(name)
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd, inheritable=False)
            except OSError:  # the listing's own fd, closed by now
                pass
    finally:
        os.close(devnull)


def _exit_with(parent: multiprocessing.process.BaseProcess) -> None:
    parent.join()
    os._exit(1)


def chunk_indices(
    keys: Sequence[object], chunk_size: int
) -> list[list[int]]:
    """Split item indices into dispatch chunks, grouping equal keys first.

    Items sharing a key (e.g. a sub-problem shape) are kept together so
    a chunk's solver can vectorize across them, then each group is cut
    into runs of at most ``chunk_size``.  The split depends only on the
    key sequence and ``chunk_size`` — two runs over the same wavefront
    always produce identical chunks, whatever the worker count.
    """
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    groups: dict[object, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    chunks: list[list[int]] = []
    for indices in groups.values():  # first-occurrence order (dict is ordered)
        for start in range(0, len(indices), chunk_size):
            chunks.append(indices[start : start + chunk_size])
    return chunks


class WavefrontPool:
    """Order-preserving task fan-out with a reusable, respawnable pool.

    Parameters
    ----------
    workers:
        Pool width.  ``1`` (the default) runs every task inline in the
        parent process — bit-identical to any parallel run because
        tasks are self-seeded.
    executor:
        Optional explicit :class:`~concurrent.futures.Executor` that
        overrides the internal process pool (tests inject thread or
        inline executors here).  External executors cannot be
        respawned: if one breaks, :class:`PoolBrokenError` surfaces
        immediately.
    policy:
        Recovery budget/backoff for broken-pool replay and transient
        retries (default :class:`~repro.engine.recovery.RetryPolicy`).
    eager:
        When true (the serving layer), single-task dispatches still use
        the process pool once ``workers > 1`` — the pool is long-lived
        there, so the inline shortcut would only hide the pool (and its
        failures) from light traffic.  The default (pipeline use) keeps
        the old behavior: a lone pending task runs inline.
    on_respawn:
        Callback fired after each executor respawn (metrics hook).
    on_degraded:
        Callback ``(active, seconds)`` fired entering (``True, 0.0``)
        and leaving (``False, <time spent>``) degraded mode.
    """

    def __init__(
        self,
        workers: int = 1,
        executor: Executor | None = None,
        policy: RetryPolicy | None = None,
        eager: bool = False,
        on_respawn: Callable[[], None] | None = None,
        on_degraded: Callable[[bool, float], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.eager = eager
        self.respawns = 0
        self.on_respawn = on_respawn
        self.on_degraded = on_degraded
        self._external = executor
        self._own: ProcessPoolExecutor | None = None
        # The current pool's start-up semaphore (one release per worker
        # that ran _init_worker) and the releases taken from it so far.
        self._started = None
        self._started_seen = 0
        # Guards lazy pool creation *and* respawn: the solve service
        # resolves the executor from concurrent dispatcher threads, and
        # two rounds may detect the same broken pool at once.
        self._own_lock = threading.Lock()
        self._degraded_since: float | None = None

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[_T], _R], tasks: Iterable[_T]) -> list[_R]:
        """Run ``fn`` over ``tasks``; results align with the task order.

        Survives worker crashes: lost tasks are replayed on a
        respawned pool (each task is a pure function of its
        description, so the retried results are bit-identical).  The
        first *application* error — in task order — propagates, as
        before.
        """
        outcomes = self.map_outcomes(fn, tasks)
        results: list[_R] = []
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
            results.append(outcome.value)  # type: ignore[arg-type]
        return results

    def map_outcomes(
        self,
        fn: Callable,
        tasks: Iterable,
        policy: RetryPolicy | None = None,
        before_task: Callable | None = None,
        on_retry: Callable | None = None,
        on_result: Callable | None = None,
    ) -> list[TaskOutcome]:
        """Crash-recovering fan-out with per-task isolation.

        Unlike :meth:`map`, a task raising an ordinary exception does
        not poison its siblings: every input task gets a
        :class:`~repro.engine.recovery.TaskOutcome` (the serving layer
        fails only the corresponding fingerprints).  Pool breakage is
        respawned + replayed and :class:`~repro.errors.TransientError`
        retried, both bounded by ``policy``.  ``on_result(value)`` is
        called exactly once per task whose value lands, in task order
        within each recovery round (the batch runner's streamed
        progress).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        outcomes = run_with_recovery(
            self._resolve_executor,
            self._respawn,
            fn,
            tasks,
            policy if policy is not None else self.policy,
            before_task=before_task,
            on_retry=on_retry,
            on_result=on_result,
        )
        self._clear_degraded()
        return outcomes

    def _resolve_executor(self, pending: int) -> Executor | None:
        if self._external is not None:
            return self._external
        if self.workers <= 1:
            return None
        if pending <= 1 and not self.eager:
            return None
        with self._own_lock:
            if self._own is None:
                context = multiprocessing.get_context("fork")
                self._started = context.Semaphore(0)
                self._started_seen = 0
                self._own = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=context,
                    initializer=_init_worker,
                    initargs=(self._started,),
                )
            return self._own

    def prestart(self) -> None:
        """Eagerly spin up the internal pool (serving-layer warm start).

        A ``fork`` pool forks all of its workers at the first submit, so
        one no-op task materializes the full width.  Returns once every
        worker has run :func:`_init_worker`: after this,
        :meth:`worker_pids` reports every worker's PID, and none of
        them holds an inherited socket.
        """
        if self._external is not None or self.workers <= 1:
            return
        executor = self._resolve_executor(self.workers)
        assert executor is not None
        executor.submit(os.getpid).result()
        with self._own_lock:
            self._await_started()

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the internal pool's live workers (chaos-kill target).

        Waits until every launched worker has run :func:`_init_worker`,
        also in a pool freshly respawned.
        """
        with self._own_lock:
            if self._own is None:
                return ()
            processes = self._await_started()
            return tuple(
                pid for pid, proc in sorted(processes.items())
                if proc.is_alive()
            )

    def _await_started(self) -> dict:
        """Wait for each launched worker's start-up release; its processes.

        Caller holds ``_own_lock``.  Stops early when a worker died
        before it released (the pool is broken, and its respawn counts
        afresh).
        """
        processes = getattr(self._own, "_processes", None) or {}
        while self._started_seen < len(processes):
            if self._started.acquire(timeout=0.05):
                self._started_seen += 1
            elif not all(proc.is_alive() for proc in list(processes.values())):
                break
        return processes

    # ------------------------------------------------------------------
    # degraded-mode tracking + respawn
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True between a detected pool break and its recovered replay."""
        return self._degraded_since is not None

    def _mark_degraded(self) -> None:
        if self._degraded_since is None:
            self._degraded_since = time.time()
            if self.on_degraded is not None:
                self.on_degraded(True, 0.0)

    def _clear_degraded(self) -> None:
        with self._own_lock:
            since = self._degraded_since
            if since is None:
                return
            self._degraded_since = None
        if self.on_degraded is not None:
            self.on_degraded(False, max(0.0, time.time() - since))

    def _respawn(self, broken: Executor) -> bool:
        """Tear down a broken internal pool so the next resolve is fresh.

        Returns ``False`` for external executors (we don't own their
        lifecycle).  Guarded against concurrent detection: only the
        first caller for a given broken executor tears down and counts
        a respawn; later callers just proceed to the fresh pool.
        """
        if self._external is not None:
            return False
        with self._own_lock:
            self._mark_degraded()
            if self._own is broken and self._own is not None:
                self._own.shutdown(wait=False)
                self._own = None
                self.respawns += 1
                if self.on_respawn is not None:
                    self.on_respawn()
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the internal pool (external executors are left alone)."""
        with self._own_lock:
            pool, self._own = self._own, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WavefrontPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
