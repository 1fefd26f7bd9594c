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
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.engine.recovery import RetryPolicy, TaskOutcome, run_with_recovery
from repro.errors import ConfigError

_T = TypeVar("_T")
_R = TypeVar("_R")


def _warmup(seconds: float) -> int:
    """No-op pool task (module-level so it pickles); returns its pid."""
    import os

    time.sleep(seconds)
    return os.getpid()


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
                self._own = ProcessPoolExecutor(max_workers=self.workers)
            return self._own

    def prestart(self) -> None:
        """Eagerly spin up the internal pool (serving-layer warm start).

        ``ProcessPoolExecutor`` forks workers lazily per submit (and
        only when none is idle), so a brief concurrent warmup task per
        worker is pushed through to actually materialize the full
        width — after this, :meth:`worker_pids` reports real PIDs.
        """
        if self._external is not None or self.workers <= 1:
            return
        executor = self._resolve_executor(self.workers)
        assert executor is not None
        futures = [
            executor.submit(_warmup, 0.05) for _ in range(self.workers)
        ]
        for future in futures:
            future.result()

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the internal pool's live workers (chaos-kill target)."""
        with self._own_lock:
            pool = self._own
            if pool is None:
                return ()
            processes = getattr(pool, "_processes", None) or {}
            return tuple(
                pid for pid, proc in sorted(processes.items())
                if proc.is_alive()
            )

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
