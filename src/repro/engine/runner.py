"""Multi-start / multi-replica execution over a process pool.

This is the throughput layer the paper's chip provides in hardware:
many independent anneals in flight at once.  A job fans out as
``instances x replicas`` tasks; each task re-derives its solver from
``(solver name, params, replica seed)`` inside the worker, so nothing
stateful crosses process boundaries and a run is reproducible
bit-for-bit at any worker count:

* replica seeds are pre-derived in the parent from the master seed
  (:func:`repro.utils.rng.replica_seeds`), never from pool scheduling;
* results are keyed by ``(instance, replica index)`` and re-sorted, so
  completion order cannot leak into aggregates;
* ``workers=1`` short-circuits to an in-process serial loop that runs
  the exact same task function.

Usage::

    from repro.engine import run_replicas

    batch = run_replicas(318, solver="taxi", replicas=8, seed=0,
                         workers=4, sweeps=200)
    batch.best_length, batch.median_length, batch.percentile(90)
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import EngineConfig
from repro.core.result import BatchResult, ReplicaResult
from repro.engine.jobs import BatchJob, BatchProgress, InstanceSpec
from repro.engine.registry import (
    build_solver,
    check_instance_capacity,
    get_solver,
)
from repro.errors import ConfigError, PoolBrokenError
from repro.tsp.instance import TSPInstance
from repro.utils.rng import replica_seeds

#: How many queued tasks per worker to keep in flight (bounds memory).
_BACKLOG_PER_WORKER = 4


@dataclass(frozen=True)
class ReplicaTask:
    """Everything one worker needs to run one replica."""

    spec: InstanceSpec
    solver: str
    params: tuple[tuple[str, object], ...]
    seed: int
    index: int
    instance_index: int = 0


def validate_finite_instance(instance: TSPInstance) -> None:
    """Reject instances whose geometry would propagate NaN/inf lengths."""
    if instance.coords is not None and not np.isfinite(instance.coords).all():
        raise ConfigError(
            f"instance {instance.name!r} has non-finite coordinates; "
            "refusing to solve (tour lengths would be NaN/inf)"
        )
    if instance.matrix is not None and not np.isfinite(instance.matrix).all():
        raise ConfigError(
            f"instance {instance.name!r} has a non-finite distance matrix; "
            "refusing to solve (tour lengths would be NaN/inf)"
        )


#: Instances this process has already finite-checked (id -> instance;
#: the strong reference keeps the id from being recycled).
_VALIDATED: dict[int, TSPInstance] = {}

#: Optional per-task hook consulted by :func:`run_replica_task` before
#: solving — the engine-level chaos injection point (latency,
#: TransientError).  Module-level so it applies wherever the task
#: function runs: inline, and in forked pool workers that inherit it.
#: (Workers under the ``spawn`` start method re-import this module and
#: start with no hook — parent-side injection via the recovery
#: driver's ``before_task`` covers those.)
_TASK_HOOK: Callable[["ReplicaTask"], None] | None = None


def set_task_hook(
    hook: Callable[["ReplicaTask"], None] | None,
) -> Callable[["ReplicaTask"], None] | None:
    """Install (or clear, with ``None``) the pre-solve task hook.

    Returns the previously installed hook so callers can restore it.
    """
    global _TASK_HOOK
    previous = _TASK_HOOK
    _TASK_HOOK = hook
    return previous


def _validate_once(instance: TSPInstance) -> None:
    if _VALIDATED.get(id(instance)) is instance:
        return
    validate_finite_instance(instance)
    _VALIDATED[id(instance)] = instance


def run_replica_task(task: ReplicaTask) -> tuple[int, ReplicaResult]:
    """Execute one replica (module-level so process pools can pickle it).

    Setup (instance materialization + solver build) and the solve
    proper are timed separately so backend speedups stay visible even
    when instance construction dominates.
    """
    if _TASK_HOOK is not None:
        _TASK_HOOK(task)
    setup_start = time.perf_counter()
    instance = task.spec.resolve()
    _validate_once(instance)
    # Late capacity check covers specs whose size is unknown until
    # resolve (TSPLIB files); known-size specs already failed fast at
    # job creation / service admission.
    check_instance_capacity(task.solver, instance.n)
    solve = build_solver(task.solver, seed=task.seed, **dict(task.params))
    start = time.perf_counter()
    setup_seconds = start - setup_start
    tour = solve(instance)
    seconds = time.perf_counter() - start
    if not np.isfinite(tour.length):
        raise ConfigError(
            f"solver {task.solver!r} produced a non-finite tour length "
            f"on {instance.name!r}"
        )
    replica = ReplicaResult(
        index=task.index,
        seed=task.seed,
        order=np.asarray(tour.order, dtype=int),
        length=float(tour.length),
        seconds=seconds,
        setup_seconds=setup_seconds,
    )
    return task.instance_index, replica


def _execute_tasks(
    tasks: list[ReplicaTask],
    workers: int,
    executor: Executor | None,
    on_result: Callable[[int, ReplicaResult], None],
) -> None:
    """Run every task, invoking ``on_result`` as each replica finishes.

    The internal pool path survives worker crashes: a broken pool is
    rebuilt and only the still-undelivered tasks are replayed (each
    task is a pure function of its description, so retried results are
    bit-identical), bounded by the default
    :class:`~repro.engine.recovery.RetryPolicy` budget.
    """
    if executor is not None:
        for future in [executor.submit(run_replica_task, task) for task in tasks]:
            on_result(*future.result())
        return
    if workers <= 1:
        for task in tasks:
            on_result(*run_replica_task(task))
        return
    from repro.engine.recovery import RetryPolicy

    policy = RetryPolicy()
    pool_failures = 0
    undelivered = list(range(len(tasks)))
    while undelivered:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                backlog = workers * _BACKLOG_PER_WORKER
                order = list(undelivered)  # this attempt's worklist
                inflight = {
                    pool.submit(run_replica_task, tasks[position]): position
                    for position in order[:backlog]
                }
                cursor = len(inflight)
                while inflight:
                    done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                    for future in done:
                        position = inflight.pop(future)
                        # Exactly-once delivery: only a future that
                        # *returned* marks its task delivered, so a
                        # crash replay can never double-report.
                        on_result(*future.result())
                        undelivered.remove(position)
                        if cursor < len(order):
                            replay = order[cursor]
                            cursor += 1
                            inflight[
                                pool.submit(run_replica_task, tasks[replay])
                            ] = replay
        except BrokenExecutor:
            pool_failures += 1
            if pool_failures > policy.max_retries:
                raise PoolBrokenError(
                    f"batch worker pool still broken after "
                    f"{policy.max_retries} rebuild(s); "
                    f"{len(undelivered)} task(s) unrecovered"
                ) from None
            time.sleep(policy.delay(pool_failures - 1))


def run_tasks(
    tasks: list[ReplicaTask],
    workers: int = 1,
    executor: Executor | None = None,
) -> list[ReplicaResult]:
    """Run explicit :class:`ReplicaTask` lists; results align with input.

    The engine's task machinery (per-process instance caches, finite
    validation, setup/solve timing) without the replica-seed derivation
    of :func:`run_batch`: each task runs with its own seed as given.
    The ``replica_batch`` bench kind times it as the per-replica
    baseline of a folded :func:`run_batch`.  (The solve service builds
    one task per request and maps :func:`run_replica_task` over its
    pool directly.)  ``tasks[i].instance_index`` must be ``i`` so
    results can be re-ordered deterministically regardless of
    completion order.
    """
    for position, task in enumerate(tasks):
        if task.instance_index != position:
            raise ConfigError(
                f"run_tasks requires instance_index == position; task "
                f"{position} carries instance_index={task.instance_index}"
            )
    collected: dict[int, ReplicaResult] = {}

    def on_result(instance_index: int, replica: ReplicaResult) -> None:
        collected[instance_index] = replica

    _execute_tasks(tasks, workers, executor, on_result)
    return [collected[i] for i in range(len(tasks))]


def run_batch(
    job: BatchJob,
    progress: Callable[[BatchProgress], None] | None = None,
    executor: Executor | None = None,
) -> list[BatchResult]:
    """Run a :class:`BatchJob`, returning one BatchResult per instance.

    ``progress`` (if given) receives a :class:`BatchProgress` event as
    each replica completes — streaming, not batched at the end.  An
    explicit ``executor`` overrides the engine's own process pool (e.g.
    a thread pool or an inline executor in tests).
    """
    engine = job.engine
    # Deterministic solvers produce the same tour for every seed, so
    # extra replicas would be bit-identical reruns: clamp to one.
    replicas = engine.replicas if get_solver(job.solver).stochastic else 1
    seeds = replica_seeds(engine.seed, replicas)

    workers = engine.resolved_workers(len(job.instances) * replicas)
    if replicas > 1 and executor is None:
        from repro.engine.replica_batch import foldable, run_folded_batch

        if foldable(job, workers):
            # Fold the replica dimension into the kernels' batch axis
            # instead of dispatching per-replica tasks; tours stay
            # bit-identical (same per-replica seeds and streams).
            return run_folded_batch(job, seeds, progress)

    tasks = [
        ReplicaTask(
            spec=spec,
            solver=job.solver,
            params=job.params,
            seed=seeds[replica],
            index=replica,
            instance_index=instance_index,
        )
        for instance_index, spec in enumerate(job.instances)
        for replica in range(replicas)
    ]

    collected: dict[int, list[ReplicaResult]] = {
        i: [] for i in range(len(job.instances))
    }
    completed = 0
    start = time.perf_counter()

    def on_result(instance_index: int, replica: ReplicaResult) -> None:
        nonlocal completed
        collected[instance_index].append(replica)
        completed += 1
        if progress is not None:
            progress(
                BatchProgress(
                    instance=job.instances[instance_index].label,
                    replica=replica.index,
                    replicas_total=replicas,
                    completed=completed,
                    total=len(tasks),
                    length=replica.length,
                )
            )

    _execute_tasks(tasks, workers, executor, on_result)
    wall = time.perf_counter() - start

    results = []
    for instance_index, spec in enumerate(job.instances):
        replicas = sorted(collected[instance_index], key=lambda r: r.index)
        results.append(
            BatchResult(
                instance_name=spec.label,
                n=spec.resolve().n if spec.size == 0 else spec.size,
                solver=job.solver,
                replicas=replicas,
                wall_seconds=wall,
            )
        )
    return results


def run_replicas(
    instance,
    solver: str = "taxi",
    replicas: int = 4,
    seed: int | None = 0,
    workers: int | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
    executor: Executor | None = None,
    **params,
) -> BatchResult:
    """Multi-start one instance and aggregate over seeded replicas.

    ``instance`` may be a :class:`TSPInstance`, a benchmark size/name,
    a TSPLIB path, or a ``family:n[:seed]`` generator token.  Extra
    keyword arguments go to the registered solver's factory.
    """
    job = BatchJob.create(
        [instance],
        solver=solver,
        params=params,
        engine=EngineConfig(replicas=replicas, workers=workers, seed=seed),
    )
    return run_batch(job, progress=progress, executor=executor)[0]
