"""Multi-start / multi-replica execution over the engine's pool.

This is the throughput layer the paper's chip provides in hardware:
many independent anneals in flight at once.  A job fans out as
``instances x replicas`` tasks on one
:class:`~repro.engine.wavefront.WavefrontPool`; each task re-derives
its solver from ``(solver name, params, replica seed)`` inside the
worker, so nothing stateful crosses process boundaries and a run is
reproducible bit-for-bit at any worker count:

* replica seeds are pre-derived in the parent from the master seed
  (:func:`repro.utils.rng.replica_seeds`), never from pool scheduling;
* results come back in task order and are grouped by instance and
  sorted by replica index, so completion order cannot leak into
  aggregates;
* ``workers=1`` runs the exact same task function inline;
* a task lost to a dead worker is replayed, and a
  :class:`~repro.errors.TransientError` retried, by the pool's one
  crash-recovery driver (:func:`repro.engine.recovery.run_with_recovery`).

Usage::

    from repro.engine import run_replicas

    batch = run_replicas(318, solver="taxi", replicas=8, seed=0,
                         workers=4, sweeps=200)
    batch.best_length, batch.median_length, batch.percentile(90)
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
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
from repro.engine.wavefront import WavefrontPool
from repro.errors import ConfigError
from repro.tsp.instance import TSPInstance
from repro.utils.rng import replica_seeds


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
    proper are timed separately so kernel speedups stay visible even
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
    on_result: Callable[[tuple[int, ReplicaResult]], None] | None = None,
) -> list[tuple[int, ReplicaResult]]:
    """Run every task on the engine's pool; values align with ``tasks``.

    ``on_result`` receives each ``(instance_index, replica)`` exactly
    once, as it lands.  Every task runs; then the first error in task
    order is raised.  ``eager`` keeps a replay round of one lost task
    in a fresh worker instead of the calling process.
    """
    with WavefrontPool(workers=workers, executor=executor, eager=True) as pool:
        outcomes = pool.map_outcomes(
            run_replica_task, tasks, on_result=on_result
        )
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.value for outcome in outcomes]


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
    pool directly.)
    """
    return [replica for _, replica in _execute_tasks(tasks, workers, executor)]


def run_batch(
    job: BatchJob,
    progress: Callable[[BatchProgress], None] | None = None,
    executor: Executor | None = None,
) -> list[BatchResult]:
    """Run a :class:`BatchJob`, returning one BatchResult per instance.

    ``progress`` (if given) receives a :class:`BatchProgress` event as
    each replica completes — streaming, not batched at the end; each
    replica reports once, also after a crash replay.  An explicit
    ``executor`` overrides the engine's own process pool (e.g. a thread
    pool or an inline executor in tests).  A failing task does not stop
    its siblings: the batch runs them all, then raises the first error
    in task order.
    """
    from repro.engine.replica_batch import foldable, solve_folded

    engine = job.engine
    # Deterministic solvers produce the same tour for every seed, so
    # extra replicas would be bit-identical reruns: clamp to one.
    replicas = engine.replicas if get_solver(job.solver).stochastic else 1
    seeds = replica_seeds(engine.seed, replicas)
    total = len(job.instances) * replicas
    workers = engine.resolved_workers(total)

    collected: list[list[ReplicaResult]] = [[] for _ in job.instances]
    completed = 0

    def on_result(value: tuple[int, ReplicaResult]) -> None:
        nonlocal completed
        instance_index, replica = value
        collected[instance_index].append(replica)
        completed += 1
        if progress is not None:
            progress(
                BatchProgress(
                    instance=job.instances[instance_index].label,
                    replica=replica.index,
                    replicas_total=replicas,
                    completed=completed,
                    total=total,
                    length=replica.length,
                )
            )

    start = time.perf_counter()
    if replicas > 1 and executor is None and foldable(job, workers):
        # Fold the replica dimension into the kernels' batch axis
        # instead of dispatching per-replica tasks; tours stay
        # bit-identical (same per-replica seeds and streams).
        for instance_index, spec in enumerate(job.instances):
            for replica in solve_folded(job, spec, seeds, instance_index):
                on_result((instance_index, replica))
    else:
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
        _execute_tasks(tasks, workers, executor, on_result)
    wall = time.perf_counter() - start

    return [
        BatchResult(
            instance_name=spec.label,
            n=spec.resolve().n if spec.size == 0 else spec.size,
            solver=job.solver,
            replicas=sorted(results, key=lambda r: r.index),
            wall_seconds=wall,
        )
        for spec, results in zip(job.instances, collected)
    ]


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
