"""Execution engine: solver registry + parallel multi-replica runner.

The engine turns the single-shot :class:`~repro.core.solver.TAXISolver`
(and every comparator) into a batchable service surface:

* :mod:`repro.engine.registry` — string-named solvers with a uniform
  ``solve(instance, **params) -> Tour`` contract;
* :mod:`repro.engine.runner` — deterministic multi-start execution
  on the wavefront pool, aggregated into
  :class:`~repro.core.result.BatchResult`;
* :mod:`repro.engine.jobs` — instance specs, per-process caches, and
  streamed batch progress;
* :mod:`repro.engine.wavefront` — the engine's one crash-recovering
  fan-out: the pipeline's per-level sub-problem batches, batch
  replicas, portfolio arms and the service's dispatch rounds;
* :mod:`repro.engine.bench` — the bench harness behind ``repro bench``
  (replica fold, sparse scale ladder and portfolio grids ->
  ``BENCH_<rev>.json``); the canonical benchmark is ``perfbench/``.

Quickstart::

    from repro.engine import run_replicas, solver_names

    batch = run_replicas(318, solver="taxi", replicas=8, workers=4,
                         seed=0, sweeps=200)
    print(batch.best_length, batch.median_length)
"""

from repro.core.config import EngineConfig
from repro.core.result import BatchResult, ReplicaResult
from repro.engine.jobs import (
    BatchJob,
    BatchProgress,
    InstanceSpec,
    cached_distance_matrix,
    clear_caches,
    resolve_instance,
    spec_from_token,
)
from repro.engine.registry import (
    SolverSpec,
    build_solver,
    get_solver,
    register_solver,
    solve_with,
    solver_names,
)
from repro.engine.recovery import RetryPolicy, TaskOutcome, run_with_recovery
from repro.engine.runner import (
    ReplicaTask,
    run_batch,
    run_replica_task,
    run_replicas,
    run_tasks,
    set_task_hook,
    validate_finite_instance,
)
from repro.engine.wavefront import WavefrontPool, chunk_indices

__all__ = [
    "WavefrontPool",
    "chunk_indices",
    "EngineConfig",
    "BatchResult",
    "ReplicaResult",
    "BatchJob",
    "BatchProgress",
    "InstanceSpec",
    "spec_from_token",
    "resolve_instance",
    "cached_distance_matrix",
    "clear_caches",
    "SolverSpec",
    "register_solver",
    "get_solver",
    "build_solver",
    "solve_with",
    "solver_names",
    "ReplicaTask",
    "RetryPolicy",
    "TaskOutcome",
    "run_replica_task",
    "run_replicas",
    "run_batch",
    "run_tasks",
    "run_with_recovery",
    "set_task_hook",
    "validate_finite_instance",
]
