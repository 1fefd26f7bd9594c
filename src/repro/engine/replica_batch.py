"""Replica folding: a taxi batch job's R replicas as one pipeline run.

The paper's chip gets replica throughput by annealing many macros in
lock-step, not by running more processes.  When a batch job's taxi
replicas differ only by seed and run in process, the engine folds them
into one :func:`~repro.core.solver.solve_taxi_replicas` call per
instance: the replicas share one hierarchy, and the chunks of a level,
of every shape and every replica, anneal as one ragged kernel batch.

The rule is read from the run itself (:func:`foldable`): the engine
would run the replicas in process, and clustering is ``ward`` (so every
replica shares one hierarchy).
Any other job dispatches per-replica tasks on the engine's pool.
:func:`~repro.engine.runner.run_batch` calls :func:`solve_folded` once
per instance and hands each replica to the same progress and result
assembly as its pool path.

The per-replica seed contract is preserved exactly: replica ``r``
consumes the same RNG streams it would consume solo, so folded tours
are **bit-identical** to per-replica runs (asserted in the test suite
and by the ``replica_batch`` bench grid's tour hashes).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import ReplicaResult
from repro.engine.jobs import BatchJob, InstanceSpec
from repro.errors import ConfigError

#: taxi parameters a fold honours (all :class:`~repro.core.config.
#: TAXIConfig` fields); a job carrying anything else is not folded.
_FOLD_PARAMS = {
    "sweeps", "max_cluster_size", "bits", "clustering",
    "endpoint_fixing", "workers", "chunk_size",
}


def foldable(job: BatchJob, workers: int) -> bool:
    """Whether a job's replicas fold into one solve per instance.

    ``workers`` is the engine's resolved pool width for the job.
    """
    params = dict(job.params)
    return (
        job.solver == "taxi"
        and set(params) <= _FOLD_PARAMS
        and workers == 1
        and params.get("clustering", "ward") == "ward"
    )


def solve_folded(
    job: BatchJob, spec: InstanceSpec, seeds: list[int], instance_index: int
) -> list[ReplicaResult]:
    """One instance's replicas as one folded solve, in replica order.

    ``instance_index`` is the instance's position in ``job.instances``;
    the task hook sees it exactly as on the per-replica path.
    """
    from repro.core.config import TAXIConfig
    from repro.core.solver import solve_taxi_replicas
    from repro.engine import runner
    from repro.engine.runner import ReplicaTask, _validate_once

    # Task-hook parity with the per-replica path: the engine chaos hook
    # (latency, TransientError) fires once per replica here too, so a
    # folded batch is not a blind spot for fault injection.  The hook
    # never touches solver state, so tours stay bit-identical.
    if runner._TASK_HOOK is not None:
        for index, seed in enumerate(seeds):
            runner._TASK_HOOK(
                ReplicaTask(
                    spec=spec,
                    solver=job.solver,
                    params=job.params,
                    seed=seed,
                    index=index,
                    instance_index=instance_index,
                )
            )

    setup_start = time.perf_counter()
    instance = spec.resolve()
    _validate_once(instance)
    config = TAXIConfig(**dict(job.params))
    setup_seconds = time.perf_counter() - setup_start

    solve_start = time.perf_counter()
    results = solve_taxi_replicas(instance, config, seeds)
    seconds = (time.perf_counter() - solve_start) / len(seeds)

    replicas = []
    for index, (seed, result) in enumerate(zip(seeds, results)):
        length = float(result.tour.length)
        if not np.isfinite(length):
            raise ConfigError(
                f"solver {job.solver!r} produced a non-finite tour length "
                f"on {instance.name!r}"
            )
        replicas.append(
            ReplicaResult(
                index=index,
                seed=seed,
                order=np.asarray(result.tour.order, dtype=int),
                length=length,
                seconds=seconds,
                setup_seconds=setup_seconds / len(seeds),
            )
        )
    return replicas
