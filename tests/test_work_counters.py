"""Pinned work counters: the amount of work a solve does, not its time.

Wall time depends on the host; these counters do not.  Each cell runs
one fixed ``taxi`` solve and counts, through test-local wrappers on the
names the pipeline looks up:

* macro kernel calls (``anneal_group_fast``) and endpoint-fixing calls
  (``fix_level_endpoints``);
* endpoint-fixing cross-blocks the solve's ``SubmatrixCache`` computed
  (misses);
* cluster pairs fixed on the KD-tree path (``closest_pair_between``);
* the result's sub-problem and iteration totals, per level too;
* the tasks ``WavefrontPool.map`` received (the Ward blocks and
  re-splits, then every level's wave tasks).

The values were recorded before the level-wide host passes replaced
the per-cluster ones, which did not move any of them.  The misses fell
by the level-1 sub-problems' square blocks when the wave tasks began
to build their own sub-problems.  A change that moves one on purpose
updates :data:`PINNED` and says why; one accidental extra kernel call
per level fails here on any host.

The pickled bytes of those tasks differ a little between Python and
NumPy versions, so they get a ceiling (:data:`TASK_BYTES_CEILING`),
about 10% over this cell's bytes: a change that ships distance
matrices or input orders to the workers again crosses it.
"""

import pickle

import pytest

import repro.clustering.fixing as fixing
import repro.core.pipeline as pipeline
import repro.macro.batch as batch
from repro.engine.wavefront import WavefrontPool
from repro.core import TAXIConfig, TAXISolver
from repro.tsp.benchmarks import load_benchmark
from repro.tsp.generators import clustered_instance

#: cell id -> (instance factory, sweeps, pinned counters)
PINNED = [
    (
        "syn1060-sweeps30",
        lambda: load_benchmark(1060),
        30,
        {
            "kernel_calls": 3,
            "fixing_calls": 3,
            "submatrix_misses": 136,
            "kd_pairs": 11,
            "total_subproblems": 147,
            "total_iterations": 81_900,
            "level_subproblems": [(3, 2), (2, 15), (1, 130)],
            "wave_tasks": 6,
        },
    ),
    (
        # Above the exact-clustering threshold (KD-split Ward), with
        # level-2 cluster pairs too big for a cross-block.
        "clustered5000-sweeps10",
        lambda: clustered_instance(5000, seed=7),
        10,
        {
            "kernel_calls": 7,
            "fixing_calls": 3,
            "submatrix_misses": 682,
            "kd_pairs": 46,
            "total_subproblems": 726,
            "total_iterations": 127_830,
            "level_subproblems": [(3, 1), (3, 11), (2, 79), (1, 635)],
            "wave_tasks": 15,
        },
    ),
]

#: cell id -> most pickled bytes of the tasks ``WavefrontPool.map``
#: receives in one solve (40,325 and 270,665 with CPython 3.11 and
#: NumPy 2.4; the distance matrices alone pickled to 93,999 and
#: 433,827 bytes when the wave tasks carried them).
TASK_BYTES_CEILING = {
    "syn1060-sweeps30": 44_000,
    "clustered5000-sweeps10": 300_000,
}


def _counted_solve(monkeypatch, instance, sweeps):
    counts = {"kernel_calls": 0, "fixing_calls": 0, "kd_pairs": 0, "wave_tasks": 0}
    caches = []
    task_bytes = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    class CountedCache(pipeline.SubmatrixCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(
        batch, "anneal_group_fast", counting("kernel_calls", batch.anneal_group_fast)
    )
    monkeypatch.setattr(
        pipeline,
        "fix_level_endpoints",
        counting("fixing_calls", pipeline.fix_level_endpoints),
    )
    monkeypatch.setattr(
        fixing,
        "closest_pair_between",
        counting("kd_pairs", fixing.closest_pair_between),
    )
    monkeypatch.setattr(pipeline, "SubmatrixCache", CountedCache)
    pool_map = WavefrontPool.map

    def counted_map(pool, fn, tasks):
        tasks = list(tasks)
        counts["wave_tasks"] += len(tasks)
        task_bytes.extend(len(pickle.dumps(task)) for task in tasks)
        return pool_map(pool, fn, tasks)

    monkeypatch.setattr(WavefrontPool, "map", counted_map)
    result = TAXISolver(TAXIConfig(sweeps=sweeps, seed=0)).solve(instance)
    counts["submatrix_misses"] = sum(cache.misses for cache in caches)
    counts["total_subproblems"] = result.total_subproblems
    counts["total_iterations"] = result.total_iterations
    counts["level_subproblems"] = [
        (stats.level, stats.n_subproblems) for stats in result.level_stats
    ]
    return counts, sum(task_bytes)


@pytest.mark.parametrize(
    "make_instance, sweeps, pinned, ceiling",
    [(*cell[1:], TASK_BYTES_CEILING[cell[0]]) for cell in PINNED],
    ids=[cell[0] for cell in PINNED],
)
def test_work_counters_are_pinned(monkeypatch, make_instance, sweeps, pinned, ceiling):
    counts, task_bytes = _counted_solve(monkeypatch, make_instance(), sweeps)
    assert counts == pinned
    assert task_bytes <= ceiling
