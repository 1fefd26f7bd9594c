"""Solve-as-a-service: content-addressed caching + a work-conserving queue.

The serving layer on top of the batch engine (PR 1), the vectorized
kernels (PR 2), and the wavefront pipeline (PR 3):

* :mod:`repro.service.fingerprint` — canonical, deterministic solve
  fingerprints (instance bytes + solver + canonical config + seed);
* :mod:`repro.service.cache` — LRU result cache with JSON persistence
  and hit/miss/eviction counters;
* :mod:`repro.service.queue` — asyncio dispatcher with in-flight
  deduplication, one dispatch round per free worker of the engine's
  wavefront pool;
* :mod:`repro.service.http` — the stdlib HTTP front-end behind
  ``repro serve`` (``/solve``, ``/jobs``, ``/stats``, ``/metrics``):
  one handler whose backend is a :class:`SolveService` or a sharded
  fleet;
* :mod:`repro.service.shards` — ``repro serve --shards N``: shard
  processes, each a full service, behind a fingerprint-routing
  :class:`~repro.service.shards.ShardedService` backend;
* :mod:`repro.service.metrics` — lock-safe counters/gauges/streaming
  histograms behind ``GET /metrics`` (JSON + Prometheus text);
* :mod:`repro.service.loadgen` — the seeded closed/open-loop load
  generator behind ``repro loadtest``.

Quickstart::

    from repro.core.config import ServiceConfig
    from repro.service import SolveRequest, SolveService

    with SolveService(ServiceConfig(workers=2)) as service:
        request = SolveRequest.create(262, solver="taxi",
                                      params={"sweeps": 60}, seed=0)
        job = service.solve(request)        # cold: runs the engine
        again = service.submit(request)     # hit: served from cache
        assert again.result["tour_hash"] == job.result["tour_hash"]
"""

from repro.service.cache import ResultCache
from repro.service.faults import FaultConfig, FaultInjector
from repro.service.fingerprint import (
    canonical_params,
    canonical_seed,
    instance_digest,
    solve_fingerprint,
)
from repro.service.loadgen import (
    HTTPDriver,
    InProcessDriver,
    LoadtestReport,
    build_schedule,
    run_loadtest,
    schedule_digest,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.service.queue import Job, SolveRequest, SolveService, job_id_for

__all__ = [
    "ResultCache",
    "FaultConfig",
    "FaultInjector",
    "canonical_params",
    "canonical_seed",
    "instance_digest",
    "solve_fingerprint",
    "Job",
    "SolveRequest",
    "SolveService",
    "job_id_for",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "HTTPDriver",
    "InProcessDriver",
    "LoadtestReport",
    "build_schedule",
    "run_loadtest",
    "schedule_digest",
]
