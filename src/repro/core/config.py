"""End-to-end TAXI solver configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.macro.config import MacroConfig
from repro.macro.schedule import AnnealSchedule, paper_schedule
from repro.xbar.crossbar import CrossbarConfig


@dataclass(frozen=True)
class TAXIConfig:
    """Configuration of the full hierarchical solver.

    Parameters
    ----------
    max_cluster_size:
        Ising macro capacity; the paper's Fig 5a sweeps {12, 14, 16,
        18, 20} and settles on 12.
    bits:
        W_D bit precision (Fig 5b evaluates 2/3/4; 4 is the headline).
    sweeps:
        Annealing sweeps per sub-problem.  ``None`` uses the paper's
        exact 50 nA ramp (1341 sweeps); smaller values keep the same
        ramp endpoints with a coarser step.
    clustering:
        ``"ward"`` (the paper's agglomerative choice) or ``"kmeans"``
        (the baselines'; exposed for the E9 ablation).
    endpoint_fixing:
        Fix inter-cluster entry/exit cities before solving clusters
        (Section IV-2).  Disabling reverts to free sub-tours joined at
        centroid-nearest cities — the ablation case.
    crossbar:
        Electrical model shared by every macro.
    guarded_updates, wta_resolution:
        Forwarded to :class:`~repro.macro.config.MacroConfig`.
    seed:
        Master seed for every stochastic component.
    workers:
        Wavefront process-pool width for the hierarchical pipeline's
        per-level sub-problem batches.  ``1`` (default) solves chunks
        inline; any width yields bit-identical tours (chunks are
        deterministically cut and self-seeded).
    chunk_size:
        Sub-problems per wavefront dispatch chunk.  Part of the solve's
        deterministic identity (chunk ordinals feed the per-chunk
        seeds), so it is configuration, not a per-run tuning knob.
    """

    max_cluster_size: int = 12
    bits: int = 4
    sweeps: int | None = None
    clustering: str = "ward"
    endpoint_fixing: bool = True
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    guarded_updates: bool = True
    wta_resolution: float = 1e-3
    seed: int | None = 0
    workers: int = 1
    chunk_size: int = 8

    def __post_init__(self) -> None:
        if self.max_cluster_size < 4:
            raise ConfigError(
                f"max_cluster_size must be >= 4, got {self.max_cluster_size}"
            )
        if not 1 <= self.bits <= 8:
            raise ConfigError(f"bits must be in 1..8, got {self.bits}")
        if self.sweeps is not None and self.sweeps < 2:
            raise ConfigError(f"sweeps must be >= 2, got {self.sweeps}")
        if self.clustering not in ("ward", "kmeans"):
            raise ConfigError(
                f"clustering must be 'ward' or 'kmeans', got {self.clustering!r}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def macro_config(self) -> MacroConfig:
        """The per-macro configuration implied by this solver config."""
        return MacroConfig(
            max_cities=self.max_cluster_size,
            bits=self.bits,
            crossbar=self.crossbar,
            wta_resolution=self.wta_resolution,
            guarded_updates=self.guarded_updates,
        )

    def schedule(self) -> AnnealSchedule:
        """The annealing schedule implied by this solver config."""
        return paper_schedule(self.sweeps)


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of the multi-replica execution engine.

    Parameters
    ----------
    replicas:
        Independent seeded solver starts per instance; the engine
        reports best-of / percentile aggregates over them.
    workers:
        Process-pool width.  ``None`` picks ``min(replicas, cpu_count)``;
        ``1`` runs serially in-process (bit-identical to any parallel
        run thanks to pre-derived replica seeds).
    seed:
        Master seed; per-replica seeds are derived deterministically
        via :func:`repro.utils.rng.replica_seeds`.
    """

    replicas: int = 4
    workers: int | None = None
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def resolved_workers(self, task_count: int | None = None) -> int:
        """The actual pool width for ``task_count`` pending tasks."""
        import os

        width = self.workers if self.workers is not None else (os.cpu_count() or 1)
        if task_count is not None:
            width = min(width, task_count)
        return max(1, width)


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the solve-as-a-service layer.

    Parameters
    ----------
    queue_depth:
        Maximum requests admitted but not yet dispatched; further
        submissions are refused with :class:`ServiceError` (backpressure
        instead of unbounded memory).
    max_batch:
        Upper bound on requests taken into one dispatch round.  A round
        starts as soon as a worker is free and takes whatever is
        already queued, up to this many requests.
    cache_size:
        Result-cache capacity in entries (LRU eviction beyond it).
    cache_path:
        Optional JSON file for cache persistence: loaded at startup,
        written on shutdown/save.  ``None`` keeps the cache in memory
        only.
    job_history:
        Maximum finished (done/failed) jobs retained for ``GET
        /jobs/<id>``; the oldest are dropped beyond it so a long-lived
        process cannot grow without bound.  Queued/running jobs are
        never evicted.
    workers:
        Process-pool width for dispatched solve batches, and the number
        of dispatch rounds in flight at once.  ``1`` solves inline, one
        round at a time; results are bit-identical at any width
        (requests carry explicit seeds).
    default_deadline:
        Deadline in seconds applied to requests that don't carry their
        own ``deadline_seconds``.  ``None`` (default) means no
        deadline.  Expired jobs finish with status ``"expired"``.
    max_retries:
        Recovery budget of one dispatch round's engine call: bounds
        both pool respawns after worker crashes and each task's
        transient retries (see :class:`~repro.engine.recovery
        .RetryPolicy`).
    shed_retry_after:
        ``Retry-After`` seconds advertised when the service sheds load
        (HTTP 503) because the pool is degraded/respawning.
    arena:
        Shared-memory instance arena mode (``"auto"`` | ``"on"`` |
        ``"off"``).  When active, dispatched tasks carry a content-
        addressed :class:`~repro.engine.arena.ArenaRef` instead of
        pickled instance payloads, and pool workers attach coordinate/
        matrix blocks read-only.  ``"auto"`` engages the arena only
        when ``workers > 1`` (with one inline worker there is no
        process boundary to avoid copying across).
    request_timeout:
        Socket timeout in seconds applied to each HTTP connection, so
        a stalled or half-open client releases its handler thread
        instead of pinning it forever.
    warm_start:
        Near-match warm-start tier mode (``"on"`` | ``"off"``).  When
        on, a portfolio solve that misses the result cache may seed its
        annealing arms from the cached tour of a geometrically similar
        instance; the result carries ``warm_start: <source_fp16>``
        provenance.
    """

    queue_depth: int = 64
    max_batch: int = 16
    cache_size: int = 256
    cache_path: str | None = None
    job_history: int = 1024
    workers: int = 1
    default_deadline: float | None = None
    max_retries: int = 3
    shed_retry_after: float = 0.5
    arena: str = "auto"
    request_timeout: float = 30.0
    warm_start: str = "on"

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.job_history < 1:
            raise ConfigError(
                f"job_history must be >= 1, got {self.job_history}"
            )
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.cache_size < 1:
            raise ConfigError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigError(
                f"default_deadline must be > 0, got {self.default_deadline}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.shed_retry_after <= 0:
            raise ConfigError(
                f"shed_retry_after must be > 0, got {self.shed_retry_after}"
            )
        if self.arena not in ("auto", "on", "off"):
            raise ConfigError(
                f"arena must be 'auto', 'on', or 'off', got {self.arena!r}"
            )
        if self.request_timeout <= 0:
            raise ConfigError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.warm_start not in ("on", "off"):
            raise ConfigError(
                f"warm_start must be 'on' or 'off', got {self.warm_start!r}"
            )

    def warm_start_enabled(self) -> bool:
        """Whether portfolio misses may seed from near-match cached tours."""
        return self.warm_start == "on"

    def arena_enabled(self) -> bool:
        """Whether dispatches should publish to the instance arena."""
        if self.arena == "on":
            return True
        if self.arena == "off":
            return False
        return self.workers > 1


@dataclass(frozen=True)
class LoadgenConfig:
    """Configuration of one seeded load-test run (``repro loadtest``).

    Parameters
    ----------
    instances:
        Instance tokens (everything ``repro batch --instances`` takes)
        that cold requests draw from, uniformly under the run seed.
        ``scenario:<name>`` entries expand to that registered workload
        scenario's token list (:mod:`repro.tsp.scenarios`).
    requests:
        Total requests in the schedule.
    concurrency:
        Closed-loop worker count (in-flight ceiling).
    warm_ratio:
        Probability that a scheduled request repeats the fingerprint of
        an earlier cold request (a guaranteed cache hit) instead of
        opening a fresh one.  The schedule — not thread timing —
        decides the cold/warm split, so two runs with one seed report
        identical cache hit/miss totals.
    mode:
        ``"closed"`` (each worker issues its next request as soon as
        the previous completes) or ``"open"`` (requests are released at
        seeded Poisson arrival times regardless of completions — the
        saturation-probe mode).
    rate:
        Mean arrivals per second for ``mode="open"``.
    solver, params:
        Solver configuration shared by every scheduled request
        (``params`` canonical per the service fingerprint rules).
    seed:
        Master seed: fully determines the schedule (tokens, cold
        seeds, warm references, arrival times).
    timeout:
        Per-request completion timeout in seconds.
    deadline:
        Optional per-request ``deadline_seconds`` attached to every
        scheduled request (server-side enforcement; ``None`` sends
        none).
    max_retries:
        Client-side retry budget for shed responses (503/``ShedError``)
        — the loadgen backs off by the advertised ``Retry-After`` and
        re-issues, so a brief degraded window costs latency, not
        failed requests.
    chaos:
        Enable the seeded fault injector for in-process runs (worker
        kills, slow-solve latency, transient task faults).  Against an
        HTTP driver the flag only annotates the report — inject on the
        server via ``repro serve --chaos-seed``.
    chaos_seed:
        Seed of the fault schedule; ``None`` reuses the run seed.  Two
        runs with equal chaos config produce identical fault schedules
        (assert via the injector's ``schedule_digest``).
    chaos_kill_rate, chaos_slow_rate, chaos_transient_rate:
        Per-slot probabilities of each fault class in the precomputed
        schedule.
    chaos_slow_seconds:
        Upper bound of injected solve latency (per-slot values are
        seeded draws in ``[0, chaos_slow_seconds]``).
    shards:
        Shard count for the sharded serving mode: ``repro loadtest
        --shards N`` spins up N single-service shard processes and
        routes each request by its fingerprint (client-side, same
        :func:`~repro.service.shards.shard_for` function the router
        uses).  ``1`` (default) keeps the classic single-service path.
        The schedule itself is shard-count independent, so reports are
        comparable across shard counts.
    open_loop_threads:
        Issuing-pool ceiling for ``mode="open"``: scheduled arrivals are
        dispatched by this many pooled threads instead of one parked
        thread per request (which collapses at ``--requests 5000``).
        Arrivals beyond the pool's instantaneous capacity queue and are
        reported honestly through ``max_arrival_lag_seconds``.
    """

    instances: tuple[str, ...] = ("101",)
    requests: int = 100
    concurrency: int = 8
    warm_ratio: float = 0.5
    mode: str = "closed"
    rate: float = 50.0
    solver: str = "taxi"
    params: tuple[tuple[str, object], ...] = (("sweeps", 30),)
    seed: int = 0
    timeout: float = 300.0
    deadline: float | None = None
    max_retries: int = 3
    chaos: bool = False
    chaos_seed: int | None = None
    chaos_kill_rate: float = 0.08
    chaos_slow_rate: float = 0.10
    chaos_transient_rate: float = 0.05
    chaos_slow_seconds: float = 0.25
    shards: int = 1
    open_loop_threads: int = 128

    def __post_init__(self) -> None:
        if not self.instances:
            raise ConfigError("loadgen needs at least one instance token")
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ConfigError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not 0.0 <= self.warm_ratio <= 1.0:
            raise ConfigError(
                f"warm_ratio must be in [0, 1], got {self.warm_ratio}"
            )
        if self.mode not in ("closed", "open"):
            raise ConfigError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.rate <= 0:
            raise ConfigError(f"rate must be > 0, got {self.rate}")
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError(f"deadline must be > 0, got {self.deadline}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        for name in ("chaos_kill_rate", "chaos_slow_rate",
                     "chaos_transient_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.chaos_slow_seconds < 0:
            raise ConfigError(
                f"chaos_slow_seconds must be >= 0, got {self.chaos_slow_seconds}"
            )
        if self.chaos_seed is not None and self.chaos_seed < 0:
            raise ConfigError(
                f"chaos_seed must be >= 0, got {self.chaos_seed}"
            )
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.open_loop_threads < 1:
            raise ConfigError(
                f"open_loop_threads must be >= 1, got {self.open_loop_threads}"
            )

    def params_dict(self) -> dict:
        return dict(self.params)
