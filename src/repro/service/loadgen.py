"""Seeded closed/open-loop load generator for the solve service.

``repro loadtest`` turns "a single curl" into reproducible traffic:
a schedule of requests — instance tokens, per-request seeds, a
cold/warm cache mix, optional Poisson arrival times — is derived
entirely from one master seed, then driven at a configurable
concurrency against a :class:`~repro.service.queue.SolveService`
either **in-process** (:class:`InProcessDriver`, no sockets — measures
the service itself) or **over HTTP** (:class:`HTTPDriver`, against a
running ``repro serve`` — measures the whole stack).

Determinism contract
--------------------
Two runs with the same :class:`~repro.core.config.LoadgenConfig`
produce the identical request schedule (assert via
:func:`schedule_digest`) *and* identical cache hit/miss totals.  The
second half is the subtle one: under concurrency, whether a repeated
fingerprint lands as a cache hit, an in-flight dedup, or a second
solve would normally depend on thread timing.  The loadgen removes the
race by construction:

* every **cold** request carries a unique derived seed, so cold
  fingerprints never collide (each misses exactly once);
* every **warm** request names the cold request it repeats and *gates
  on that request's completion* before issuing, so it is always a
  cache hit (never a dedup, never a second solve).

The ledger is therefore decided by the schedule: ``misses == cold
count``, ``hits == warm count``, run after run.  (Warm gating can
delay an open-loop arrival slightly; the recorded latency starts at
actual issue time, so the percentiles stay honest.)

The client-side latency distribution is sketched with the same
streaming :class:`~repro.service.metrics.Histogram` the service uses,
so a million-request soak costs O(buckets) memory, and the run summary
reports the same counters ``GET /metrics`` serves — cross-checkable
number-for-number.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

from repro.core.config import LoadgenConfig, ServiceConfig
from repro.errors import ConfigError, DeadlineError, ReproError, ShedError
from repro.service.faults import FaultConfig, FaultInjector
from repro.service.metrics import Histogram
from repro.service.queue import SolveRequest, SolveService

#: Multiplier deriving unique per-cold-request seeds from (run seed,
#: slot index); any odd constant works, primes keep collisions at bay
#: even across run seeds.
_COLD_SEED_STRIDE = 1_000_003

#: Stable error-class vocabulary of the per-record/summary accounting.
ERROR_CLASSES = ("shed", "timeout", "deadline", "error")


def classify_error(error: BaseException) -> str:
    """Map one request failure onto the summary's error-class ledger."""
    if isinstance(error, ShedError):
        return "shed"
    if isinstance(error, DeadlineError):
        return "deadline"
    text = str(error).lower()
    if (
        isinstance(error, TimeoutError)
        or "timed out" in text
        or "did not finish within" in text
    ):
        return "timeout"
    return "error"


def _check_done(view: dict) -> dict:
    """Raise the class-appropriate error for a non-done job view."""
    if view["status"] == "done":
        return view
    message = view.get("error") or f"job ended {view['status']!r}"
    if view["status"] == "expired":
        raise DeadlineError(message)
    raise ReproError(message)


@dataclass(frozen=True)
class PlannedRequest:
    """One slot of the precomputed request schedule.

    ``kind`` is ``"cold"`` (fresh fingerprint, unique seed) or
    ``"warm"`` (repeats the fingerprint of the cold request at index
    ``ref``).  ``arrival`` is the seconds offset from run start at
    which an open-loop run releases the request (0.0 in closed loop).
    """

    index: int
    token: str
    solver: str
    params: tuple[tuple[str, object], ...]
    seed: int
    kind: str
    ref: int = -1
    arrival: float = 0.0
    deadline: float | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "token": self.token,
            "solver": self.solver,
            "params": dict(self.params),
            "seed": self.seed,
            "kind": self.kind,
            "ref": self.ref,
            "arrival": self.arrival,
            "deadline": self.deadline,
        }


def expand_instances(tokens) -> tuple[str, ...]:
    """Expand ``scenario:<name>`` entries into that scenario's tokens.

    Lets a load test draw its request mix straight from the named
    workload scenarios (:mod:`repro.tsp.scenarios`) — e.g.
    ``--instances scenario:paper-small`` — alongside ordinary engine
    tokens.  Unknown scenario names raise :class:`ConfigError`.
    """
    expanded: list[str] = []
    for token in tokens:
        text = str(token)
        if text.startswith("scenario:"):
            from repro.tsp.scenarios import get_scenario

            expanded.extend(get_scenario(text[len("scenario:"):]).tokens)
        else:
            expanded.append(text)
    return tuple(expanded)


def build_schedule(config: LoadgenConfig) -> tuple[PlannedRequest, ...]:
    """Derive the full request schedule from the config seed.

    Pure function of the config: tokens, cold seeds, warm references,
    and arrival offsets all come from one :class:`numpy.random
    .Generator` stream, so equal configs always yield equal schedules.
    """
    instances = expand_instances(config.instances)
    rng = np.random.default_rng(config.seed)
    planned: list[PlannedRequest] = []
    cold_indices: list[int] = []
    clock = 0.0
    for index in range(config.requests):
        arrival = 0.0
        if config.mode == "open":
            clock += float(rng.exponential(1.0 / config.rate))
            arrival = clock
        # The first request is always cold (nothing to repeat yet).
        warm = bool(cold_indices) and float(rng.random()) < config.warm_ratio
        if warm:
            ref = cold_indices[int(rng.integers(len(cold_indices)))]
            base = planned[ref]
            planned.append(PlannedRequest(
                index=index, token=base.token, solver=base.solver,
                params=base.params, seed=base.seed, kind="warm", ref=ref,
                arrival=arrival, deadline=config.deadline,
            ))
        else:
            token = instances[int(rng.integers(len(instances)))]
            planned.append(PlannedRequest(
                index=index, token=token, solver=config.solver,
                params=config.params,
                seed=config.seed * _COLD_SEED_STRIDE + index, kind="cold",
                arrival=arrival, deadline=config.deadline,
            ))
            cold_indices.append(index)
    return tuple(planned)


def schedule_digest(schedule: tuple[PlannedRequest, ...]) -> str:
    """Content hash of a schedule (equal digests == identical traffic)."""
    payload = json.dumps([p.as_dict() for p in schedule], sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------

class InProcessDriver:
    """Drives a started :class:`SolveService` directly (no sockets)."""

    name = "in-process"

    def __init__(self, service: SolveService) -> None:
        self.service = service

    def solve(self, planned: PlannedRequest, timeout: float) -> dict:
        request = SolveRequest.create(
            planned.token, solver=planned.solver,
            params=dict(planned.params), seed=planned.seed,
            deadline_seconds=planned.deadline,
        )
        job = self.service.solve(request, timeout=timeout)
        return _check_done(job.as_dict())

    def stats(self) -> dict:
        return self.service.stats()

    def metrics(self) -> dict:
        return self.service.metrics.snapshot()


class HTTPDriver:
    """Drives a running ``repro serve`` endpoint over HTTP."""

    name = "http"

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")
        if not self.base_url.startswith(("http://", "https://")):
            raise ConfigError(
                f"HTTP driver needs an http(s):// base URL, got {base_url!r}"
            )

    def _call(self, path: str, body: dict | None = None,
              timeout: float = 60.0, base: str | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            (base or self.base_url) + path, data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.load(response)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.load(exc).get("error", "")
            except Exception:
                pass
            message = f"HTTP {exc.code} on {path}: {detail or exc.reason}"
            if exc.code in (429, 503):
                # Shed/backpressure: retryable, with the server's own
                # Retry-After hint when it sent one.
                try:
                    retry_after = float(exc.headers.get("Retry-After", 0.5))
                except (TypeError, ValueError):
                    retry_after = 0.5
                raise ShedError(message, retry_after=retry_after) from exc
            raise ReproError(message) from exc

    def _base_for(self, planned: PlannedRequest) -> str:
        """The base URL that answers ``planned``."""
        return self.base_url

    def solve(self, planned: PlannedRequest, timeout: float) -> dict:
        base = self._base_for(planned)
        body = {
            "instance": planned.token,
            "solver": planned.solver,
            "seed": planned.seed,
            "params": dict(planned.params),
        }
        if planned.deadline is not None:
            body["deadline_seconds"] = planned.deadline
        view = self._call("/solve", body, timeout=timeout, base=base)
        if view["status"] in ("queued", "running"):
            view = self._call(
                f"/jobs/{view['job_id']}?wait={timeout:g}",
                timeout=timeout + 10.0, base=base,
            )
        return _check_done(view)

    def stats(self) -> dict:
        return self._call("/stats")

    def metrics(self) -> dict:
        return self._call("/metrics")


class ShardedHTTPDriver(HTTPDriver):
    """Drives a :class:`~repro.service.shards.ShardedService` fleet.

    Routes client-side: each planned request is fingerprinted locally
    and POSTed straight to the owning shard's own HTTP port (the same
    ``shard_for`` the router uses, so the two paths are bit-identical),
    skipping the router hop to measure the sharded data plane itself.
    Stats/metrics come from the fleet aggregators — counters summed
    across shards into the single-service ledger shape, so the report
    delta accounting works unchanged.
    """

    name = "sharded-http"

    def __init__(self, fleet) -> None:
        self.fleet = fleet

    def _base_for(self, planned: PlannedRequest) -> str:
        from repro.service.shards import shard_for

        request = SolveRequest.create(
            planned.token, solver=planned.solver,
            params=dict(planned.params), seed=planned.seed,
            deadline_seconds=planned.deadline,
        )
        return self.fleet.shard_url(
            shard_for(request.fingerprint(), self.fleet.shards)
        )

    def stats(self) -> dict:
        return self.fleet.stats()

    def metrics(self) -> dict:
        return self.fleet.metrics_snapshot()


# ----------------------------------------------------------------------
# the run loop
# ----------------------------------------------------------------------

@dataclass
class RequestRecord:
    """Client-side outcome of one scheduled request.

    ``lag`` is issue time minus scheduled arrival (open loop only;
    exactly 0.0 in closed loop, which has no arrival schedule to lag
    behind) — nonzero lag means the generator itself, not the service,
    delayed the request.
    ``retries`` counts shed responses the client retried before this
    outcome; ``seconds`` spans the whole attempt sequence, backoffs
    included, so shed-then-served requests report their honest cost.
    ``error_class`` buckets failures per :data:`ERROR_CLASSES`.
    """

    index: int
    kind: str
    token: str
    seconds: float
    cached: bool = False
    lag: float = 0.0
    error: str | None = None
    error_class: str | None = None
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _counter_delta(after: dict, before: dict) -> dict:
    """Per-key difference of two counter snapshots (numeric keys only)."""
    delta = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[key] = value - before.get(key, 0)
        else:
            delta[key] = value
    return delta


class LoadtestReport:
    """Everything one load-test run measured, queryable or summarized.

    Server-side counters are reported as the **delta** between the
    post-run and pre-run snapshots, so a run against a long-lived
    ``repro serve`` describes this run's traffic, not the server's
    lifetime totals.
    """

    def __init__(self, config: LoadgenConfig,
                 schedule: tuple[PlannedRequest, ...],
                 records: list[RequestRecord], wall_seconds: float,
                 stats: dict, metrics: dict, driver_name: str,
                 stats_before: dict | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        self.config = config
        self.schedule = schedule
        self.records = records
        self.wall_seconds = wall_seconds
        self.stats = stats
        self.stats_before = stats_before or {}
        self.metrics = metrics
        self.driver_name = driver_name
        self.fault_injector = fault_injector

    def _chaos_summary(self) -> dict | None:
        """The summary's chaos block (None when chaos was off).

        In-process runs report their own injector; HTTP runs against a
        ``repro serve --chaos-seed`` server read the server's schedule
        digest + injection counters from ``GET /stats``.
        """
        if self.fault_injector is not None:
            return {
                "injection": "in-process",
                "seed": self.fault_injector.config.seed,
                "schedule_digest": self.fault_injector.schedule_digest(),
                "injected": self.fault_injector.stats(),
            }
        health = self.stats.get("health") or {}
        if health.get("chaos_schedule"):
            return {
                "injection": "server-side",
                "seed": None,
                "schedule_digest": health.get("chaos_schedule"),
                "injected": health.get("chaos_injected"),
            }
        return None

    def _latency(self, kind: str | None = None) -> dict:
        histogram = Histogram("latency")
        for record in self.records:
            if record.ok and (kind is None or record.kind == kind):
                histogram.observe(record.seconds)
        return histogram.snapshot()

    def summary(self) -> dict:
        """The run-summary payload (what ``repro loadtest`` writes)."""
        completed = sum(1 for r in self.records if r.ok)
        errors = [r for r in self.records if not r.ok]
        overall = self._latency()
        requests = _counter_delta(
            self.stats.get("requests", {}),
            self.stats_before.get("requests", {}),
        )
        cache = _counter_delta(
            self.stats.get("cache", {}), self.stats_before.get("cache", {})
        )
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
        windows = requests.get("windows", 0)
        batched = requests.get("batched_requests", 0)
        return {
            "driver": self.driver_name,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "instances": list(self.config.instances),
            "solver": self.config.solver,
            "params": self.config.params_dict(),
            "concurrency": self.config.concurrency,
            "shards": self.config.shards,
            "requests": len(self.records),
            "completed": completed,
            "errors": len(errors),
            "error_classes": {
                name: sum(1 for e in errors if e.error_class == name)
                for name in ERROR_CLASSES
            },
            "client_retries": sum(r.retries for r in self.records if r),
            "error_samples": [e.error for e in errors[:5]],
            "scheduled_cold": sum(1 for p in self.schedule if p.kind == "cold"),
            "scheduled_warm": sum(1 for p in self.schedule if p.kind == "warm"),
            "schedule_digest": schedule_digest(self.schedule),
            "wall_seconds": self.wall_seconds,
            "requests_per_sec": (
                completed / self.wall_seconds if self.wall_seconds > 0 else None
            ),
            # Worst generator-side delay behind the arrival schedule:
            # a large value means the probe under-drove the requested
            # rate — read the percentiles accordingly.  Closed-loop
            # runs have no arrival schedule, so the key reports None
            # there (a number would imply a measurement that does not
            # exist; it used to leak issue-clock deltas).
            "max_arrival_lag_seconds": (
                max((r.lag for r in self.records if r is not None),
                    default=0.0)
                if self.config.mode == "open" else None
            ),
            "p50_seconds": overall["p50"],
            "p95_seconds": overall["p95"],
            "p99_seconds": overall["p99"],
            "mean_seconds": overall["mean"],
            "max_seconds": overall["max"],
            "latency": {
                "overall": overall,
                "cold": self._latency("cold"),
                "warm": self._latency("warm"),
            },
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_hit_rate": cache.get("hit_rate", 0.0),
            # Requests per dispatch round.
            "mean_batch_size": (batched / windows) if windows else 0.0,
            "server_requests": requests,
            "chaos": self._chaos_summary(),
        }


def run_loadtest(
    config: LoadgenConfig,
    driver=None,
    service_config: ServiceConfig | None = None,
    workers: int = 1,
) -> LoadtestReport:
    """Run one load test and return its report.

    Without a ``driver`` an in-process :class:`SolveService` is created
    (and closed) for the run, sized so the run itself can never trip
    backpressure or evict its own warm targets: ``queue_depth`` covers
    the concurrency and ``cache_size`` covers every cold fingerprint
    (``workers`` sets that service's pool width).  With
    ``config.shards > 1`` the run instead spawns a
    :class:`~repro.service.shards.ShardedService` fleet and drives it
    through :class:`ShardedHTTPDriver` (client-side fingerprint
    routing, one HTTP port per shard).  Pass :class:`HTTPDriver` (or a
    pre-built :class:`InProcessDriver`) to measure an existing service
    instead.

    Closed loop: ``config.concurrency`` worker threads each issue
    their next request when the previous completes (in-flight ceiling
    = concurrency).  Open loop: every request is issued on its *own*
    thread at its scheduled arrival time, so arrivals never wait for
    completions — the in-flight count floats, which is the whole point
    of a saturation probe.  Each record carries its ``lag`` (issue
    time minus scheduled arrival); the summary reports the worst lag
    so an under-driven run is visible instead of silent.
    """
    schedule = build_schedule(config)
    own_service: SolveService | None = None
    own_fleet = None
    fault_injector: FaultInjector | None = None
    fault_config: FaultConfig | None = None
    if config.chaos and driver is None:
        fault_config = FaultConfig(
            seed=(config.chaos_seed if config.chaos_seed is not None
                  else config.seed),
            kill_rate=config.chaos_kill_rate,
            slow_rate=config.chaos_slow_rate,
            slow_seconds=config.chaos_slow_seconds,
            transient_rate=config.chaos_transient_rate,
        )
    if driver is None:
        if service_config is None:
            service_config = ServiceConfig(
                workers=workers,
                queue_depth=max(64, 2 * config.concurrency),
                cache_size=max(256, config.requests),
            )
        if config.shards > 1:
            # Sharded run: spawn a fleet of shard processes for the
            # duration and route to them client-side.  Chaos (if any)
            # is injected server-side inside each shard, exactly as
            # `repro serve --shards N --chaos-seed` would.
            from repro.service.shards import ShardedService

            own_fleet = ShardedService(
                config.shards, service_config, fault_config=fault_config
            ).start()
            driver = ShardedHTTPDriver(own_fleet)
        else:
            if fault_config is not None:
                fault_injector = FaultInjector(fault_config)
            own_service = SolveService(
                service_config, fault_injector=fault_injector
            ).start()
            driver = InProcessDriver(own_service)

    records: list[RequestRecord] = [None] * len(schedule)  # type: ignore[list-item]
    done_events = [threading.Event() for _ in schedule]
    # Counter snapshot before any traffic: the summary ledger is the
    # delta, so driving a long-lived server doesn't fold its previous
    # lifetime totals into this run's numbers.
    stats_before = driver.stats()
    start = time.perf_counter()

    def issue(slot: int) -> None:
        planned = schedule[slot]
        if planned.kind == "warm":
            # Gate on the referenced cold solve: the hit/miss ledger
            # is decided by the schedule, not by thread timing.
            done_events[planned.ref].wait(config.timeout)
        issued = time.perf_counter()
        # Lag is only meaningful against an arrival schedule; closed
        # loop has none (issue time is "whenever the worker freed up"
        # by design, not a delay).
        lag = (max(0.0, (issued - start) - planned.arrival)
               if config.mode == "open" else 0.0)
        attempts = 0
        try:
            while True:
                try:
                    view = driver.solve(planned, config.timeout)
                    records[slot] = RequestRecord(
                        index=slot, kind=planned.kind, token=planned.token,
                        seconds=time.perf_counter() - issued,
                        cached=bool(view.get("cached")), lag=lag,
                        retries=attempts,
                    )
                except ShedError as exc:
                    # Degraded-mode shedding is advisory, not terminal:
                    # back off by the server's hint and re-issue, up to
                    # the client retry budget.
                    if attempts < config.max_retries:
                        attempts += 1
                        time.sleep(max(0.0, exc.retry_after))
                        continue
                    records[slot] = RequestRecord(
                        index=slot, kind=planned.kind, token=planned.token,
                        seconds=time.perf_counter() - issued, lag=lag,
                        error=f"{type(exc).__name__}: {exc}",
                        error_class="shed", retries=attempts,
                    )
                except Exception as exc:  # record and keep driving: a
                    # load test must survive individual request failures
                    # (backpressure 429s, socket timeouts) to measure
                    # them.
                    records[slot] = RequestRecord(
                        index=slot, kind=planned.kind, token=planned.token,
                        seconds=time.perf_counter() - issued, lag=lag,
                        error=f"{type(exc).__name__}: {exc}",
                        error_class=classify_error(exc), retries=attempts,
                    )
                break
        finally:
            done_events[slot].set()

    def closed_loop() -> list[threading.Thread]:
        next_slot = {"index": 0}
        slot_lock = threading.Lock()

        def worker() -> None:
            while True:
                with slot_lock:
                    slot = next_slot["index"]
                    if slot >= len(schedule):
                        return
                    next_slot["index"] = slot + 1
                issue(slot)

        return [
            threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
            for i in range(config.concurrency)
        ]

    release = threading.Event()

    def open_loop() -> list[threading.Thread]:
        # Bounded issuing pool.  The previous design pre-spawned one
        # parked thread per request, which collapses around
        # --requests 5000 (a thread stack per scheduled arrival).  Now
        # one scheduler thread walks the arrival schedule in order —
        # enqueueing a slot is O(1), so thread spawn cost can no longer
        # accumulate into the schedule and under-drive fast rates —
        # and `open_loop_threads` pooled issuers drain the queue.
        # Arrivals beyond the pool's instantaneous capacity wait their
        # turn; `issue` stamps lag at actual issue time, so
        # max_arrival_lag_seconds stays honest about that queueing.
        arrivals: queue.Queue = queue.Queue()
        pool_width = min(len(schedule), config.open_loop_threads)

        def scheduler() -> None:
            release.wait()
            for slot in range(len(schedule)):
                delay = (start + schedule[slot].arrival) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                arrivals.put(slot)
            # Sentinels only after every slot completed: a warm slot
            # rotated to the back of the queue (below) must never land
            # behind an issuer-stopping sentinel.
            for event in done_events:
                event.wait(config.timeout)
            for _ in range(pool_width):
                arrivals.put(None)

        def issuer() -> None:
            while True:
                slot = arrivals.get()
                if slot is None:
                    return
                planned = schedule[slot]
                if (planned.kind == "warm"
                        and not done_events[planned.ref].is_set()
                        and not arrivals.empty()):
                    # Don't park a bounded issuer on a warm gate while
                    # due arrivals queue behind it: grant the gate a
                    # short grace, then rotate the slot to the back.
                    if not done_events[planned.ref].wait(0.01):
                        arrivals.put(slot)
                        continue
                issue(slot)

        threads = [
            threading.Thread(target=issuer, name=f"loadgen-issuer-{i}",
                             daemon=True)
            for i in range(pool_width)
        ]
        threads.append(threading.Thread(
            target=scheduler, name="loadgen-scheduler", daemon=True))
        return threads

    try:
        if config.mode == "open":
            threads = open_loop()
            for thread in threads:
                thread.start()
            # Every thread exists and is parked before t=0.
            start = time.perf_counter()
            release.set()
            for thread in threads:
                thread.join()
        else:
            threads = closed_loop()
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - start
        stats = driver.stats()
        metrics = driver.metrics()
    finally:
        if own_service is not None:
            own_service.close()
        if own_fleet is not None:
            own_fleet.close()
    return LoadtestReport(
        config=config, schedule=schedule, records=records,
        wall_seconds=wall, stats=stats, metrics=metrics,
        driver_name=driver.name, stats_before=stats_before,
        fault_injector=fault_injector,
    )
