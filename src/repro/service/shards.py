"""Sharded multi-process serving: fingerprint-routed shard fleet.

``repro serve --shards N`` turns the single :class:`~repro.service
.queue.SolveService` process into a fleet: N shard processes, each a
complete single service (own queue, own :class:`~repro.service.cache
.ResultCache`, own :class:`~repro.engine.wavefront.WavefrontPool`, own
shared-memory arena) listening on an ephemeral localhost port, fronted
by a router that hash-routes every request by its solve fingerprint.
The router is the one HTTP front-end of :mod:`repro.service.http`
with a :class:`ShardedService` as its backend, so both deployments
share the routes, body checks and error mapping.

Routing is a pure function of content (:func:`shard_for`): the sha256
of the fingerprint's job-id prefix, mod the shard count.  Both ``POST
/solve`` (which computes the full fingerprint) and ``GET /jobs/<id>``
(whose id carries exactly that prefix) therefore route identically —
a submitted job is always found again, dedup and result caching stay
per-fingerprint-correct without any cross-shard chatter, and because
every shard runs the same deterministic engine, the same request
yields a bit-identical tour at any shard count (asserted in tests).

Forwarding rides kept-alive ``http.client`` connections: the router
parks each finished connection on a per-shard idle list (at most
``_IDLE_PER_SHARD``), so a forward costs one request/response exchange
instead of a TCP handshake plus a new shard handler thread.  A parked
connection the shard has since closed (after its ``request_timeout``)
is retried once on a fresh one, which is safe because every forwarded
request is idempotent.

Fault tolerance mirrors the in-process pool contract one level up: a
monitor thread watches shard processes; a dead shard (crash, SIGKILL)
is respawned on a fresh port and its undelivered jobs — the router
keeps a ledger of admitted-but-unfinished submissions per shard — are
replayed verbatim.  Deterministic content addressing makes the replay
safe: the re-submitted request has the same fingerprint, the same job
id, and produces the same tour.

Aggregation: the router's ``/stats`` sums every shard's counters into
the same shape a single service reports (plus a ``shards`` block; the
hit rate is derived from the sums, the queue settings are the fleet's
one ``ServiceConfig``), so existing clients — the loadgen's
counter-delta bookkeeping included — work unchanged.  ``/metrics``
merges JSON snapshots numerically and, in Prometheus form, re-labels
each shard's samples with ``shard="i"``; the router's own responses
count in ``repro_router_responses_total``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import signal
import threading
import time
import urllib.parse
from collections import OrderedDict
from http.client import HTTPConnection, HTTPException

from repro.core.config import ServiceConfig
from repro.errors import ConfigError, ReproError, ShedError
from repro.service.metrics import MetricsRegistry
from repro.service.queue import (
    _JOB_ID_DIGITS,
    SolveRequest,
    SolveService,
    job_id_for,
)

#: Seconds the manager waits for a spawned shard to report its port.
_SHARD_START_TIMEOUT = 60.0

#: Monitor poll period (seconds) for dead-shard detection.
_MONITOR_INTERVAL = 0.25

#: Ledger capacity: undelivered submissions retained for crash replay.
_LEDGER_LIMIT = 4096

#: Forward attempts per request before giving up (each failed attempt
#: synchronously respawns the target shard first).
_FORWARD_ATTEMPTS = 3

#: Idle kept-alive connections the router keeps per shard address;
#: a connection handed back beyond this is closed.  Each idle one holds
#: a shard handler thread until the shard's ``request_timeout``.
_IDLE_PER_SHARD = 8


def shard_for(fingerprint: str, shards: int) -> int:
    """Map one solve fingerprint to its owning shard.

    A pure function of the fingerprint's first ``_JOB_ID_DIGITS`` hex
    characters — exactly the prefix embedded in the job id — hashed
    with sha256 and reduced mod the shard count.  Stable across
    restarts and processes; only changing the shard count remaps.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return 0
    prefix = fingerprint[:_JOB_ID_DIGITS]
    digest = hashlib.sha256(prefix.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def shard_for_job(job_id: str, shards: int) -> int:
    """Route a ``job-<fp16>`` id to the shard that owns its fingerprint."""
    if not job_id.startswith("job-"):
        raise ConfigError(f"malformed job id {job_id!r}")
    return shard_for(job_id[len("job-"):], shards)


class ShardDownError(ReproError):
    """A shard process did not answer (connection refused/reset/torn)."""


# ----------------------------------------------------------------------
# shard child process
# ----------------------------------------------------------------------

def _shard_entry(index: int, host: str, conn, config: ServiceConfig,
                 verbose: bool, fault_config) -> None:
    """Shard process main: one full service on an ephemeral port.

    Reports the bound port back through ``conn``; drains gracefully on
    SIGTERM (the manager's stop path), exactly like the single-process
    ``repro serve``.
    """
    from repro.service.faults import FaultInjector
    from repro.service.http import make_server

    injector = FaultInjector(fault_config) if fault_config is not None else None
    service = SolveService(config, fault_injector=injector)
    server = make_server(service, host, 0, verbose)
    service.start()

    def _sigterm(_signum, _frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    conn.send((server.server_address[1],))
    conn.close()
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.server_close()
        service.stop(drain=True)


class ShardProcess:
    """Lifecycle handle of one shard child (spawned, port-reported)."""

    def __init__(self, index: int, host: str, config: ServiceConfig,
                 verbose: bool = False, fault_config=None) -> None:
        self.index = index
        self.host = host
        self.config = config
        self.verbose = verbose
        self.fault_config = fault_config
        self.port: int | None = None
        self.process: multiprocessing.process.BaseProcess | None = None
        self._conn = None

    def spawn(self) -> "ShardProcess":
        """Launch the child (non-blocking; call :meth:`await_port` next).

        ``spawn`` (not fork): the manager may respawn from a monitor
        thread while HTTP handler threads hold arbitrary locks, which
        a forked child would inherit frozen.  The shard's own pool then
        forks its workers from the loaded shard (see
        :mod:`repro.engine.wavefront`).
        """
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self._conn = parent_conn
        self.process = ctx.Process(
            target=_shard_entry,
            args=(self.index, self.host, child_conn, self.config,
                  self.verbose, self.fault_config),
            name=f"repro-shard-{self.index}",
            daemon=False,
        )
        self.process.start()
        child_conn.close()
        return self

    def await_port(self, timeout: float = _SHARD_START_TIMEOUT) -> int:
        """Wait for the child's port; a :class:`ConfigError` if none comes."""
        assert self._conn is not None, "spawn() first"
        conn, self._conn = self._conn, None
        try:
            if not conn.poll(timeout):
                raise ConfigError(
                    f"shard {self.index} did not report a port within {timeout}s"
                )
            (self.port,) = conn.recv()
        except EOFError:  # the child died before it reported
            assert self.process is not None
            self.process.join(5.0)
            raise ConfigError(
                f"shard {self.index} exited with code "
                f"{self.process.exitcode} before reporting a port"
            ) from None
        finally:
            conn.close()
        return self.port

    @property
    def base_url(self) -> str:
        assert self.port is not None
        return f"http://{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def terminate(self, grace_seconds: float = 15.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL past the grace period."""
        process = self.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(grace_seconds)
            if process.is_alive():
                process.kill()
                process.join(5.0)
        process.close()
        self.process = None


# ----------------------------------------------------------------------
# the fleet manager
# ----------------------------------------------------------------------

class ShardedService:
    """Manager of N shard processes + fingerprint routing + recovery.

    The backend of the router: :func:`repro.service.http.make_server`
    serves it through the same handler as a single
    :class:`~repro.service.queue.SolveService`, and the loadgen's
    direct sharded driver drives it too.  Thread-safe — handler
    threads forward concurrently while the monitor thread watches for
    dead shards.
    """

    #: ``Retry-After`` seconds of the router's own 503s: ``/readyz``
    #: while a shard is down, and a request whose shard stayed dead.
    retry_after = 1.0

    #: Noun of the ``repro serve: draining ...`` line.
    draining = "shards"

    def __init__(self, shards: int, config: ServiceConfig | None = None,
                 host: str = "127.0.0.1", verbose: bool = False,
                 fault_config=None) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.config = config or ServiceConfig()
        self.host = host
        self.verbose = verbose
        self.fault_config = fault_config
        self.started_at = time.time()
        self.registry = MetricsRegistry()
        self.router_requests = self.registry.counter(
            "repro_router_requests_total", "Requests routed to shards")
        self.router_errors = self.registry.counter(
            "repro_router_forward_errors_total",
            "Forward attempts that found a dead shard")
        self.shard_respawns = self.registry.counter(
            "repro_shard_respawns_total",
            "Shard processes respawned after death")
        self.replayed_jobs = self.registry.counter(
            "repro_replayed_jobs_total",
            "Undelivered jobs replayed onto a respawned shard")
        self._procs: list[ShardProcess] = []
        #: job_id -> (shard index, raw POST body) for admitted-but-
        #: unfinished submissions; the crash-replay worklist.
        self._ledger: OrderedDict[str, tuple[int, bytes]] = OrderedDict()
        self._lock = threading.Lock()  # guards the ledger only
        #: (host, port) -> idle kept-alive connections, most recent last.
        self._idle: dict[tuple[str, int], list[HTTPConnection]] = {}
        self._idle_lock = threading.Lock()
        #: One per shard index: a respawn (up to the shard start
        #: timeout) blocks only the requests bound for that shard.
        self._respawn_locks = [threading.Lock() for _ in range(shards)]
        self._stop_event = threading.Event()
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _shard_config(self, index: int) -> ServiceConfig:
        """Per-shard service config (disjoint cache persistence paths)."""
        if self.config.cache_path is None or self.shards == 1:
            return self.config
        import dataclasses

        return dataclasses.replace(
            self.config, cache_path=f"{self.config.cache_path}.shard{index}"
        )

    def _shard_faults(self, index: int):
        """Per-shard fault schedule: same mix, seed offset by index."""
        if self.fault_config is None:
            return None
        import dataclasses

        return dataclasses.replace(
            self.fault_config, seed=self.fault_config.seed + index
        )

    def _launch(self, indices) -> list[ShardProcess]:
        """Spawn the shards ``indices`` (concurrently) and await their ports.

        All or nothing: if one fails to start, every shard launched here
        is terminated before its error propagates.
        """
        procs: list[ShardProcess] = []
        try:
            for index in indices:
                procs.append(ShardProcess(
                    index, self.host, self._shard_config(index),
                    self.verbose, self._shard_faults(index),
                ).spawn())
            for proc in procs:
                proc.await_port()
        except BaseException:
            for proc in procs:
                proc.terminate()
            raise
        return procs

    def start(self) -> "ShardedService":
        """Spawn every shard (concurrently), then start the monitor."""
        if self._procs:
            return self
        self._procs = self._launch(range(self.shards))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def close(self) -> None:
        """Stop the monitor, then drain and stop every shard."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        procs, self._procs = self._procs, []
        with self._idle_lock:
            idle, self._idle = self._idle, {}
        for conn in (conn for conns in idle.values() for conn in conns):
            conn.close()
        for proc in procs:
            proc.terminate()

    def __enter__(self) -> "ShardedService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # routing + recovery
    # ------------------------------------------------------------------
    def shard_url(self, index: int) -> str:
        return self._procs[index].base_url

    def worker_pids(self) -> list[int | None]:
        return [proc.pid for proc in self._procs]

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(_MONITOR_INTERVAL):
            for index in range(len(self._procs)):
                if not self._procs[index].alive:
                    self._revive(index)

    def _revive(self, index: int) -> None:
        """Respawn one dead shard and replay its undelivered jobs.

        Serialized under that shard's respawn lock, so the monitor and
        a forwarding handler that both notice the death respawn once,
        while traffic to the other shards goes on.
        """
        with self._respawn_locks[index]:
            proc = self._procs[index]
            if proc.alive:
                return
            proc.terminate(grace_seconds=0.0)  # reap the corpse
            with self._idle_lock:
                stale = self._idle.pop((proc.host, proc.port), [])
            for conn in stale:
                conn.close()
            (fresh,) = self._launch([index])
            self._procs[index] = fresh
            self.shard_respawns.inc()
        with self._lock:
            replay = [
                (job_id, body)
                for job_id, (shard, body) in self._ledger.items()
                if shard == index
            ]
        # Replay outside the locks: each re-submission is idempotent
        # (same fingerprint -> same job id -> same tour), so clients
        # polling GET /jobs/<id> find their job again on the new shard.
        for job_id, body in replay:
            try:
                self._http("POST", fresh.base_url + "/solve", body,
                           timeout=30.0)
                self.replayed_jobs.inc()
            except ShardDownError:  # pragma: no cover - died again;
                break               # the monitor will come back around

    def _http(self, method: str, url: str, body: bytes | None = None,
              timeout: float = 30.0) -> tuple[int, dict, bytes]:
        """One forwarded HTTP exchange; shard death -> ShardDownError.

        Rides an idle kept-alive connection to the shard when there is
        one.  A reused connection that fails (the shard closed it after
        ``request_timeout`` idle, or died) is retried once on a fresh
        one; every forwarded request is idempotent (``POST /solve`` by
        fingerprint).  A timeout or a failure on a fresh connection is
        a dead shard.  A 4xx/5xx is a response, not a death.
        """
        split = urllib.parse.urlsplit(url)
        address = (split.hostname, split.port)
        target = split.path + (f"?{split.query}" if split.query else "")
        headers = {"Content-Type": "application/json"} if body else {}
        conn = self._take_idle(address)
        reused = conn is not None
        while True:
            if conn is None:
                conn = HTTPConnection(*address, timeout=timeout)
            elif conn.sock is not None:
                conn.sock.settimeout(timeout)
            try:
                conn.request(method, target, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
            except (OSError, HTTPException) as exc:
                conn.close()
                if reused and not isinstance(exc, TimeoutError):
                    conn, reused = None, False
                    continue
                raise ShardDownError(
                    f"shard at {url} unreachable: {exc}") from exc
            if response.will_close:
                conn.close()
            else:
                self._put_idle(address, conn)
            return response.status, dict(response.headers), payload

    def _take_idle(self, address: tuple[str, int]) -> HTTPConnection | None:
        with self._idle_lock:
            idle = self._idle.get(address)
            return idle.pop() if idle else None

    def _put_idle(self, address: tuple[str, int], conn: HTTPConnection) -> None:
        with self._idle_lock:
            idle = self._idle.setdefault(address, [])
            # Past close() a parked connection would pin a shard handler
            # thread through the shard's drain.
            if len(idle) < _IDLE_PER_SHARD and not self._stop_event.is_set():
                idle.append(conn)
                return
        conn.close()

    def _forward(self, index: int, method: str, path: str,
                 body: bytes | None = None,
                 timeout: float = 30.0) -> tuple[int, bytes, dict]:
        """Forward to one shard, respawning + retrying through deaths.

        Returns the shard's ``(status, body, headers)`` with only its
        ``Retry-After`` header kept; a shard still dead after the last
        attempt sheds the request (:class:`ShedError`, a 503).
        """
        last: ShardDownError | None = None
        for _attempt in range(_FORWARD_ATTEMPTS):
            try:
                status, headers, payload = self._http(
                    method, self.shard_url(index) + path, body, timeout
                )
            except ShardDownError as exc:
                last = exc
                self.router_errors.inc()
                self._revive(index)
                continue
            return status, payload, {
                name: value for name, value in headers.items()
                if name.title() == "Retry-After"
            }
        raise ShedError(str(last), retry_after=self.retry_after) from last

    # ------------------------------------------------------------------
    # HTTP backend: the calls :class:`~repro.service.http.ServiceHandler`
    # makes (a SolveService answers the same ones)
    # ------------------------------------------------------------------
    def post_solve(self, request: SolveRequest, raw: bytes) -> tuple:
        """Relay one ``POST /solve`` to the shard owning its fingerprint.

        The router fingerprints the request (content addressing is
        cheap and memoized) purely to pick the shard, and forwards the
        client's bytes; the shard re-validates them on its own
        admission path.
        """
        self.router_requests.inc()
        fingerprint = request.fingerprint()
        index = shard_for(fingerprint, self.shards)
        status, payload, headers = self._forward(index, "POST", "/solve", raw)
        self._track(job_id_for(fingerprint), status, payload, (index, raw))
        return status, payload, headers

    def get_job(self, job_id: str, timeout: float | None) -> tuple | None:
        """Relay one ``GET /jobs/<id>`` (the id embeds the fingerprint)."""
        self.router_requests.inc()
        try:
            index = shard_for_job(job_id, self.shards)
        except ConfigError:
            return None
        path = f"/jobs/{job_id}"
        if timeout is not None:
            path += f"?wait={timeout!r}"
        # Long-poll forwards need headroom past the shard-side wait.
        status, payload, headers = self._forward(
            index, "GET", path, timeout=(timeout or 0.0) + 30.0
        )
        self._track(job_id, status, payload)
        return status, payload, headers

    def count_response(self, status: int) -> None:
        self.registry.counter(
            "repro_router_responses_total",
            "Router HTTP responses by status code",
            labels={"status": str(int(status))},
        ).inc()

    def banner(self, url: str) -> list[str]:
        """The ``repro serve --shards N`` start-up lines (router at ``url``)."""
        ports = [proc.port for proc in self._procs]
        lines = [f"router on {url} fronting {self.shards} shard(s) on ports "
                 f"{ports} (workers={self.config.workers}/shard)"]
        if self.fault_config is not None:
            lines.append(f"CHAOS ENABLED per shard (base seed "
                         f"{self.fault_config.seed})")
        return lines

    def _track(self, job_id: str, status: int, payload: bytes,
               entry: tuple[int, bytes] | None = None) -> None:
        """Keep the crash-replay ledger from one shard answer.

        A finished job leaves the ledger; an unfinished submission
        (``entry`` = its shard index and raw body) joins it.
        """
        if status != 200:
            return
        try:
            job_status = json.loads(payload).get("status")
        except ValueError:  # pragma: no cover - shard always sends JSON
            return
        with self._lock:
            if job_status not in ("queued", "running"):
                self._ledger.pop(job_id, None)
            elif entry is not None:
                self._ledger[job_id] = entry
                self._ledger.move_to_end(job_id)
                while len(self._ledger) > _LEDGER_LIMIT:
                    self._ledger.popitem(last=False)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _fetch_json(self, index: int, path: str) -> dict | None:
        try:
            status, _headers, payload = self._http(
                "GET", self.shard_url(index) + path, timeout=10.0
            )
        except ShardDownError:
            return None
        if status != 200:
            return None
        try:
            return json.loads(payload)
        except ValueError:  # pragma: no cover
            return None

    def stats(self) -> dict:
        """Fleet ``/stats``: same shape as one service, summed + per-shard."""
        per_shard: list[dict] = []
        payloads: list[dict] = []
        with self._lock:
            ledger_size = len(self._ledger)
        for index in range(self.shards):
            proc = self._procs[index]
            payload = self._fetch_json(index, "/stats")
            per_shard.append({
                "shard": index,
                "alive": proc.alive,
                "port": proc.port,
                "pid": proc.pid,
                "pending": (payload or {}).get("queue", {}).get("pending"),
                "requests": (payload or {}).get("requests", {}).get("requests"),
            })
            if payload is not None:
                payloads.append(payload)
        merged = {
            "uptime_seconds": time.time() - self.started_at,
            **{
                block: functools.reduce(
                    _merge_metric, (p.get(block, {}) for p in payloads), {}
                )
                for block in ("queue", "requests", "jobs", "cache", "arena")
            },
            "health": {
                "running": bool(payloads) and all(
                    p.get("health", {}).get("running") for p in payloads
                ) and all(entry["alive"] for entry in per_shard),
                "degraded": any(
                    p.get("health", {}).get("degraded") for p in payloads
                ) or any(not entry["alive"] for entry in per_shard),
                "pool_respawns": sum(
                    p.get("health", {}).get("pool_respawns") or 0
                    for p in payloads
                ),
            },
            "shards": {
                "count": self.shards,
                "respawns": self.shard_respawns.value,
                "replayed_jobs": self.replayed_jobs.value,
                "ledger_pending": ledger_size,
                "per_shard": per_shard,
            },
            "router": {
                "requests": self.router_requests.value,
                "forward_errors": self.router_errors.value,
            },
        }
        # A rate and per-shard settings do not sum: derive the rate from
        # the summed lookups, and take the settings every shard runs.
        cache = merged["cache"]
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
        merged["queue"]["max_batch"] = self.config.max_batch
        return merged

    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "shards": self.shards,
        }

    def ready(self) -> tuple[bool, dict]:
        """Fleet readiness: every shard alive and itself ready."""
        detail = []
        ready = True
        for index in range(self.shards):
            if not self._procs[index].alive:
                detail.append({"shard": index, "ready": False,
                               "reason": "process dead"})
                ready = False
                continue
            payload = self._fetch_json(index, "/readyz")
            shard_ready = bool(payload and payload.get("ready"))
            detail.append({"shard": index, "ready": shard_ready})
            ready = ready and shard_ready
        return ready, {"ready": ready, "shards": detail}

    def metrics_snapshot(self) -> dict:
        """Fleet ``/metrics`` JSON: numeric merge + per-shard snapshots."""
        snapshots = []
        for index in range(self.shards):
            payload = self._fetch_json(index, "/metrics")
            if payload is not None:
                snapshots.append(payload)
        merged: dict = {}
        for snapshot in snapshots:
            for name, value in snapshot.items():
                merged[name] = _merge_metric(merged.get(name), value)
        merged.update(self.registry.snapshot())
        merged["repro_shards"] = self.shards
        merged["per_shard"] = snapshots
        return merged

    def render_prometheus(self) -> str:
        """Fleet Prometheus exposition: shard samples re-labeled."""
        sections: list[str] = []
        seen_headers: set[str] = set()
        for index in range(self.shards):
            try:
                status, _headers, payload = self._http(
                    "GET",
                    self.shard_url(index) + "/metrics?format=prometheus",
                    timeout=10.0,
                )
            except ShardDownError:
                continue
            if status != 200:
                continue
            for line in payload.decode().splitlines():
                if not line.strip():
                    continue
                if line.startswith("#"):
                    if line not in seen_headers:
                        seen_headers.add(line)
                        sections.append(line)
                    continue
                sections.append(_relabel_sample(line, index))
        sections.append(self.registry.render_prometheus().rstrip("\n"))
        return "\n".join(sections) + "\n"


def _merge_metric(current, value):
    """Merge one metric family, or one ``/stats`` block, across shards.

    Numbers sum; histogram snapshots combine count/sum/min/max (the
    merged mean is recomputed, percentiles are per-shard information
    and stay in ``per_shard``); labeled families merge per label.
    """
    if current is None:
        if isinstance(value, dict) and "count" in value and "sum" in value:
            return _merge_histogram({}, value)
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(current, (int, float)) and not isinstance(current, bool):
            return current + value
        return value
    if isinstance(value, dict):
        if "count" in value and "sum" in value:
            return _merge_histogram(current, value)
        merged = dict(current) if isinstance(current, dict) else {}
        for key, inner in value.items():
            merged[key] = _merge_metric(merged.get(key), inner)
        return merged
    return current


def _merge_histogram(current: dict, value: dict) -> dict:
    count = (current.get("count") or 0) + (value.get("count") or 0)
    total = (current.get("sum") or 0.0) + (value.get("sum") or 0.0)
    mins = [v for v in (current.get("min"), value.get("min")) if v is not None]
    maxes = [v for v in (current.get("max"), value.get("max")) if v is not None]
    return {
        "count": count,
        "sum": total,
        "mean": (total / count) if count else None,
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
    }


def _relabel_sample(line: str, shard: int) -> str:
    """Inject ``shard="i"`` into one Prometheus sample line."""
    cut = line.rfind(" ")
    if cut <= 0:
        return line
    head, value = line[:cut], line[cut + 1:]
    if head.endswith("}") and "{" in head:
        brace = head.index("{")
        inner = head[brace + 1:-1]
        merged = f'shard="{shard}"' + ("," + inner if inner else "")
        return f"{head[:brace]}{{{merged}}} {value}"
    return f'{head}{{shard="{shard}"}} {value}'
