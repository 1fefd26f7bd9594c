"""Stdlib HTTP front-end for the solve service (``repro serve``).

One handler, :class:`ServiceHandler`, serves both deployments.  Its
*backend* is a :class:`~repro.service.queue.SolveService`, or for
``--shards N`` a :class:`~repro.service.shards.ShardedService` that
routes to N shard processes.  The handler does all the HTTP work:
routes, body checks, ``?wait=`` parsing, the error mapping and
response counting.  Both backends answer the same calls:

* ``post_solve(request, raw)`` and ``get_job(job_id, timeout)`` reply
  ``(status, body, headers)``, the body a dict or a shard's JSON bytes
  relayed as they are; ``get_job`` gives ``None`` for an unknown job;
* ``stats()``, ``health()``, ``ready()``, ``metrics_snapshot()`` and
  ``render_prometheus()`` back the GET views;
* ``count_response(status)``, ``retry_after`` (of a 503 ``/readyz``)
  and ``config`` (its ``request_timeout`` bounds each connection);
* ``start()``, ``close()``, ``banner(url)`` and ``draining`` serve
  :func:`serve_forever`.

Endpoints (JSON in, JSON out; no dependencies beyond ``http.server``):

``POST /solve``
    Body: ``{"instance": "<token>"}`` (benchmark size/name, TSPLIB
    path, or ``family:n[:seed]`` generator spec) **or**
    ``{"coords": [[x, y], ...], "metric": "EUC_2D"}`` for an inline
    instance; optional ``"solver"`` (default ``taxi``), integer
    ``"seed"`` (default 0; ``null`` is rejected — cache keys must be
    deterministic), and ``"params"`` (canonical JSON scalars only).
    Returns the job view with its deterministic ``job_id``; repeated
    identical requests are answered from the result cache.

``GET /jobs/<id>``
    Job state; ``?wait=<seconds>`` blocks up to that long for
    completion before answering.

``GET /stats``
    Queue/cache/request counters.

``GET /healthz``
    Liveness: 200 whenever the process answers at all.

``GET /readyz``
    Readiness: 200 when new solves are accepted *now*; 503 (with a
    ``Retry-After`` header) while the dispatcher is down or the worker
    pool is degraded/respawning.

``GET /metrics``
    The full metric registry (counters, gauges, latency/batch-size
    histograms with p50/p95/p99).  JSON by default;
    ``?format=prometheus`` (or an ``Accept: text/plain`` header)
    returns the Prometheus text exposition instead.  Every counter
    here is the same instrument ``/stats`` and the loadgen summary
    report — the three views are cross-checkable number-for-number.

Error mapping: validation problems -> 400, unknown jobs/paths -> 404,
queue backpressure -> 429, degraded-mode shedding (and, behind the
router, a shard that stayed dead) -> 503 with ``Retry-After``.  Every
error body is a JSON object with an ``error`` key.  A ``POST`` body is
refused before any byte of it is read unless its ``Content-Length`` is
an integer in ``1..MAX_BODY_BYTES``.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigError, ReproError, ServiceError, ShedError
from repro.service.queue import SolveRequest

#: Request bodies beyond this are refused (inline coords for ~500k
#: cities still fit; anything bigger should arrive as a token).
MAX_BODY_BYTES = 32 * 1024 * 1024


def build_request(body: dict) -> SolveRequest:
    """Translate one ``POST /solve`` JSON body into a validated request.

    ``portfolio: true`` routes the request to the deadline-aware racing
    portfolio: the solver becomes ``"portfolio"`` and, when the body
    carries a ``deadline_seconds`` but no explicit ``budget_seconds``
    param, the deadline becomes the race's compute budget — a
    *fingerprinted* solver param, so identical (instance, deadline,
    seed) requests stay content-addressed and bit-reproducible while
    the operational deadline watchdog still applies.
    """
    if not isinstance(body, dict):
        raise ConfigError("request body must be a JSON object")
    token = body.get("instance")
    coords = body.get("coords")
    if (token is None) == (coords is None):
        raise ConfigError(
            "provide exactly one of 'instance' (token) or 'coords' (inline)"
        )
    if coords is not None:
        from repro.tsp.instance import EdgeWeightType, TSPInstance

        metric = EdgeWeightType.from_string(str(body.get("metric", "EUC_2D")))
        token = TSPInstance(str(body.get("name", "inline")), coords, metric)
    params = body.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError("'params' must be a JSON object")
    solver = str(body.get("solver", "taxi"))
    deadline = body.get("deadline_seconds")
    if body.get("portfolio"):
        if "solver" in body and solver != "portfolio":
            raise ConfigError(
                f"'portfolio': true conflicts with solver {solver!r}"
            )
        solver = "portfolio"
        if deadline is not None and "budget_seconds" not in params:
            params = dict(params, budget_seconds=float(deadline))
    return SolveRequest.create(
        token,
        solver=solver,
        params=params,
        seed=body.get("seed", 0),
        deadline_seconds=deadline,
    )


#: Upper clamp on ``?wait=`` long-polls (seconds).
MAX_WAIT_SECONDS = 300.0


def parse_wait(raw: str) -> float:
    """Validate one ``?wait=`` value; returns the clamped timeout.

    Rejects non-numbers, negatives, and NaN (NaN silently defeated the
    old ``min(float(raw), 300.0)`` clamp because every comparison with
    NaN is false, handing the poisoned value straight to
    ``Event.wait``).  ``inf`` is a well-ordered number and simply
    clamps to the maximum.
    """
    try:
        timeout = float(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"bad wait value {raw!r}") from None
    if math.isnan(timeout):
        raise ConfigError("bad wait value: NaN is not a timeout")
    if timeout < 0:
        raise ConfigError(f"bad wait value {raw!r}: must be >= 0")
    return min(timeout, MAX_WAIT_SECONDS)


class ServiceHandler(BaseHTTPRequestHandler):
    """One request handler bound to the server's backend."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a kept-alive reply's header and body writes must not
    #: wait for the client's delayed ACK (~40 ms per exchange).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # Per-connection socket timeout: the stdlib ``setup()`` applies
        # it via ``connection.settimeout`` and ``handle_one_request``
        # treats a timed-out read as end-of-connection, so a stalled or
        # half-open client releases its handler thread.
        self.timeout = self.backend.config.request_timeout
        super().setup()

    @property
    def backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self._answer(self._post)

    def do_GET(self) -> None:  # noqa: N802
        self._answer(self._get)

    def _answer(self, route) -> None:
        """Send ``route``'s ``(status, body, headers)`` reply, or its error's."""
        try:
            status, payload, headers = route(urlparse(self.path))
        except ShedError as exc:
            status, payload = 503, {"error": str(exc)}
            headers = {"Retry-After": f"{exc.retry_after:g}"}
        except ServiceError as exc:
            status, payload, headers = 429, {"error": str(exc)}, {}
        except ReproError as exc:
            status, payload, headers = 400, {"error": str(exc)}, {}
        except (ValueError, TypeError) as exc:
            # e.g. jagged/non-numeric inline coords: numpy raises before
            # the library's own validation can; still a caller error.
            status, payload = 400, {"error": f"invalid request: {exc}"}
            headers = {}
        self._send(status, payload, headers)

    def _post(self, url) -> tuple:
        if url.path != "/solve":
            self.close_connection = True  # the body stays unread
            return 404, {"error": f"unknown endpoint {self.path!r}"}, {}
        raw = self._read_body()
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from exc
        return self.backend.post_solve(build_request(body), raw)

    def _get(self, url) -> tuple:
        backend = self.backend
        if url.path == "/stats":
            return 200, backend.stats(), {}
        if url.path == "/healthz":
            return 200, backend.health(), {}
        if url.path == "/readyz":
            ready, info = backend.ready()
            if ready:
                return 200, info, {}
            return 503, info, {"Retry-After": f"{backend.retry_after:g}"}
        query = parse_qs(url.query)
        if url.path == "/metrics":
            fmt = (query.get("format") or [""])[0].lower()
            accept = self.headers.get("Accept", "")
            if fmt in ("prometheus", "prom", "text") or (
                not fmt and "text/plain" in accept
            ):
                return 200, backend.render_prometheus(), {}
            return 200, backend.metrics_snapshot(), {}
        if url.path.startswith("/jobs/"):
            return self._get_job(url.path[len("/jobs/"):], query.get("wait"))
        return 404, {"error": f"unknown endpoint {url.path!r}"}, {}

    def _get_job(self, job_id: str, wait: list[str] | None) -> tuple:
        # The job is looked up before ``wait`` is judged: an unknown job
        # is a 404 whatever its ``?wait=``; a bad one on a known job is
        # a 400, answered without waiting.
        try:
            timeout, bad_wait = (parse_wait(wait[0]) if wait else None), None
        except ConfigError as exc:
            timeout, bad_wait = None, exc
        reply = self.backend.get_job(job_id, timeout)
        if reply is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if bad_wait is not None and reply[0] != 404:
            return 400, {"error": str(bad_wait)}, {}
        return reply

    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """The ``POST`` body, refused unread unless its length is sane."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ConfigError("empty request body; POST a JSON object")
            if length > MAX_BODY_BYTES:
                raise ConfigError(
                    f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
        except (ValueError, ConfigError):
            # An unread body must not be parsed as the connection's
            # next request: answer, then close.
            self.close_connection = True
            raise
        return self.rfile.read(length)

    def _send(self, status: int, payload, headers: dict) -> None:
        """Send a dict as JSON, bytes (a shard's JSON) as they are, and
        a str as the Prometheus text exposition."""
        if isinstance(payload, str):
            data = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = (payload if isinstance(payload, bytes)
                    else json.dumps(payload).encode())
            content_type = "application/json"
        self.backend.count_response(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt: str, *args) -> None:
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(fmt, *args)


def make_server(
    backend,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server in front of ``backend``.

    ``backend`` is a :class:`~repro.service.queue.SolveService` or a
    :class:`~repro.service.shards.ShardedService`.  The caller owns the
    lifecycle: ``backend.start()``, then ``server.serve_forever()``;
    shut down with ``server.shutdown()`` followed by ``backend.close()``
    (which drains and persists the cache).
    """
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.backend = backend  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve_forever(
    backend,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> None:
    """Blocking entry point behind ``repro serve``, with or without shards."""
    server = make_server(backend, host, port, verbose)
    backend.start()
    # SIGTERM (systemd/docker/CI `kill`) must unwind through the
    # finally below: the graceful drain solves the jobs already
    # admitted and persists --cache-path before the process exits.
    import signal

    def _sigterm(_signum, _frame):
        raise SystemExit(0)

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread (tests drive make_server)
        pass
    bound = server.server_address
    for line in backend.banner(f"http://{bound[0]}:{bound[1]}"):
        print(f"repro serve: {line}", flush=True)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.server_close()
        print(f"repro serve: draining {backend.draining}...", flush=True)
        backend.close()
        print("repro serve: drained; bye", flush=True)
