"""serve-2shard: a fresh 2-shard fleet driven by a closed loop of 2 HTTP clients.

The fleet is ``repro serve --shards 2 --workers 2`` started as its own
process (in its own session, so every process it starts can be found
and stopped).  Clients POST ``/solve`` at the router and long-poll
``GET /jobs/<id>?wait=`` until the job is done; each client sends its
next request only after the previous reply.

The schedule is a pure function of the seed.  It is built from blocks
of eight: one cold request per instance (a fresh solver seed, so a
result-cache miss) and four warm repeats of earlier cold requests (a
hit).  Every seed therefore sends the same instance mix.  A warm
request waits until its cold counterpart has been answered, so it is
always a hit.  Before the measured window, a few untimed requests let
every pool worker finish its first solve.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from common import ROOT, check_tour

SERVE_ARGS = ("--shards", "2", "--workers", "2", "--port", "0",
              "--cache-size", "8192")
INSTANCES = ("syn76", "syn101", "syn200", "syn262")
PARAMS = {"sweeps": 30}
CLIENTS = 2
#: Planned requests; far more than a run can send.
SCHEDULE_LENGTH = 40_000
#: Untimed requests per instance before the measured window.
WARMUP_ROUNDS = 2
REQUEST_TIMEOUT = 60.0
START_TIMEOUT = 60.0


@dataclass(frozen=True)
class Planned:
    index: int
    kind: str  # "cold" | "warm"
    instance: str
    seed: int
    ref: int | None = None  # the cold request a warm one repeats


def build_schedule(seed: int, length: int = SCHEDULE_LENGTH) -> list[Planned]:
    rng = np.random.default_rng([seed, 0x5E7E])
    block = [("cold", name) for name in INSTANCES] + [("warm", None)] * len(INSTANCES)
    planned: list[Planned] = []
    colds: list[int] = []
    while len(planned) < length:
        order = list(rng.permutation(len(block)))
        if not planned:
            # Nothing to repeat yet: open with a cold request.
            first_cold = next(i for i, j in enumerate(order) if block[j][0] == "cold")
            order = order[first_cold:] + order[:first_cold]
        for j in order:
            index = len(planned)
            kind, name = block[j]
            if kind == "cold":
                planned.append(Planned(index, "cold", name, seed * 1_000_000 + index))
                colds.append(index)
            else:
                ref = planned[colds[int(rng.integers(len(colds)))]]
                planned.append(Planned(index, "warm", ref.instance, ref.seed, ref.index))
    return planned[:length]


# ----------------------------------------------------------------------
# fleet lifecycle
# ----------------------------------------------------------------------
class Fleet:
    """One ``repro serve`` process tree; ``setup_s`` is spawn to ``/readyz`` 200."""

    def __init__(self, env: dict, log_path) -> None:
        self.log_path = log_path
        spawned_at = time.monotonic()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *SERVE_ARGS],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            self.port = self._await_port(spawned_at + START_TIMEOUT)
            self._await_ready(spawned_at + START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned_at

    def _await_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path, "rb") as log:
                match = re.search(rb"router on http://[^:]+:(\d+)", log.read())
            if match:
                return int(match.group(1))
            time.sleep(0.01)
        raise RuntimeError(f"fleet did not report its port; see {self.log_path}")

    def _await_ready(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                if http_call(self.port, "GET", "/readyz", timeout=5)[0] == 200:
                    return
            except (http.client.HTTPException, OSError, ValueError):
                pass
            time.sleep(0.01)
        raise RuntimeError(f"fleet not ready in time; see {self.log_path}")

    def get(self, path: str) -> dict:
        return http_call(self.port, "GET", path, timeout=30)[1]

    def peak_rss_mb(self) -> float:
        """Sum of every fleet process's RSS high-water mark (``VmHWM``)."""
        total_kb = 0
        for pid in _session_pids(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole session is gone."""
        session = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                _kill_session(session)
                self.proc.wait()
        deadline = time.monotonic() + 30
        while _session_pids(session) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _session_pids(session):
            _kill_session(session)
            while _session_pids(session):
                time.sleep(0.05)


def _session_pids(session: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``session``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[3] the session id.
        if fields[0] != "Z" and int(fields[3]) == session:
            pids.append(int(entry))
    return pids


def _kill_session(session: int) -> None:
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------
# closed-loop clients
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, body: dict | None = None,
              timeout: float = REQUEST_TIMEOUT + 10) -> tuple[int, dict]:
    """One request on a fresh connection (as ``repro loadtest`` sends them)."""
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Connection": "close"}
    if data is not None:
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class LoadRun:
    """Drives one fleet for ``seconds`` and checks every reply."""

    def __init__(self, port: int, schedule: list[Planned], coords: dict,
                 tracer=None) -> None:
        from repro.utils.hashing import tour_hash

        self.tour_hash = tour_hash
        self.port = port
        self.schedule = schedule
        self.coords = coords
        self.tracer = tracer
        self.records: dict[int, dict] = {}
        self._answered = {p.index: threading.Event()
                          for p in schedule if p.kind == "cold"}
        self._next = 0
        self._lock = threading.Lock()

    def run(self, seconds: float) -> float:
        """Returns the wall time from the first send to the last reply."""
        start = time.monotonic()
        end = start + seconds
        threads = [threading.Thread(target=self._client, args=(end,))
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        last = max((r["answered_at"] for r in self.records.values()), default=end)
        return last - start

    def warm_up(self) -> None:
        """Untimed cold requests, so that every pool worker has solved once.

        Their seeds lie outside the schedule's, and their records are
        dropped after they are checked.
        """
        base = self.schedule[0].seed + 999_000
        warmups = [Planned(-1 - k, "cold", name, base + k)
                   for k, name in enumerate(INSTANCES * WARMUP_ROUNDS)]
        for planned in warmups:
            self._issue(planned)
        errors = [self.records.pop(p.index)["error"] for p in warmups]
        if any(errors):
            raise RuntimeError(f"warm-up request failed: {next(filter(None, errors))}")

    def _client(self, end: float) -> None:
        while time.monotonic() < end:
            with self._lock:
                if self._next >= len(self.schedule):
                    return
                planned = self.schedule[self._next]
                self._next += 1
            if planned.ref is not None:
                self._answered[planned.ref].wait(REQUEST_TIMEOUT)
            self._issue(planned)

    def _span(self, name: str, planned: Planned):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, run=f"req{planned.index}")

    def _issue(self, planned: Planned) -> None:
        body = {"instance": planned.instance, "solver": "taxi",
                "seed": planned.seed, "params": PARAMS}
        start = time.perf_counter()
        status, view = None, {}
        error = None
        with self._span(f"client.{planned.kind}", planned):
            try:
                with self._span("http.post_solve", planned):
                    status, view = http_call(self.port, "POST", "/solve", body)
                if status == 200 and view.get("status") in ("queued", "running"):
                    with self._span("http.wait_job", planned):
                        status, view = http_call(
                            self.port, "GET", f"/jobs/{view['job_id']}?wait={REQUEST_TIMEOUT:g}")
            except (http.client.HTTPException, OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        record = {"kind": planned.kind, "instance": planned.instance,
                  "latency_s": latency, "answered_at": time.monotonic()}
        result = view.get("result") or {}
        if error is None:
            error = self._check(planned, status, view, result)
        record.update(
            error=error,
            cached=bool(view.get("cached")),
            tour_hash=result.get("tour_hash"),
            length=result.get("length"),
            solve_seconds=result.get("solve_seconds"),
            setup_seconds=result.get("setup_seconds"),
        )
        with self._lock:
            self.records[planned.index] = record
        if planned.index in self._answered:
            self._answered[planned.index].set()

    def _check(self, planned: Planned, status, view: dict, result: dict) -> str | None:
        if status != 200 or view.get("status") != "done":
            return f"HTTP {status}, job status {view.get('status')}: {view.get('error')}"
        order = result.get("tour")
        if order is None or result.get("length") is None:
            return "done job without a tour"
        problem = check_tour(*self.coords[planned.instance], order,
                             result["length"])
        if problem is not None:
            return problem
        if result.get("tour_hash") != self.tour_hash(np.asarray(order)):
            return "tour_hash does not match the returned tour"
        if planned.ref is not None:
            cold = self.records.get(planned.ref)
            if cold is None or cold["tour_hash"] != result["tour_hash"]:
                return "warm reply differs from its cold counterpart"
        return None


def counter_deltas(before: dict, after: dict) -> dict[str, float]:
    """Fleet ``/stats`` counters the per-layer metrics read."""

    def pick(stats: dict) -> dict[str, float]:
        requests = stats.get("requests", {})
        return {
            "cache_hits": stats.get("cache", {}).get("hits", 0),
            "cache_misses": stats.get("cache", {}).get("misses", 0),
            "windows": requests.get("windows", 0),
            "batched_requests": requests.get("batched_requests", 0),
            "retries": requests.get("retries", 0),
            "pool_respawns": stats.get("health", {}).get("pool_respawns", 0),
        }

    old, new = pick(before), pick(after)
    return {key: new[key] - old[key] for key in new}


def hit_latency_p50(metrics: dict) -> float:
    """Count-weighted mean of the shards' cache-hit latency p50s."""
    weighted = total = 0.0
    for shard in metrics.get("per_shard", []):
        histogram = shard.get("repro_cache_hit_latency_seconds") or {}
        if histogram.get("count") and histogram.get("p50") is not None:
            weighted += histogram["p50"] * histogram["count"]
            total += histogram["count"]
    return weighted / total if total else 0.0

