"""Sharded-serving tests: routing, isolation, determinism, recovery.

The sharding contract under test:

* ``shard_for`` is a pure function of the fingerprint (sha256 of the
  job-id prefix mod N) — deterministic across calls and processes,
  uniform enough to reach every shard, and consistent with
  ``shard_for_job`` so ``POST /solve`` and ``GET /jobs/<id>`` always
  land on the same shard;
* each shard owns its own queue/cache/pool: a fingerprint's cache
  entry lives on exactly its owning shard;
* tour hashes are bit-identical at any shard count (``--shards 1`` vs
  ``--shards 4``), because routing never changes what is solved, only
  where;
* a SIGKILLed shard is respawned by the monitor and its undelivered
  jobs are replayed — the resubmitted fingerprint still produces the
  identical tour — while the other shards keep answering.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import LoadgenConfig, ServiceConfig
from repro.errors import ConfigError, ShedError
from repro.service.http import build_request
from repro.service.loadgen import ShardedHTTPDriver, run_loadtest
from repro.service.queue import job_id_for
from repro.service.shards import (
    _IDLE_PER_SHARD,
    ShardDownError,
    ShardedService,
    ShardProcess,
    shard_for,
    shard_for_job,
)

from conftest import serve_in_thread

SWEEPS = 15
CONFIG = ServiceConfig(workers=1)


def _body(token="uniform:24:3", seed=7):
    return {"instance": token, "solver": "taxi", "seed": seed,
            "params": {"sweeps": SWEEPS}}


def _post(fleet, body):
    """One ``POST /solve`` through the routing core."""
    return fleet.post_solve(build_request(body), json.dumps(body).encode())


def _solve(fleet, body, wait=120):
    """Submit through the routing core and long-poll to completion."""
    status, payload, _headers = _post(fleet, body)
    assert status == 200, payload
    view = json.loads(payload)
    if view["status"] in ("queued", "running"):
        status, payload, _headers = fleet.get_job(view["job_id"], wait)
        assert status == 200, payload
        view = json.loads(payload)
    assert view["status"] == "done", view
    return view


def _owned_body(shard: int, shards: int) -> dict:
    """A solve request the router sends to ``shard``."""
    for seed in range(1000):
        body = _body(seed=seed)
        if shard_for(build_request(body).fingerprint(), shards) == shard:
            return body
    raise AssertionError(f"no seed routes to shard {shard}")


def _fingerprints(count):
    return [hashlib.sha256(str(i).encode()).hexdigest()
            for i in range(count)]


class TestRouting:
    def test_pure_function_of_fingerprint(self):
        fps = _fingerprints(256)
        for shards in (1, 2, 3, 4, 7):
            first = [shard_for(fp, shards) for fp in fps]
            second = [shard_for(fp, shards) for fp in fps]
            assert first == second
            assert all(0 <= index < shards for index in first)

    def test_post_and_get_agree(self):
        # The job id embeds exactly the routed fingerprint prefix, so
        # submitting and polling can never land on different shards.
        for fp in _fingerprints(64):
            for shards in (2, 4, 7):
                assert shard_for_job(job_id_for(fp), shards) == shard_for(
                    fp, shards
                )

    def test_every_shard_reachable(self):
        fps = _fingerprints(512)
        for shards in (2, 4, 8):
            assert {shard_for(fp, shards) for fp in fps} == set(range(shards))

    def test_single_shard_short_circuits(self):
        assert shard_for("ab" * 32, 1) == 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            shard_for("ab" * 32, 0)
        with pytest.raises(ConfigError):
            shard_for_job("not-a-job-id", 2)


@pytest.fixture(scope="module")
def fleet():
    with ShardedService(2, CONFIG) as running:
        yield running


@pytest.mark.slow
class TestShardedFleet:
    def test_ready_and_health(self, fleet):
        ready, info = fleet.ready()
        assert ready
        assert [entry["ready"] for entry in info["shards"]] == [True, True]
        assert fleet.health()["shards"] == 2

    def test_solve_routes_and_caches_on_owner_only(self, fleet):
        body = _body(seed=101)
        done = _solve(fleet, body)
        owner = shard_for_job(done["job_id"], fleet.shards)
        # Resubmit: answered from the owning shard's cache.
        again, payload, _headers = _post(fleet, body)
        assert again == 200
        hit = json.loads(payload)
        assert hit["cached"] is True
        assert hit["result"]["tour_hash"] == done["result"]["tour_hash"]
        # Cross-shard isolation: only the owner knows the job — the
        # other shard's queue/cache never saw the fingerprint, so
        # asking it directly is a 404.
        other = 1 - owner
        path = f"/jobs/{done['job_id']}"
        status_owner, _h, _p = fleet._http(
            "GET", fleet.shard_url(owner) + path
        )
        status_other, _h, _p = fleet._http(
            "GET", fleet.shard_url(other) + path
        )
        assert status_owner == 200
        assert status_other == 404
        owner_cache = fleet._fetch_json(owner, "/stats")["cache"]
        assert owner_cache.get("hits", 0) >= 1

    def test_stats_aggregate_keeps_single_service_shape(self, fleet):
        # One miss and one hit on each shard: one seed per owning shard.
        owners = {}
        for seed in range(500, 520):
            fingerprint = build_request(_body(seed=seed)).fingerprint()
            owners.setdefault(
                shard_for_job(job_id_for(fingerprint), fleet.shards), seed)
        assert sorted(owners) == [0, 1]
        for seed in owners.values():
            _solve(fleet, _body(seed=seed))
            _solve(fleet, _body(seed=seed))
        stats = fleet.stats()
        for key in ("queue", "requests", "cache", "jobs", "health",
                    "shards", "router"):
            assert key in stats
        assert stats["shards"]["count"] == 2
        assert len(stats["shards"]["per_shard"]) == 2
        assert stats["router"]["requests"] >= 1
        # Summed ledger: both shards' request counters fold into one.
        per_shard_requests = [
            entry["requests"] for entry in stats["shards"]["per_shard"]
        ]
        assert stats["requests"]["requests"] == sum(
            value or 0 for value in per_shard_requests
        )
        # A rate and the per-shard settings are not summed.
        cache = stats["cache"]
        assert cache["hit_rate"] == cache["hits"] / (
            cache["hits"] + cache["misses"])
        assert stats["queue"]["max_batch"] == CONFIG.max_batch

    def test_metrics_aggregate_and_prometheus_relabel(self, fleet):
        _solve(fleet, _body(seed=103))
        snapshot = fleet.metrics_snapshot()
        assert snapshot["repro_shards"] == 2
        assert snapshot["repro_requests_total"] >= 1
        assert len(snapshot["per_shard"]) == 2
        text = fleet.render_prometheus()
        assert 'shard="0"' in text
        assert 'shard="1"' in text
        assert "repro_router_requests_total" in text

    def test_shard_crash_respawns_and_resolves_identically(self, fleet):
        body = _body(seed=104)
        before = _solve(fleet, body)
        owner = shard_for_job(before["job_id"], fleet.shards)
        respawns_before = fleet.stats()["shards"]["respawns"]
        pid = fleet.worker_pids()[owner]
        os.kill(pid, signal.SIGKILL)
        deadline = time.time() + 30.0
        while time.time() < deadline:
            proc = fleet._procs[owner]
            if proc.alive and proc.pid != pid:
                break
            time.sleep(0.1)
        else:
            pytest.fail("shard was not respawned within 30s")
        after = _solve(fleet, body)
        assert after["result"]["tour_hash"] == before["result"]["tour_hash"]
        assert fleet.stats()["shards"]["respawns"] == respawns_before + 1

    def test_shard_that_stays_dead_sheds_with_retry_after_1(
        self, fleet, monkeypatch
    ):
        # Every forward finds the shard dead and no respawn helps: the
        # router sheds (HTTP 503) with its own Retry-After of 1 s.
        def unreachable(*_args, **_kwargs):
            raise ShardDownError("shard unreachable")

        monkeypatch.setattr(fleet, "_http", unreachable)
        monkeypatch.setattr(fleet, "_revive", lambda index: None)
        with pytest.raises(ShedError) as err:
            _post(fleet, _body(seed=105))
        assert err.value.retry_after == 1.0

    def test_respawn_does_not_stall_other_shards(self, fleet, monkeypatch):
        # A respawn waits for the new shard's port (up to 60 s); the
        # requests another shard answers must not wait with it.
        seed = next(s for s in range(300, 400)
                    if shard_for(build_request(_body(seed=s))
                                 .fingerprint(), 2) == 1)
        body = _body(seed=seed)
        _solve(fleet, body)  # cached on shard 1 from here on
        start_port = ShardProcess.await_port

        def slow_await_port(proc, *args, **kwargs):
            time.sleep(2.0)
            return start_port(proc, *args, **kwargs)

        monkeypatch.setattr(ShardProcess, "await_port", slow_await_port)
        dead = fleet._procs[0]
        pid = dead.pid
        os.kill(pid, signal.SIGKILL)
        while dead.alive:
            time.sleep(0.01)
        # The monitor may notice first; either way one respawn runs.
        respawn = threading.Thread(target=fleet._revive, args=(0,))
        respawn.start()
        try:
            time.sleep(0.3)  # the respawn is under way
            started = time.perf_counter()
            status, payload, _headers = _post(fleet, body)
            elapsed = time.perf_counter() - started
        finally:
            respawn.join(60.0)
        assert not respawn.is_alive()
        assert status == 200 and json.loads(payload)["cached"] is True
        assert elapsed < 1.0, elapsed
        assert fleet._procs[0].alive and fleet.worker_pids()[0] != pid

    def test_sharded_http_loadtest(self, fleet):
        # `repro loadtest --shards N`: client-side routing straight to
        # the shards' ports, counters summed by the fleet.
        config = LoadgenConfig(
            instances=("uniform:22:9", "uniform:26:9"), requests=10,
            concurrency=2, solver="taxi", params=(("sweeps", SWEEPS),),
            seed=17,
        )
        summary = run_loadtest(config, driver=ShardedHTTPDriver(fleet)).summary()
        assert summary["driver"] == "sharded-http"
        assert summary["errors"] == 0
        assert summary["completed"] == summary["requests"]
        assert summary["cache_hits"] == summary["scheduled_warm"]


def _address(fleet, index):
    proc = fleet._procs[index]
    return proc.host, proc.port


def _shard_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")}


@pytest.mark.slow
class TestFailedStart:
    """A fleet that cannot start every shard leaves none running."""

    def test_port_timeout_terminates_every_spawned_shard(self, monkeypatch):
        await_port = ShardProcess.await_port

        def second_times_out(proc, *args, **kwargs):
            if proc.index == 1:
                raise ConfigError("shard 1 did not report a port within 60.0s")
            return await_port(proc, *args, **kwargs)

        monkeypatch.setattr(ShardProcess, "await_port", second_times_out)
        running = _shard_pids()  # the module fleet's
        fleet = ShardedService(2, CONFIG)
        with pytest.raises(ConfigError, match="shard 1 did not report"):
            fleet.start()
        assert _shard_pids() - running == set()
        fleet.close()

    def test_shard_that_dies_before_reporting_is_a_config_error(
        self, monkeypatch
    ):
        spawn = ShardProcess.spawn

        def second_dies(proc):
            spawn(proc)
            if proc.index == 1:
                proc.process.kill()
            return proc

        monkeypatch.setattr(ShardProcess, "spawn", second_dies)
        running = _shard_pids()
        with pytest.raises(
            ConfigError, match="shard 1 exited with code -9 before reporting"
        ):
            ShardedService(2, CONFIG).start()
        assert _shard_pids() - running == set()


@pytest.mark.slow
class TestFailedRespawn:
    """A respawn that fails to start leaves the shard dead, not the fleet."""

    def test_monitor_survives_and_router_sheds_until_a_respawn_works(
        self, monkeypatch
    ):
        from repro.service.http import make_server

        await_port = ShardProcess.await_port
        failed = []

        def shard_0_fails(proc, *args, **kwargs):
            if proc.index == 0:
                failed.append(proc.pid)
                raise ConfigError("shard 0 did not report a port within 60.0s")
            return await_port(proc, *args, **kwargs)

        fleet = ShardedService(2, CONFIG)
        server = make_server(fleet, port=0)
        fleet.start()
        serve_in_thread(server)
        try:
            body = _owned_body(0, fleet.shards)
            before = _solve(fleet, body)
            monkeypatch.setattr(ShardProcess, "await_port", shard_0_fails)
            os.kill(fleet._procs[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while len(failed) < 2:  # a failed respawn, then the next tick's
                assert time.monotonic() < deadline, "the monitor stopped"
                time.sleep(0.05)
            assert fleet._monitor.is_alive()

            request = urllib.request.Request(
                f"http://127.0.0.1:{server.server_address[1]}/solve",
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as answer:
                urllib.request.urlopen(request, timeout=60)
            assert answer.value.code == 503
            assert answer.value.headers["Retry-After"] == "1"
            assert fleet._monitor.is_alive()
            assert fleet.stats()["shards"]["respawns"] == 0

            monkeypatch.undo()
            deadline = time.monotonic() + 60
            while fleet.stats()["shards"]["respawns"] < 1:
                assert time.monotonic() < deadline, "shard 0 not respawned"
                time.sleep(0.05)
            assert fleet.stats()["shards"]["respawns"] == 1
            assert fleet.respawn_failures.value >= 2
            after = _solve(fleet, body)
            assert after["result"]["tour_hash"] == before["result"]["tour_hash"]
        finally:
            server.shutdown()
            server.server_close()
            fleet.close()


@pytest.mark.slow
class TestKeptAliveForwarding:
    def test_sequential_forwards_reuse_one_fast_connection(self, fleet):
        fleet._fetch_json(0, "/healthz")
        seconds = []
        for _ in range(10):
            started = time.perf_counter()
            assert fleet._fetch_json(0, "/healthz")["status"] == "ok"
            seconds.append(time.perf_counter() - started)
        # A reply held back by Nagle's algorithm waits ~40 ms for the
        # router's delayed ACK; a kept-alive forward takes ~1 ms.
        assert statistics.median(seconds) < 0.020, seconds
        assert len(fleet._idle[_address(fleet, 0)]) == 1

    def test_concurrent_forwards_never_share_a_connection(self, fleet):
        # More threads than cores, switching often: every forward gets
        # its own reply, and no connection is parked twice or past the
        # cap (two threads taking one idle connection would park it
        # twice).
        errors_before = fleet.router_errors.value
        failures = []

        def forward():
            try:
                for _ in range(25):
                    status, payload, _headers = fleet._forward(
                        1, "GET", "/healthz")
                    assert status == 200, payload
                    assert json.loads(payload)["status"] == "ok"
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        threads = [threading.Thread(target=forward) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert fleet.router_errors.value == errors_before
        idle = fleet._idle[_address(fleet, 1)]
        assert 1 <= len({id(conn) for conn in idle}) == len(idle)
        assert len(idle) <= _IDLE_PER_SHARD

    def test_connection_the_shard_closed_is_retried_unseen(self):
        config = ServiceConfig(workers=1,
                               request_timeout=0.5)
        with ShardedService(2, config) as running:
            body = _body(seed=601)
            cold = _solve(running, body)
            owner = shard_for_job(cold["job_id"], running.shards)
            assert running._idle[_address(running, owner)]
            time.sleep(1.2)  # past request_timeout: the shard closed it
            status, payload, _headers = _post(running, body)
            assert status == 200
            hit = json.loads(payload)
            assert hit["cached"] is True
            assert hit["result"]["tour_hash"] == cold["result"]["tour_hash"]
            assert running.router_errors.value == 0
            assert running.shard_respawns.value == 0

    def test_revive_and_close_drop_idle_connections(self):
        with ShardedService(2, CONFIG) as running:
            for index in (0, 1):
                running._fetch_json(index, "/healthz")
            dead = running._procs[0]
            dead_address = _address(running, 0)
            assert running._idle[dead_address]
            os.kill(dead.pid, signal.SIGKILL)
            while dead.alive:
                time.sleep(0.01)
            running._revive(0)  # or the monitor got there first
            assert not running._idle.get(dead_address)
            assert running._idle[_address(running, 1)]
        assert running._idle == {}


@pytest.mark.slow
class TestShardCountInvariance:
    def test_tour_hashes_bit_identical_across_shard_counts(self):
        # The acceptance invariant: same request, same tour hash, at
        # any shard count — routing changes *where*, never *what*.
        bodies = [_body(seed=s) for s in (201, 202, 203)]

        def hashes(shards):
            with ShardedService(shards, CONFIG) as running:
                return [
                    _solve(running, body)["result"]["tour_hash"]
                    for body in bodies
                ]

        assert hashes(1) == hashes(4)
