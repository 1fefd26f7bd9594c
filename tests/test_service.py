"""Solve-as-a-service tests: fingerprints, result cache, queue, HTTP.

The serving contract under test:

* fingerprints are canonical and deterministic — ``seed=None`` and
  non-canonical configs are rejected at admission, never cached;
* a repeated identical request is served from the result cache and is
  bit-identical (tour hash) to the cold solve and to the direct
  registry solve with the same instance/config/seed;
* identical in-flight fingerprints deduplicate onto one job with a
  deterministic job id;
* the HTTP front-end exposes the whole flow over stdlib sockets.
"""

import http.client
import json
import socket
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.core.config import ServiceConfig
from repro.engine import solve_with
from repro.errors import ConfigError, ServiceError
from repro.service import (
    ResultCache,
    SolveRequest,
    SolveService,
    canonical_params,
    canonical_seed,
    instance_digest,
    job_id_for,
    solve_fingerprint,
)
from repro.tsp.generators import uniform_instance
from repro.utils.hashing import tour_hash

from conftest import serve_in_thread

SWEEPS = 20


def _request(token=52, solver="taxi", seed=0, **params):
    params.setdefault("sweeps", SWEEPS)
    return SolveRequest.create(token, solver=solver, params=params, seed=seed)


@pytest.fixture()
def service():
    with SolveService(ServiceConfig()) as svc:
        yield svc


def _slow_request(token="uniform:200:1"):
    """An ``sa_tsp`` request that keeps one worker busy for ~0.5 s."""
    return _request(token=token, solver="sa_tsp", sweeps=3000)


def _await_running(job, timeout=30.0):
    """Block until the dispatcher has put ``job`` in a running round."""
    deadline = time.monotonic() + timeout
    while job.status != "running":
        assert job.status == "queued" and time.monotonic() < deadline, job
        time.sleep(0.005)


def _fill_every_slot(svc):
    """One slow running round per worker slot (submitted one by one, so
    no two share a round); returns their jobs."""
    jobs = []
    for index in range(svc.config.workers):
        jobs.append(svc.submit(_slow_request(f"uniform:200:{index + 1}")))
        _await_running(jobs[-1])
    return jobs


class TestFingerprint:
    def test_seed_none_rejected(self):
        inst = uniform_instance(20, seed=1)
        with pytest.raises(ConfigError, match="seed=None"):
            solve_fingerprint(inst, "taxi", {}, None)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError):
            canonical_seed(1.5)
        with pytest.raises(ConfigError):
            canonical_seed(True)
        assert canonical_seed(np.int64(7)) == 7

    def test_non_canonical_params_rejected(self):
        with pytest.raises(ConfigError, match="non-canonical"):
            canonical_params({"sweeps": [10, 20]})
        with pytest.raises(ConfigError, match="non-finite"):
            canonical_params({"t_start_frac": float("nan")})
        with pytest.raises(ConfigError, match="owned by the solve request"):
            canonical_params({"seed": 3})

    def test_numpy_scalars_canonicalized(self):
        # Must be a plain int, not np.int64 (which json.dumps rejects
        # and would crash fingerprinting instead of hashing).
        ((key, value),) = canonical_params({"sweeps": np.int64(10)})
        assert (key, value) == ("sweeps", 10)
        assert type(value) is int
        inst = uniform_instance(20, seed=1)
        assert solve_fingerprint(
            inst, "taxi", {"sweeps": np.int64(10)}, 0
        ) == solve_fingerprint(inst, "taxi", {"sweeps": 10}, 0)

    def test_unknown_solver_and_params_rejected(self):
        inst = uniform_instance(20, seed=1)
        with pytest.raises(ConfigError):
            solve_fingerprint(inst, "quantum", {}, 0)
        with pytest.raises(ConfigError, match="does not accept"):
            solve_fingerprint(inst, "taxi", {"voltage": 3}, 0)
        with pytest.raises(ConfigError, match="does not accept"):
            solve_fingerprint(inst, "taxi", {"backend": "fast"}, 0)

    def test_content_addressed_not_name_addressed(self):
        a = uniform_instance(30, seed=4, name="alpha")
        b = uniform_instance(30, seed=4, name="beta")
        assert instance_digest(a) == instance_digest(b)
        assert solve_fingerprint(a, "taxi", {}, 0) == solve_fingerprint(
            b, "taxi", {}, 0
        )

    def test_every_component_changes_the_key(self):
        inst = uniform_instance(30, seed=4)
        base = solve_fingerprint(inst, "taxi", {"sweeps": 10}, 0)
        other_geom = uniform_instance(30, seed=5)
        assert solve_fingerprint(other_geom, "taxi", {"sweeps": 10}, 0) != base
        assert solve_fingerprint(inst, "sa_tsp", {"sweeps": 10}, 0) != base
        assert solve_fingerprint(inst, "taxi", {"sweeps": 20}, 0) != base
        assert solve_fingerprint(inst, "taxi", {"sweeps": 10}, 1) != base

    def test_param_order_is_canonicalized(self):
        inst = uniform_instance(30, seed=4)
        assert solve_fingerprint(
            inst, "taxi", {"sweeps": 10, "bits": 3}, 0
        ) == solve_fingerprint(inst, "taxi", {"bits": 3, "sweeps": 10}, 0)


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes recency: b is LRU
        cache.put("c", {"v": 3})
        assert cache.get("b") is None  # evicted
        assert cache.get("c") == {"v": 3}
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["size"] == 2

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(capacity=8, path=path)
        cache.put("fp1", {"length": 42.0, "tour": [0, 1, 2]})
        cache.save()
        reloaded = ResultCache(capacity=8, path=path)
        assert reloaded.get("fp1") == {"length": 42.0, "tour": [0, 1, 2]}

    def test_corrupt_or_foreign_file_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        assert ResultCache(capacity=4, path=str(path)).stats()["size"] == 0
        path.write_text(json.dumps({"schema": "other/1", "entries": [["a", {}]]}))
        assert ResultCache(capacity=4, path=str(path)).stats()["size"] == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ResultCache(capacity=0)


class TestSolveService:
    def test_cold_then_cached_bit_identical(self, service):
        request = _request()
        cold = service.solve(request, timeout=120)
        assert cold.status == "done" and not cold.cached
        hit = service.submit(request)
        assert hit.status == "done" and hit.cached
        assert hit.result["tour_hash"] == cold.result["tour_hash"]
        assert hit.result["tour"] == cold.result["tour"]
        assert service.cache.stats()["hits"] == 1

    def test_service_matches_direct_registry_solve(self, service):
        request = _request(token=52, seed=3)
        job = service.solve(request, timeout=120)
        direct = solve_with(
            "taxi", request.spec.resolve(), seed=3, sweeps=SWEEPS
        )
        assert job.result["tour_hash"] == tour_hash(direct.order)
        assert job.result["length"] == pytest.approx(direct.length)

    def test_job_ids_are_deterministic(self, service):
        request = _request()
        job = service.solve(request, timeout=120)
        assert job.id == job_id_for(request.fingerprint())
        assert service.submit(request).id == job.id

    def test_free_worker_starts_a_request_behind_a_slow_one(self):
        # Head-of-line blocking: with a second worker free, a small
        # request must not wait for the slow one submitted before it.
        with SolveService(ServiceConfig(workers=2)) as svc:
            slow = svc.submit(_slow_request())
            time.sleep(0.05)
            small = svc.submit(_request(token="uniform:24:2", solver="sa_tsp",
                                        sweeps=5))
            svc.wait(small.id, timeout=120)
            assert small.status == "done"
            assert not slow.done_event.is_set()
            svc.wait(slow.id, timeout=120)
            assert slow.status == "done"

    def test_requests_queued_behind_a_busy_worker_leave_as_one_round(self):
        # The first request dispatches at once, and the three that
        # arrive while the one worker is busy leave together.
        with SolveService(ServiceConfig()) as svc:
            slow = svc.submit(_slow_request())
            _await_running(slow)
            jobs = [
                svc.submit(_request(token=f"uniform:24:{i}", solver="sa_tsp",
                                    sweeps=5))
                for i in range(3)
            ]
            assert not slow.done_event.is_set()
            for job in [slow, *jobs]:
                assert svc.wait(job.id, timeout=120).status == "done"
        counters = svc.stats()["requests"]
        assert counters["windows"] == 2
        assert counters["batched_requests"] == 4
        # repro_batch_size records each round's occupancy.
        histogram = svc.metrics.snapshot()["repro_batch_size"]
        assert histogram["count"] == counters["windows"]
        assert histogram["sum"] == counters["batched_requests"]

    def test_mixed_round_makes_one_engine_call_beside_its_race(
            self, hold_slot):
        # A portfolio job and two sa_tsp jobs with distinct seeds leave
        # as one round: the sa_tsp tasks share one map_outcomes call and
        # the portfolio race runs beside it.
        from repro.engine.runner import run_replica_task

        with SolveService(ServiceConfig()) as svc:
            calls = []
            map_outcomes = svc.pool.map_outcomes

            def spy(fn, tasks, **kwargs):
                tasks = list(tasks)
                if fn is run_replica_task:
                    calls.append([task.seed for task in tasks])
                return map_outcomes(fn, tasks, **kwargs)

            svc.pool.map_outcomes = spy
            hold_slot(svc)
            jobs = [
                svc.submit(SolveRequest.create(
                    "clustered:48:4", solver="portfolio",
                    params={"budget_seconds": 0.5}, seed=2)),
                svc.submit(_request(token="uniform:24:1", solver="sa_tsp",
                                    sweeps=5, seed=7001)),
                svc.submit(_request(token="uniform:24:2", solver="sa_tsp",
                                    sweeps=5, seed=7002)),
            ]
            hold_slot.release()
            for job in jobs:
                assert svc.wait(job.id, timeout=300).status == "done"
        counters = svc.stats()["requests"]
        assert counters["windows"] == 2  # the filler's round, then this one
        assert counters["batched_requests"] == 4
        assert counters["completed"] == 4
        assert [seeds for seeds in calls if 7001 in seeds or 7002 in seeds] \
            == [[7001, 7002]]

    def test_close_drains_rounds_in_flight(self):
        svc = SolveService(ServiceConfig(workers=2)).start()
        try:
            jobs = _fill_every_slot(svc)
        finally:
            svc.close()
        assert [job.status for job in jobs] == ["done", "done"]

    def test_non_drain_stop_fails_only_the_still_queued(self):
        svc = SolveService(ServiceConfig(workers=2)).start()
        try:
            running = _fill_every_slot(svc)
            queued = svc.submit(_request(token="uniform:24:2",
                                         solver="sa_tsp", sweeps=5))
        finally:
            svc.stop(drain=False)
        assert [job.status for job in running] == ["done", "done"]
        assert queued.status == "failed"
        assert queued.error == "service shutting down"

    def test_inflight_deduplication(self, hold_slot):
        # The held slot keeps the first submit queued while the second
        # lands.
        with SolveService(ServiceConfig()) as svc:
            hold_slot(svc)
            request = _request()
            first = svc.submit(request)
            second = svc.submit(request)
            assert second is first
            assert svc.stats()["requests"]["deduplicated"] == 1
            hold_slot.release()
            svc.wait(first.id, timeout=120)

    def test_failed_solve_reports_error(self, service):
        bad = TSPInstanceWithNaN()
        job = service.solve(
            SolveRequest.create(bad, solver="sa_tsp", params={"sweeps": 5},
                                seed=0),
            timeout=120,
        )
        assert job.status == "failed"
        assert "non-finite" in job.error
        assert service.stats()["requests"]["failed"] == 1

    def test_submit_requires_running_service(self):
        svc = SolveService(ServiceConfig())
        with pytest.raises(ServiceError, match="not running"):
            svc.submit(_request())

    def test_submit_after_close_rejected(self):
        svc = SolveService(ServiceConfig())
        svc.start()
        svc.close()
        with pytest.raises(ServiceError, match="not running"):
            svc.submit(_request())

    def test_jobs_admitted_before_close_still_complete(self, hold_slot):
        # close() queues the stop sentinel *behind* admitted work, so a
        # request racing shutdown finishes instead of hanging 'queued':
        # the held job and the sentinel leave in one take.
        svc = SolveService(ServiceConfig())
        svc.start()
        hold_slot(svc)
        job = svc.submit(_request(token="uniform:24:9", solver="sa_tsp",
                                  sweeps=5))
        hold_slot.release_on_stop(svc)
        svc.close()
        assert job.done_event.is_set()
        assert job.status == "done"

    def test_queue_backpressure(self, hold_slot):
        # The running filler and the queued first request fill both
        # places, so the second request is refused.
        config = ServiceConfig(queue_depth=2)
        with SolveService(config) as svc:
            hold_slot(svc)
            first = svc.submit(_request(token="uniform:24:1", solver="sa_tsp",
                                        sweeps=10))
            with pytest.raises(ServiceError, match="queue full"):
                svc.submit(_request(token="uniform:24:2", solver="sa_tsp",
                                    sweeps=10))
            hold_slot.release()
            svc.wait(first.id, timeout=120)

    def test_cache_persists_across_service_restarts(self, tmp_path):
        path = str(tmp_path / "results.json")
        request = _request()
        with SolveService(ServiceConfig(cache_path=path)) as svc:
            cold = svc.solve(request, timeout=120)
        with SolveService(ServiceConfig(cache_path=path)) as svc:
            warm = svc.submit(request)
            assert warm.cached
            assert warm.result["tour_hash"] == cold.result["tour_hash"]

    def test_seed_none_rejected_at_admission(self):
        with pytest.raises(ConfigError, match="seed=None"):
            SolveRequest.create(52, solver="taxi", seed=None)

    def test_cache_entries_isolated_from_caller_mutation(self, service):
        # Mutating a returned result must never poison the cache — the
        # serving-layer analogue of the SubmatrixCache read-only fix.
        request = _request()
        cold = service.solve(request, timeout=120)
        pristine_tour = list(cold.result["tour"])
        cold.result["tour"].reverse()
        cold.result["length"] = -1.0
        hit = service.submit(request)
        assert hit.cached
        assert hit.result["tour"] == pristine_tour
        assert hit.result["length"] != -1.0
        # Nested values (a portfolio ledger) are copied both ways too.
        def ledger():
            return {"winner": "taxi", "arms": [
                {"label": "taxi", "params": {"sweeps": 5}, "length": 1.0}]}
        given = {"tour": [0, 2, 1], "portfolio": ledger()}
        service.cache.put("nested", given)
        given["portfolio"]["arms"][0]["params"]["sweeps"] = -1
        got = service.cache.get("nested")
        got["portfolio"]["arms"][0]["length"] = -1.0
        got["portfolio"]["arms"].append({"label": "bogus"})
        got["tour"].reverse()
        assert service.cache.get("nested") == {"tour": [0, 2, 1],
                                                "portfolio": ledger()}

    def test_finished_job_history_is_bounded(self):
        config = ServiceConfig(job_history=2)
        with SolveService(config) as svc:
            for i in range(5):
                job = svc.submit(_request(token=f"uniform:24:{i}",
                                          solver="sa_tsp", sweeps=5))
                svc.wait(job.id, timeout=120)
                last = job.id
            # One more submit triggers pruning of the oldest done jobs.
            refreshed = svc.submit(_request(token=f"uniform:24:{4}",
                                            solver="sa_tsp", sweeps=5))
            svc.wait(refreshed.id, timeout=120)
            assert len(svc._jobs) <= config.job_history
            assert svc.job(last) is not None  # newest survives


def TSPInstanceWithNaN():
    """An instance whose geometry the engine must refuse to solve."""
    from repro.tsp.instance import TSPInstance

    coords = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]])
    return TSPInstance("nan-city", coords)


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------

@pytest.fixture()
def http_service():
    from repro.service.http import make_server

    svc = SolveService(ServiceConfig())
    server = make_server(svc, port=0)
    svc.start()
    serve_in_thread(server)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    server.server_close()
    svc.close()


@pytest.fixture(scope="module")
def http_router():
    """A 2-shard router behind the same front-end, spawned once."""
    from repro.service.http import make_server
    from repro.service.shards import ShardedService

    fleet = ShardedService(2, ServiceConfig())
    server = make_server(fleet, port=0)
    fleet.start()
    serve_in_thread(server)
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    fleet.close()


def _post(base, path, body):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def _get(base, path):
    with urllib.request.urlopen(base + path) as response:
        return json.load(response)


def _post_declaring(base, content_length, data):
    """``POST /solve`` with ``data`` under any declared Content-Length."""
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.putrequest("POST", "/solve")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(data)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.smoke
class TestHTTPFrontend:
    BODY = {"instance": "52", "solver": "taxi", "seed": 0,
            "params": {"sweeps": SWEEPS}}

    def test_solve_poll_and_cache_hit(self, http_service):
        posted = _post(http_service, "/solve", self.BODY)
        job = _get(http_service, f"/jobs/{posted['job_id']}?wait=120")
        assert job["status"] == "done"
        assert job["result"]["tour_hash"]
        second = _post(http_service, "/solve", self.BODY)
        assert second["cached"] and second["status"] == "done"
        assert second["result"]["tour_hash"] == job["result"]["tour_hash"]
        stats = _get(http_service, "/stats")
        assert stats["cache"]["hits"] >= 1
        assert stats["requests"]["served_from_cache"] >= 1

    def test_inline_coords_instance(self, http_service):
        body = {
            "coords": [[0, 0], [3, 4], [6, 0], [3, -4]],
            "solver": "two_opt",
            "seed": 1,
        }
        posted = _post(http_service, "/solve", body)
        job = _get(http_service, f"/jobs/{posted['job_id']}?wait=60")
        assert job["status"] == "done"
        assert job["result"]["n"] == 4

    def test_validation_errors_are_400(self, http_service):
        for body in (
            {"instance": "52", "seed": None},
            {"instance": "52", "solver": "quantum"},
            {"instance": "52", "coords": [[0, 0]]},
            {"instance": "52", "seed": 0, "params": {"backend": "fast"}},
            {"coords": [[0, 0], [1]]},      # jagged -> numpy ValueError
            {"coords": "not-coordinates"},  # non-numeric
            {},
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(http_service, "/solve", body)
            assert err.value.code == 400
            assert "error" in json.load(err.value)

    def test_wait_validation(self, http_service):
        # Bad ?wait= values are 400s, even for finished jobs — the old
        # min(float(raw), 300.0) clamp silently let NaN through (every
        # NaN comparison is false) straight into Event.wait.
        posted = _post(http_service, "/solve", self.BODY)
        job_id = posted["job_id"]
        done = _get(http_service, f"/jobs/{job_id}?wait=120")
        assert done["status"] == "done"
        for wait in ("-1", "-0.5", "nan", "NaN", "abc"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(http_service, f"/jobs/{job_id}?wait={wait}")
            assert err.value.code == 400, wait
            assert "wait" in json.load(err.value)["error"]
        # inf is well-ordered and simply clamps to the maximum.
        assert _get(http_service, f"/jobs/{job_id}?wait=inf")["status"] == "done"
        assert _get(http_service, f"/jobs/{job_id}?wait=0")["status"] == "done"

    def test_unknown_job_and_endpoint_are_404(self, http_service):
        for path in ("/jobs/job-ffffffffffffffff", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(http_service, path)
            assert err.value.code == 404
            body = json.load(err.value)
            assert "error" in body and body["error"]

    def test_metrics_endpoint_serves_json_and_prometheus(self, http_service):
        posted = _post(http_service, "/solve", self.BODY)
        _get(http_service, f"/jobs/{posted['job_id']}?wait=120")
        snapshot = _get(http_service, "/metrics")
        stats = _get(http_service, "/stats")
        assert snapshot["repro_requests_total"] == stats["requests"]["requests"]
        assert snapshot["repro_cache_misses_total"] == stats["cache"]["misses"]
        assert snapshot["repro_solve_latency_seconds"]["count"] >= 1
        # HTTP responses are themselves counted (at least these calls).
        assert snapshot["repro_http_responses_total"]["200"] >= 2
        with urllib.request.urlopen(
            http_service + "/metrics?format=prometheus"
        ) as response:
            assert "text/plain" in response.headers["Content-Type"]
            text = response.read().decode()
        assert "# TYPE repro_requests_total counter" in text
        assert 'le="+Inf"' in text

    def test_unknown_job_is_404_whatever_its_wait(self, http_service):
        # The job is looked up before ?wait= is judged.
        for path in ("/jobs/job-ffffffffffffffff?wait=nan",
                     "/jobs/nope?wait=nan", "/jobs/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(http_service, path)
            assert err.value.code == 404, path
            assert json.load(err.value)["error"]
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_service, "/other", self.BODY)
        assert err.value.code == 404
        assert json.load(err.value)["error"]

    def test_non_integer_content_length_is_400(self, http_service):
        status, body = _post_declaring(http_service, "abc", b"{}")
        assert status == 400
        assert "'abc'" in body["error"]

    def test_oversized_content_length_is_400_unread(self, http_service):
        # 40 MiB declared, 2 bytes sent: an answer within the client's
        # timeout shows the limit is checked before the body is read.
        status, body = _post_declaring(
            http_service, str(40 * 1024 * 1024), b"{}"
        )
        assert status == 400
        assert "exceeds" in body["error"]


class TestHTTPErrorPaths:
    """Each error path must answer the right status *and* a JSON body."""

    def _server(self, config):
        from repro.service.http import make_server

        svc = SolveService(config)
        server = make_server(svc, port=0)
        svc.start()
        serve_in_thread(server)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        return server, svc, base

    def test_backpressure_is_429_with_json_body(self, hold_slot):
        # queue_depth=2 and a held slot: the first request waits queued
        # behind the filler while the second is refused.
        config = ServiceConfig(queue_depth=2)
        server, svc, base = self._server(config)
        try:
            hold_slot(svc)
            first = _post(base, "/solve", {
                "instance": "uniform:24:1", "solver": "sa_tsp", "seed": 0,
                "params": {"sweeps": 10},
            })
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(base, "/solve", {
                    "instance": "uniform:24:2", "solver": "sa_tsp", "seed": 0,
                    "params": {"sweeps": 10},
                })
            assert err.value.code == 429
            body = json.load(err.value)
            assert "queue full" in body["error"]
            # Refusals land in the metrics too.
            snapshot = _get(base, "/metrics")
            assert snapshot["repro_http_responses_total"]["429"] == 1
            hold_slot.release()
            job = _get(base, f"/jobs/{first['job_id']}?wait=120")
            assert job["status"] == "done"
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_malformed_and_seedless_bodies_are_400(self, http_service):
        for raw in (b"{not json", b""):
            request = urllib.request.Request(
                http_service + "/solve", data=raw,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
            assert "error" in json.load(err.value)
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_service, "/solve", {"instance": "52", "seed": None})
        assert err.value.code == 400
        assert "seed" in json.load(err.value)["error"]

    def test_bad_wait_value_is_400(self):
        # The handler judges ?wait= on any known job, queued, running
        # or done, so the GET hits the wait-parsing path.
        server, svc, base = self._server(ServiceConfig())
        try:
            posted = _post(base, "/solve", {
                "instance": "uniform:24:3", "solver": "sa_tsp", "seed": 0,
                "params": {"sweeps": 10},
            })
            job_id = posted["job_id"]
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, f"/jobs/{job_id}?wait=soon")
            assert err.value.code == 400
            assert "wait" in json.load(err.value)["error"]
            job = _get(base, f"/jobs/{job_id}?wait=120")
            assert job["status"] == "done"
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_half_open_connection_is_timed_out(self):
        # A client that sends headers but stalls the body forever must
        # not pin its handler thread: the per-connection socket timeout
        # times the read out and the server closes the connection.
        server, svc, base = self._server(
            ServiceConfig(request_timeout=0.5)
        )
        try:
            with socket.create_connection(
                server.server_address, timeout=10.0
            ) as stalled:
                stalled.sendall(
                    b"POST /solve HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 64\r\n"
                    b"\r\n"
                    b"{"  # 63 bytes never arrive
                )
                started = time.perf_counter()
                # recv returning b"" == the server closed on us; must
                # happen around request_timeout, not our 10 s guard.
                while stalled.recv(4096):
                    pass
                elapsed = time.perf_counter() - started
            assert elapsed < 5.0
            # The freed server still answers normal traffic.
            view = _post(base, "/solve", {
                "instance": "uniform:24:4", "solver": "sa_tsp", "seed": 0,
                "params": {"sweeps": 10},
            })
            job = _get(base, f"/jobs/{view['job_id']}?wait=120")
            assert job["status"] == "done"
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_request_timeout_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(request_timeout=0.0)
        with pytest.raises(ConfigError):
            ServiceConfig(request_timeout=-1.0)


class TestHTTPFrontendRouter(TestHTTPFrontend):
    """The front-end tests again, against a 2-shard router.

    ``repro serve --shards 2`` answers through the same handler, so it
    must answer every request the single service answers, and alike.
    """

    @pytest.fixture()
    def http_service(self, http_router):
        return http_router

    test_malformed_and_seedless_bodies_are_400 = (
        TestHTTPErrorPaths.test_malformed_and_seedless_bodies_are_400
    )
