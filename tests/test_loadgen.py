"""Load-generator tests: schedules, drivers, reports, metrics cross-checks.

The contract under test:

* the request schedule is a pure function of the config seed
  (identical digests run-to-run; different seeds diverge);
* warm requests gate on their cold counterpart, so the cache hit/miss
  ledger is schedule-determined: ``hits == warm count`` and
  ``misses == cold count`` on a fresh service, every run;
* the loadtest summary, ``GET /stats``, and ``GET /metrics`` report
  the same counters (one ledger, three views);
* the BENCH-convention payloads carry p50/p95/p99, req/s, hit rate,
  and mean batch size.
"""

import json
import threading
import urllib.request

import pytest

from repro.core.config import LoadgenConfig, ServiceConfig
from repro.engine.bench import loadtest_entry, loadtest_payload
from repro.errors import ConfigError
from repro.service.loadgen import (
    HTTPDriver,
    InProcessDriver,
    build_schedule,
    run_loadtest,
    schedule_digest,
)
from repro.service.queue import SolveService

from conftest import serve_in_thread

#: Small, fast request mix shared by the in-process tests.
TINY = dict(
    instances=("uniform:24:3", "uniform:20:5"),
    requests=12,
    concurrency=3,
    warm_ratio=0.5,
    solver="sa_tsp",
    params=(("sweeps", 5),),
    seed=11,
)


class TestLoadgenConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LoadgenConfig(instances=())
        with pytest.raises(ConfigError):
            LoadgenConfig(requests=0)
        with pytest.raises(ConfigError):
            LoadgenConfig(concurrency=0)
        with pytest.raises(ConfigError):
            LoadgenConfig(warm_ratio=1.5)
        with pytest.raises(ConfigError):
            LoadgenConfig(mode="bursty")
        with pytest.raises(ConfigError):
            LoadgenConfig(rate=0)
        with pytest.raises(ConfigError):
            LoadgenConfig(timeout=0)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        config = LoadgenConfig(**TINY)
        assert build_schedule(config) == build_schedule(config)
        assert schedule_digest(build_schedule(config)) == schedule_digest(
            build_schedule(config)
        )

    def test_different_seed_different_schedule(self):
        a = build_schedule(LoadgenConfig(**TINY))
        b = build_schedule(LoadgenConfig(**{**TINY, "seed": 12}))
        assert schedule_digest(a) != schedule_digest(b)

    def test_first_request_is_cold_and_refs_are_valid(self):
        schedule = build_schedule(LoadgenConfig(**{**TINY, "requests": 50}))
        assert schedule[0].kind == "cold"
        for planned in schedule:
            if planned.kind == "warm":
                ref = schedule[planned.ref]
                assert planned.ref < planned.index
                assert ref.kind == "cold"
                # Warm repeats the full fingerprint recipe of its ref.
                assert (planned.token, planned.seed, planned.params) == (
                    ref.token, ref.seed, ref.params
                )
            else:
                assert planned.ref == -1

    def test_cold_seeds_are_unique(self):
        schedule = build_schedule(LoadgenConfig(**{**TINY, "requests": 80}))
        cold_seeds = [p.seed for p in schedule if p.kind == "cold"]
        assert len(cold_seeds) == len(set(cold_seeds))

    def test_warm_ratio_zero_is_all_cold(self):
        schedule = build_schedule(
            LoadgenConfig(**{**TINY, "warm_ratio": 0.0, "requests": 20})
        )
        assert all(p.kind == "cold" for p in schedule)

    def test_scenario_tokens_expand_into_the_mix(self):
        from repro.service.loadgen import expand_instances
        from repro.tsp.scenarios import get_scenario

        expanded = expand_instances(("scenario:paper-small", "uniform:24:3"))
        scenario_tokens = get_scenario("paper-small").tokens
        assert expanded == scenario_tokens + ("uniform:24:3",)
        config = LoadgenConfig(**{
            **TINY, "instances": ("scenario:paper-small",),
            "warm_ratio": 0.0, "requests": 30,
        })
        drawn = {p.token for p in build_schedule(config)}
        assert drawn <= set(scenario_tokens)
        assert len(drawn) > 1  # the mix actually spans the scenario

    def test_unknown_scenario_rejected(self):
        config = LoadgenConfig(**{**TINY, "instances": ("scenario:nope",)})
        with pytest.raises(ConfigError, match="unknown scenario"):
            build_schedule(config)

    def test_open_mode_arrivals_increase(self):
        schedule = build_schedule(
            LoadgenConfig(**{**TINY, "mode": "open", "rate": 100.0})
        )
        arrivals = [p.arrival for p in schedule]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0


class TestRunLoadtest:
    @pytest.fixture(scope="class")
    def report(self):
        return run_loadtest(LoadgenConfig(**TINY))

    def test_all_requests_complete(self, report):
        summary = report.summary()
        assert summary["completed"] == TINY["requests"]
        assert summary["errors"] == 0

    def test_summary_has_the_headline_keys(self, report):
        summary = report.summary()
        for key in ("p50_seconds", "p95_seconds", "p99_seconds",
                    "requests_per_sec", "cache_hit_rate", "mean_batch_size"):
            assert summary[key] is not None, key
        assert summary["requests_per_sec"] > 0
        assert summary["p99_seconds"] >= summary["p50_seconds"] > 0
        assert summary["mean_batch_size"] >= 1.0

    def test_ledger_is_schedule_determined(self, report):
        summary = report.summary()
        assert summary["cache_hits"] == summary["scheduled_warm"]
        assert summary["cache_misses"] == summary["scheduled_cold"]
        # Warm gating means dedup can never fire.
        assert summary["server_requests"]["deduplicated"] == 0

    def test_warm_requests_report_cached(self, report):
        for record in report.records:
            assert record.ok
            if record.kind == "warm":
                assert record.cached

    def test_summary_counters_match_metrics_snapshot(self, report):
        summary = report.summary()
        metrics = report.metrics
        assert metrics["repro_cache_hits_total"] == summary["cache_hits"]
        assert metrics["repro_cache_misses_total"] == summary["cache_misses"]
        assert (metrics["repro_requests_total"]
                == summary["server_requests"]["requests"])
        assert (metrics["repro_requests_completed_total"]
                == summary["server_requests"]["completed"])
        assert (metrics["repro_batch_size"]["count"]
                == summary["server_requests"]["windows"])

    def test_two_runs_same_seed_identical_ledgers(self, report):
        again = run_loadtest(LoadgenConfig(**TINY)).summary()
        summary = report.summary()
        assert again["schedule_digest"] == summary["schedule_digest"]
        assert again["cache_hits"] == summary["cache_hits"]
        assert again["cache_misses"] == summary["cache_misses"]
        assert again["scheduled_cold"] == summary["scheduled_cold"]

    def test_bench_entry_and_payload_shape(self, report):
        entry = loadtest_entry(report, n=24)
        assert entry["kind"] == "loadtest"
        assert entry["quality"] == pytest.approx(
            report.summary()["requests_per_sec"]
        )
        assert entry["sweeps_per_sec"] is None
        payload = loadtest_payload(report)
        assert payload["schema"] == "repro-bench/1"
        assert payload["entries"][0]["p99_seconds"] is not None
        json.dumps(payload)  # JSON-safe end to end

    def test_closed_loop_reports_no_arrival_lag(self):
        # Closed loop has no arrival schedule to lag behind: the old
        # report leaked issue-clock offsets into the field (a worker
        # picking up slot 7 "lagged" by however long slots 0-6 took).
        config = LoadgenConfig(**{**TINY, "requests": 6})
        report = run_loadtest(config)
        assert report.summary()["max_arrival_lag_seconds"] is None
        assert all(r.lag == 0.0 for r in report.records)

    def test_open_loop_run(self):
        config = LoadgenConfig(**{
            **TINY, "mode": "open", "rate": 200.0, "requests": 8,
        })
        summary = run_loadtest(config).summary()
        assert summary["completed"] == 8
        assert summary["cache_hits"] == summary["scheduled_warm"]
        assert summary["max_arrival_lag_seconds"] >= 0.0

    def test_open_loop_arrivals_do_not_wait_for_completions(self):
        # One thread per request: with a generous rate and an in-flight
        # gate wider than `concurrency`, the offered load is set by the
        # schedule, so the generator must not fall far behind it even
        # though each solve takes real time.  (The closed-loop pool
        # would serialize 12 solves through 2 workers instead.)
        config = LoadgenConfig(**{
            **TINY, "mode": "open", "rate": 500.0, "requests": 12,
            "concurrency": 2, "warm_ratio": 0.0,
        })
        report = run_loadtest(config)
        summary = report.summary()
        assert summary["errors"] == 0
        last_arrival = report.schedule[-1].arrival
        # All 12 issued within a small margin of the ~24 ms schedule
        # despite 12 concurrent cold solves >> concurrency=2.
        assert summary["max_arrival_lag_seconds"] < 1.0
        assert last_arrival < 0.2

    def test_open_loop_5k_requests_stay_under_thread_ceiling(self):
        # The old open loop pre-spawned one parked thread per scheduled
        # request, which collapses around --requests 5000.  The bounded
        # issuing pool must drive the same 5k schedule with at most
        # `open_loop_threads` issuers (+ scheduler + harness threads).
        class ThreadCountingDriver:
            name = "stub"

            def __init__(self) -> None:
                self.peak_threads = 0
                self.solved = 0
                self._lock = threading.Lock()

            def solve(self, planned, timeout):
                with self._lock:
                    self.peak_threads = max(
                        self.peak_threads, threading.active_count())
                    self.solved += 1
                return {"status": "done", "cached": planned.kind == "warm"}

            def stats(self):
                return {}

            def metrics(self):
                return {}

        baseline = threading.active_count()
        ceiling = 64
        config = LoadgenConfig(**{
            **TINY, "mode": "open", "rate": 100_000.0, "requests": 5000,
            "open_loop_threads": ceiling, "timeout": 120.0,
        })
        driver = ThreadCountingDriver()
        report = run_loadtest(config, driver=driver)
        summary = report.summary()
        assert summary["completed"] == 5000
        assert summary["errors"] == 0
        assert driver.solved == 5000
        # Pool + scheduler + whatever was already running — never one
        # thread per request.
        assert driver.peak_threads <= ceiling + baseline + 1
        # The lag ledger stays honest: queueing behind the bounded pool
        # is reported, not hidden.
        assert summary["max_arrival_lag_seconds"] >= 0.0

    def test_explicit_driver_on_existing_service(self):
        config = LoadgenConfig(**{**TINY, "requests": 6})
        with SolveService(ServiceConfig()) as service:
            report = run_loadtest(config, driver=InProcessDriver(service))
            assert report.summary()["completed"] == 6
            # The driven service is the one measured.
            assert service.metrics.requests.value >= 6

    def test_summary_reports_run_delta_not_server_lifetime(self):
        # Against a long-lived service, the ledger must describe THIS
        # run: a second identical run finds every fingerprint cached,
        # so its delta is all hits / zero misses — not the lifetime
        # totals of both runs folded together.
        config = LoadgenConfig(**{**TINY, "requests": 8})
        with SolveService(ServiceConfig()) as service:
            driver = InProcessDriver(service)
            first = run_loadtest(config, driver=driver).summary()
            assert first["cache_misses"] == first["scheduled_cold"]
            assert first["cache_hits"] == first["scheduled_warm"]
            second = run_loadtest(config, driver=driver).summary()
            assert second["cache_misses"] == 0
            assert second["cache_hits"] == 8
            assert second["cache_hit_rate"] == 1.0
            assert second["server_requests"]["completed"] == 0


@pytest.fixture()
def http_base():
    from repro.service.http import make_server

    service = SolveService(ServiceConfig())
    server = make_server(service, port=0)
    service.start()
    serve_in_thread(server)
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    service.close()


class TestHTTPDriver:
    def test_bad_base_url_rejected(self):
        with pytest.raises(ConfigError):
            HTTPDriver("127.0.0.1:8080")

    @pytest.mark.smoke
    def test_loadtest_over_http_cross_checks_get_metrics(self, http_base):
        # Acceptance: after a scripted request sequence, GET /metrics
        # reports the same counters the loadtest summary does.
        config = LoadgenConfig(**{**TINY, "requests": 10, "concurrency": 2})
        report = run_loadtest(config, driver=HTTPDriver(http_base))
        summary = report.summary()
        assert summary["errors"] == 0
        with urllib.request.urlopen(http_base + "/metrics") as response:
            served = json.load(response)
        assert served["repro_cache_hits_total"] == summary["cache_hits"]
        assert served["repro_cache_misses_total"] == summary["cache_misses"]
        assert (served["repro_requests_total"]
                == summary["server_requests"]["requests"])
        assert (served["repro_requests_cached_total"]
                == summary["server_requests"]["served_from_cache"])
        assert (served["repro_requests_completed_total"]
                == summary["server_requests"]["completed"])
        assert served["repro_solve_latency_seconds"]["count"] == (
            summary["scheduled_cold"]
        )
        # And the Prometheus rendering serves the same numbers.
        request = urllib.request.Request(
            http_base + "/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request) as response:
            assert "text/plain" in response.headers["Content-Type"]
            text = response.read().decode()
        assert f"repro_cache_hits_total {summary['cache_hits']}" in text
        assert "# TYPE repro_solve_latency_seconds histogram" in text
