"""Tests for the serving metrics layer (repro.service.metrics)."""

import json
import math
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
    batch_size_bounds,
    latency_bounds,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigError):
            Counter("c").inc(-1)

    def test_thread_safety(self):
        counter = Counter("c")

        def bump():
            for _ in range(5000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 5000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)


class TestHistogram:
    def test_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] is None

    def test_percentiles_on_uniform_sample(self):
        histogram = Histogram("h")
        rng = np.random.default_rng(0)
        values = rng.uniform(0.001, 1.0, size=5000)
        for value in values:
            histogram.observe(float(value))
        for q in (0.5, 0.95, 0.99):
            estimate = histogram.percentile(q)
            exact = float(np.quantile(values, q))
            # Log-bucketed sketch: estimate within one quarter-decade.
            assert estimate == pytest.approx(exact, rel=0.5)
        snap = histogram.snapshot()
        assert snap["count"] == 5000
        assert snap["min"] == pytest.approx(values.min())
        assert snap["max"] == pytest.approx(values.max())
        assert snap["mean"] == pytest.approx(values.mean(), rel=1e-6)

    def test_percentiles_are_monotone_and_clamped(self):
        histogram = Histogram("h")
        for value in (0.01, 0.02, 0.05, 0.2, 3.0):
            histogram.observe(value)
        p50, p95, p99 = (histogram.percentile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert histogram.percentile(1.0) <= 3.0
        assert histogram.percentile(0.01) >= 0.01

    def test_single_observation(self):
        histogram = Histogram("h")
        histogram.observe(0.125)
        assert histogram.percentile(0.5) == pytest.approx(0.125)
        assert histogram.percentile(0.99) == pytest.approx(0.125)

    def test_tail_percentiles_do_not_collapse_to_max(self):
        # Regression: when the whole distribution lands in ONE log
        # bucket (common for a uniform service latency), the old
        # interpolation used the bucket's nominal upper edge, so every
        # tail quantile estimated past the observed max and clamped to
        # it — /metrics reported p95 == p99 == max.  The effective edge
        # is the observed max, so the tail quantiles must spread.
        histogram = Histogram("h")
        for i in range(100):
            histogram.observe(0.8 + 0.002 * i)  # all in (0.562, 1.0]
        snap = histogram.snapshot()
        assert snap["p50"] < snap["p95"] < snap["p99"] < snap["max"]
        assert snap["p95"] == pytest.approx(0.8 + 0.95 * 0.198, rel=0.02)
        assert snap["p99"] == pytest.approx(0.8 + 0.99 * 0.198, rel=0.02)

    def test_bottom_bucket_uses_observed_min(self):
        # Symmetric clamp on the lowest occupied bucket: quantiles
        # must never estimate below the observed minimum.
        histogram = Histogram("h")
        for value in (0.9, 0.91, 0.92, 0.95):
            histogram.observe(value)
        assert histogram.percentile(0.5) >= 0.9

    def test_exposition_is_one_consistent_snapshot(self):
        histogram = Histogram("h", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        pairs, total_sum, total_count = histogram.exposition()
        # The +Inf bucket and _count come from the same locked read:
        # they can never disagree (Prometheus rejects such a scrape).
        assert pairs[-1][1] == total_count == 3
        assert total_sum == pytest.approx(5.55)
        assert [count for _, count in pairs] == [1, 2, 3]

    def test_overflow_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.percentile(0.99) == pytest.approx(100.0)
        pairs = histogram.cumulative_buckets()
        assert pairs[-1] == (math.inf, 1)
        assert pairs[-2][1] == 0  # below both finite edges

    def test_bad_quantile_rejected(self):
        histogram = Histogram("h")
        with pytest.raises(ConfigError):
            histogram.percentile(0.0)
        with pytest.raises(ConfigError):
            histogram.percentile(1.5)

    def test_bounds_ladders(self):
        bounds = latency_bounds()
        assert bounds == tuple(sorted(bounds))
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(100.0)
        assert batch_size_bounds()[0] == 1.0

    def test_thread_safety_totals(self):
        histogram = Histogram("h")

        def observe():
            for i in range(2000):
                histogram.observe(0.001 * (1 + i % 7))

        threads = [threading.Thread(target=observe) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert histogram.count == 12000


class TestRegistry:
    def test_create_or_get_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        b = registry.counter("x_total")
        assert a is b
        a.inc()
        assert registry.snapshot()["x_total"] == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.gauge("x")

    def test_labeled_families_group_in_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("http_total", labels={"status": "200"}).inc(3)
        registry.counter("http_total", labels={"status": "404"}).inc()
        snap = registry.snapshot()
        assert snap["http_total"] == {"200": 3, "404": 1}

    def test_snapshot_is_json_safe(self):
        metrics = ServiceMetrics()
        metrics.requests.inc()
        metrics.solve_latency.observe(0.5)
        metrics.http_response(200)
        json.dumps(metrics.snapshot())  # must not raise

    def test_prometheus_rendering(self):
        metrics = ServiceMetrics()
        metrics.requests.inc(2)
        metrics.queue_pending.set(3)
        metrics.solve_latency.observe(0.05)
        metrics.solve_latency.observe(0.5)
        metrics.http_response(200)
        metrics.http_response(200)
        metrics.http_response(429)
        text = metrics.render_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_requests_total counter" in lines
        assert "repro_requests_total 2" in lines
        assert "# TYPE repro_queue_pending gauge" in lines
        assert "repro_queue_pending 3.0" in lines
        assert "# TYPE repro_solve_latency_seconds histogram" in lines
        assert 'repro_http_responses_total{status="200"} 2' in lines
        assert 'repro_http_responses_total{status="429"} 1' in lines
        # Histogram exposition: cumulative buckets ending at +Inf == count.
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_solve_latency_seconds_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 2
        assert "repro_solve_latency_seconds_count 2" in lines
        inf_lines = [l for l in lines if 'le="+Inf"' in l]
        assert inf_lines  # every histogram closes its ladder


class TestServiceMetricsWiring:
    def test_known_instruments_present(self):
        snap = ServiceMetrics().snapshot()
        for name in (
            "repro_requests_total",
            "repro_requests_deduplicated_total",
            "repro_requests_cached_total",
            "repro_requests_completed_total",
            "repro_requests_failed_total",
            "repro_batched_requests_total",
            "repro_dispatch_windows_total",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_evictions_total",
            "repro_queue_pending",
            "repro_queue_depth_limit",
            "repro_batch_size",
            "repro_solve_latency_seconds",
            "repro_queue_wait_seconds",
            "repro_cache_hit_latency_seconds",
        ):
            assert name in snap, name

    def test_queue_wait_sampled_once_per_dispatched_job(self):
        # Queue wait is submit-to-dispatch: one sample per job a round
        # takes (so its count is batched_requests), never larger than
        # the same job's submit-to-finish latency; a hit never enters it.
        from repro.core.config import ServiceConfig
        from repro.service.queue import SolveRequest, SolveService

        request = SolveRequest.create("uniform:24:5", solver="sa_tsp",
                                      params={"sweeps": 5}, seed=0)
        with SolveService(ServiceConfig()) as svc:
            svc.solve(request, timeout=120)
            assert svc.submit(request).cached
            snap = svc.metrics.snapshot()
            batched = svc.stats()["requests"]["batched_requests"]
        wait = snap["repro_queue_wait_seconds"]
        latency = snap["repro_solve_latency_seconds"]
        assert wait["count"] == latency["count"] == batched == 1
        assert 0.0 <= wait["sum"] <= latency["sum"]
