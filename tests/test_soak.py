"""Soak tests: sustained traffic against a long-lived service.

Marked ``soak`` and excluded from the default/tier-1 run (see
``docs/testing.md``); run explicitly with ``pytest -m soak``.  These
assert the properties that only show up over time: bounded job-table
and histogram memory, a clean counter ledger after thousands of
requests, and no drift between the metrics endpoint views.
"""

import pytest

from repro.core.config import LoadgenConfig, ServiceConfig
from repro.service import InProcessDriver, SolveService
from repro.service.loadgen import run_loadtest

pytestmark = pytest.mark.soak


def test_sustained_mixed_traffic_soak():
    config = LoadgenConfig(
        instances=("uniform:24:1", "uniform:32:2", "uniform:20:3"),
        requests=600,
        concurrency=8,
        warm_ratio=0.7,
        solver="sa_tsp",
        params=(("sweeps", 8),),
        seed=42,
        timeout=600.0,
    )
    service_config = ServiceConfig(
        queue_depth=64, cache_size=1024, job_history=64
    )
    with SolveService(service_config) as service:
        report = run_loadtest(config, driver=InProcessDriver(service))
        summary = report.summary()

        assert summary["errors"] == 0
        assert summary["completed"] == config.requests
        # Ledger still exact after the full run.
        assert summary["cache_hits"] == summary["scheduled_warm"]
        assert summary["cache_misses"] == summary["scheduled_cold"]
        # Long-lived process stays bounded: finished jobs are pruned
        # to job_history even though we pushed 600 through.
        assert len(service._jobs) <= service_config.job_history
        # Streaming histograms hold O(buckets), not O(requests).
        latency = service.metrics.solve_latency
        assert latency.count == summary["scheduled_cold"]
        assert len(latency._counts) == len(latency.bounds) + 1
        # Queue fully drained.
        assert service.stats()["queue"]["pending"] == 0


def test_open_loop_arrivals_soak():
    config = LoadgenConfig(
        instances=("uniform:24:5",),
        requests=200,
        concurrency=8,
        warm_ratio=0.8,
        mode="open",
        rate=120.0,
        solver="sa_tsp",
        params=(("sweeps", 6),),
        seed=9,
        timeout=600.0,
    )
    summary = run_loadtest(config).summary()
    assert summary["errors"] == 0
    assert summary["cache_hits"] == summary["scheduled_warm"]
    assert summary["requests_per_sec"] > 0
