"""Lock-safe serving metrics: counters, gauges, streaming histograms.

The observability side of the solve service.  Every instrument is
independently lock-protected (an increment never contends with the
service's own job-table lock), cheap enough to sit on the hot path
(a counter bump is one lock + one add), and snapshot-able at any time
without stopping traffic:

* :class:`Counter` — monotonically increasing event counts (requests,
  cache hits, dispatch rounds);
* :class:`Gauge` — instantaneous values (queue depth, pool width);
* :class:`Histogram` — streaming distribution sketches over fixed
  bucket ladders, with percentile estimation by intra-bucket linear
  interpolation (p50/p95/p99 without storing per-event samples, so a
  soak run's memory stays O(buckets) however long it runs);
* :class:`MetricsRegistry` — the named collection behind ``GET
  /metrics``, rendered as a JSON snapshot or Prometheus text
  exposition (``name_bucket{le="..."}`` cumulative form).

:class:`ServiceMetrics` wires the registry into the solve service's
well-known instrument set; the same counters feed ``GET /stats``,
``GET /metrics``, and the loadgen run summary, so the three views can
be cross-checked number-for-number.
"""

from __future__ import annotations

import bisect
import math
import threading

from repro.errors import ConfigError


def latency_bounds() -> tuple[float, ...]:
    """Quarter-decade log ladder from 1 microsecond to 100 seconds.

    Wide enough for both 40-microsecond cache hits and multi-second
    cold hierarchical solves; 33 buckets keeps percentile error under
    ~30% of the bucket width anywhere on the ladder.
    """
    return tuple(10.0 ** (exponent / 4.0) for exponent in range(-24, 9))


def batch_size_bounds() -> tuple[float, ...]:
    """Bucket ladder for dispatch batch sizes (1 .. max_batch-scale)."""
    return (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)


class Counter:
    """A monotonically increasing, thread-safe event counter."""

    def __init__(self, name: str, help: str = "", labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """An instantaneous, thread-safe value (queue depth, pool width)."""

    def __init__(self, name: str, help: str = "", labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A streaming histogram over a fixed, sorted bucket ladder.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last edge.  Percentiles interpolate linearly
    inside the winning bucket and clamp to the exact observed min/max,
    so single-observation and overflow cases stay sane.
    """

    def __init__(self, name: str, help: str = "",
                 bounds: tuple[float, ...] | None = None,
                 labels: dict | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds = tuple(sorted(bounds if bounds is not None else latency_bounds()))
        if not self.bounds:
            raise ConfigError(f"histogram {self.name!r} needs at least one bound")
        self._counts = [0] * (len(self.bounds) + 1)  # + overflow
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (``q`` in (0, 1]); ``None`` when empty."""
        if not 0.0 < q <= 1.0:
            raise ConfigError(f"percentile must be in (0, 1], got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float | None:
        total = sum(self._counts)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            cumulative += bucket_count
            if cumulative < rank:
                continue
            lower = self.bounds[index - 1] if index > 0 else 0.0
            upper = self.bounds[index] if index < len(self.bounds) else math.inf
            # Interpolate inside the *effective* bucket: the observed
            # max tightens the top occupied bucket's upper edge and the
            # observed min the bottom occupied bucket's lower edge (for
            # interior buckets both clamps are no-ops).  Without this,
            # any quantile landing in the top occupied bucket would
            # estimate past the max and clamp straight to it — which is
            # how p95 == p99 == max tail collapse happened.
            upper = min(upper, self._max)
            lower = min(max(lower, self._min), upper)
            fraction = (rank - (cumulative - bucket_count)) / bucket_count
            estimate = lower + fraction * (upper - lower)
            return float(min(max(estimate, self._min), self._max))
        return float(self._max)  # pragma: no cover - loop always returns

    def snapshot(self) -> dict:
        """JSON-safe summary: count/sum/mean/min/max and key percentiles."""
        with self._lock:
            total = sum(self._counts)
            if total == 0:
                return {"count": 0, "sum": 0.0, "mean": None, "min": None,
                        "max": None, "p50": None, "p90": None, "p95": None,
                        "p99": None}
            return {
                "count": total,
                "sum": self._sum,
                "mean": self._sum / total,
                "min": self._min,
                "max": self._max,
                "p50": self._percentile_locked(0.50),
                "p90": self._percentile_locked(0.90),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_edge, cumulative_count) pairs, ending with +Inf."""
        return self.exposition()[0]

    def exposition(self) -> tuple[list[tuple[float, int]], float, int]:
        """(cumulative buckets, sum, count) from ONE locked snapshot.

        Prometheus rejects a scrape whose ``_count`` disagrees with its
        ``+Inf`` bucket, so the three series must never be read across
        separate lock acquisitions with observes landing in between.
        """
        with self._lock:
            pairs = []
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, self._counts):
                cumulative += bucket_count
                pairs.append((bound, cumulative))
            total = cumulative + self._counts[-1]
            pairs.append((math.inf, total))
            return pairs, self._sum, total


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _merge_labels(base: str, extra: str) -> str:
    """Merge two ``{k="v"}`` fragments into one label set."""
    if not base:
        return extra
    if not extra:
        return base
    return base[:-1] + "," + extra[1:]


class MetricsRegistry:
    """A named, ordered collection of instruments.

    ``counter``/``gauge``/``histogram`` are create-or-get: asking for
    the same (name, labels) twice returns the same instrument, so the
    service and the HTTP layer can share counters without plumbing
    object references through every call site.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, key: tuple, factory, kind: type):
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ConfigError(
                        f"metric {key[0]!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = factory()
            self._metrics[key] = metric
            return metric

    @staticmethod
    def _key(name: str, labels: dict | None) -> tuple:
        return (name, tuple(sorted((labels or {}).items())))

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._get_or_create(
            self._key(name, labels), lambda: Counter(name, help, labels), Counter
        )

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get_or_create(
            self._key(name, labels), lambda: Gauge(name, help, labels), Gauge
        )

    def histogram(self, name: str, help: str = "",
                  bounds: tuple[float, ...] | None = None,
                  labels: dict | None = None) -> Histogram:
        return self._get_or_create(
            self._key(name, labels),
            lambda: Histogram(name, help, bounds, labels), Histogram,
        )

    def _items(self) -> list:
        with self._lock:
            return list(self._metrics.values())

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON view: scalars for counters/gauges, dicts for histograms.

        Labeled families collapse to ``{label_value: value}`` maps (one
        label per family is the supported shape).
        """
        out: dict = {}
        for metric in self._items():
            if isinstance(metric, Histogram):
                value: object = metric.snapshot()
            else:
                value = metric.value
            if metric.labels:
                family = out.setdefault(metric.name, {})
                label_value = ",".join(
                    str(v) for _, v in sorted(metric.labels.items())
                )
                family[label_value] = value
            else:
                out[metric.name] = value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4)."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in self._items():
            labels = _format_labels(metric.labels)
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                kind = {Counter: "counter", Gauge: "gauge",
                        Histogram: "histogram"}[type(metric)]
                lines.append(f"# TYPE {metric.name} {kind}")
            if isinstance(metric, Histogram):
                pairs, total_sum, total_count = metric.exposition()
                for bound, cumulative in pairs:
                    edge = "+Inf" if math.isinf(bound) else repr(bound)
                    bucket_labels = _merge_labels(labels, f'{{le="{edge}"}}')
                    lines.append(
                        f"{metric.name}_bucket{bucket_labels} {cumulative}"
                    )
                lines.append(f"{metric.name}_sum{labels} {total_sum}")
                lines.append(f"{metric.name}_count{labels} {total_count}")
            else:
                lines.append(f"{metric.name}{labels} {metric.value}")
        return "\n".join(lines) + "\n"


class ServiceMetrics:
    """The solve service's well-known instrument set.

    One instance per :class:`~repro.service.queue.SolveService`; the
    queue, the result cache, and the HTTP front-end all write into it,
    and ``GET /stats``, ``GET /metrics``, and the loadgen summary all
    read from it — one ledger, three views.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        registry = self.registry
        self.requests = registry.counter(
            "repro_requests_total", "Solve requests admitted")
        self.deduplicated = registry.counter(
            "repro_requests_deduplicated_total",
            "Requests coalesced onto an identical in-flight fingerprint")
        self.served_from_cache = registry.counter(
            "repro_requests_cached_total",
            "Requests answered from the result cache")
        self.completed = registry.counter(
            "repro_requests_completed_total", "Requests solved successfully")
        self.failed = registry.counter(
            "repro_requests_failed_total", "Requests that failed in the engine")
        self.batched_requests = registry.counter(
            "repro_batched_requests_total",
            "Requests carried by dispatch rounds")
        self.windows = registry.counter(
            "repro_dispatch_windows_total",
            "Dispatch rounds run by the dispatcher")
        self.cache_hits = registry.counter(
            "repro_cache_hits_total", "Result-cache lookup hits")
        self.cache_misses = registry.counter(
            "repro_cache_misses_total", "Result-cache lookup misses")
        self.cache_evictions = registry.counter(
            "repro_cache_evictions_total", "Result-cache LRU evictions")
        self.cache_load_errors = registry.counter(
            "repro_cache_load_errors_total",
            "Corrupt/foreign cache persistence files quarantined at load")
        self.retries = registry.counter(
            "repro_retries_total",
            "Engine task retries (crash replays + transient re-runs)")
        self.deadline_expired = registry.counter(
            "repro_deadline_expired_total",
            "Requests failed because their deadline expired")
        self.pool_respawns = registry.counter(
            "repro_pool_respawns_total",
            "Worker-pool executors respawned after breakage")
        self.shed = registry.counter(
            "repro_shed_total",
            "Requests shed (503) while the pool was degraded")
        self.partial_group_failures = registry.counter(
            "repro_partial_group_failures_total",
            "Dispatch rounds where some jobs failed and others succeeded")
        self.portfolio_arms = registry.counter(
            "repro_portfolio_arms_total",
            "Arms raced (launched) by portfolio solves")
        self.warm_starts = registry.counter(
            "repro_warm_starts_total",
            "Solves seeded from a near-match cached tour")
        self.degraded = registry.gauge(
            "repro_degraded",
            "1 while the worker pool is broken/respawning, else 0")
        self.degraded_seconds = registry.gauge(
            "repro_degraded_seconds_total",
            "Cumulative seconds spent in degraded mode")
        self.queue_pending = registry.gauge(
            "repro_queue_pending", "Requests admitted but not yet solved")
        self.arena_publishes = registry.counter(
            "repro_arena_publishes_total",
            "Dispatches that shipped an arena-backed instance ref")
        self.arena_instances = registry.gauge(
            "repro_arena_instances",
            "Instances resident in the shared-memory arena")
        self.arena_bytes = registry.gauge(
            "repro_arena_bytes",
            "Bytes of shared-memory blocks owned by the arena")
        self.queue_depth_limit = registry.gauge(
            "repro_queue_depth_limit", "Backpressure threshold")
        self.batch_size = registry.histogram(
            "repro_batch_size",
            "Requests per dispatch round",
            bounds=batch_size_bounds())
        self.solve_latency = registry.histogram(
            "repro_solve_latency_seconds",
            "Submit-to-finish latency of engine-solved requests")
        self.queue_wait = registry.histogram(
            "repro_queue_wait_seconds",
            "Submit-to-dispatch wait of requests a dispatch round took")
        self.cache_hit_latency = registry.histogram(
            "repro_cache_hit_latency_seconds",
            "Admission latency of cache-served requests")

    def http_response(self, status: int) -> None:
        """Count one HTTP response by status code (labeled family)."""
        self.registry.counter(
            "repro_http_responses_total", "HTTP responses by status code",
            labels={"status": str(int(status))},
        ).inc()

    def portfolio_win(self, arm_label: str) -> None:
        """Count one portfolio win by arm (labeled family).

        Arm labels are intentionally low-cardinality: solver name plus
        the sweep rung and ladder index (e.g. ``sa_tsp-s400@2``).
        """
        self.registry.counter(
            "repro_portfolio_wins_total", "Portfolio race wins by arm",
            labels={"arm": str(arm_label)},
        ).inc()

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()
