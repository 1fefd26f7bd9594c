"""In-memory spans recorded from the benchmark's own files.

A span is ``(id, name, start, end, parent, run)``.  Spans live in memory
until :meth:`Tracer.write` dumps them as JSON lines at the end of a run.
Wrappers are installed on the public names each layer's *caller* looks
up, so ``src/`` is never edited.  Install them before any worker pool
forks, so forked workers run the same code (their spans stay in the
worker and are not collected).
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder.

    A span's run id is the one passed to :meth:`span`, else its
    parent's, else :attr:`run`.  Parents are tracked per thread.
    """

    def __init__(self, run: str = "") -> None:
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, run: str | None = None):
        stack = self._stack()
        parent, parent_run = stack[-1] if stack else (None, self.run)
        run = run if run is not None else parent_run
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, run))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, run))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def of_run(self, run: str) -> list[Span]:
        return [span for span in self.spans if span.run == run]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """``name -> (seconds, calls)`` summed over ``spans``."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        out[span.name][0] += span.seconds
        out[span.name][1] += 1
    return {name: (seconds, calls) for name, (seconds, calls) in out.items()}


def self_times(spans: list[Span]) -> dict[str, float]:
    """``name -> seconds`` of each span minus the time its children cover.

    Children of one span run sequentially in the benchmark's traced
    processes, so their durations are summed without merging overlaps.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.seconds - child_time[span.id]
    return dict(out)


class TaxiProbes:
    """Wrappers around the TAXI solve path, plus the counters they collect.

    Names are patched where their callers look them up:

    * ``repro.core.solver.build_hierarchy`` / ``solve_hierarchical``
      (called by ``TAXISolver.solve``);
    * ``repro.core.pipeline.fix_level_endpoints`` / ``SubmatrixCache``
      (called by the pipeline);
    * ``BatchedMacroSolver.solve_all`` and ``WavefrontPool.map`` on
      their classes (method lookups);
    * ``repro.macro.batch.anneal_group_fast`` (called by the batch
      solver).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.caches: list = []
        self.wave_tasks = 0
        self.task_bytes = 0
        self.result_bytes = 0

    def install(self) -> None:
        import repro.core.pipeline as pipeline
        import repro.core.solver as solver
        import repro.engine.wavefront as wavefront
        import repro.macro.batch as batch

        wrap = self.tracer.wrap
        solver.build_hierarchy = wrap(solver.build_hierarchy, "clustering.hierarchy")
        solver.solve_hierarchical = wrap(
            solver.solve_hierarchical, "pipeline.solve_hierarchical"
        )
        pipeline.fix_level_endpoints = wrap(
            pipeline.fix_level_endpoints, "clustering.fixing"
        )
        batch.anneal_group_fast = wrap(batch.anneal_group_fast, "kernels.anneal")
        batch.BatchedMacroSolver.solve_all = wrap(
            batch.BatchedMacroSolver.solve_all, "macro.solve_all"
        )

        caches = self.caches

        class CountedSubmatrixCache(pipeline.SubmatrixCache):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                caches.append(self)

        pipeline.SubmatrixCache = CountedSubmatrixCache

        original_map = wavefront.WavefrontPool.map
        probes = self

        @functools.wraps(original_map)
        def traced_map(pool, fn, tasks):
            tasks = list(tasks)
            with probes.tracer.span("engine.wave_map"):
                results = original_map(pool, fn, tasks)
            # Computed, not observed: what a process pool would ship.
            probes.wave_tasks += len(tasks)
            probes.task_bytes += sum(len(pickle.dumps(task)) for task in tasks)
            probes.result_bytes += sum(len(pickle.dumps(r)) for r in results)
            return results

        wavefront.WavefrontPool.map = traced_map

    def take_counts(self) -> dict[str, int]:
        """Counters since the previous call (one solve's worth)."""
        counts = {
            "clustering.submatrix_hits": sum(c.hits for c in self.caches),
            "clustering.submatrix_misses": sum(c.misses for c in self.caches),
            "clustering.submatrix_evictions": sum(c.evictions for c in self.caches),
            "engine.wave_tasks": self.wave_tasks,
            "engine.task_bytes": self.task_bytes,
            "engine.result_bytes": self.result_bytes,
        }
        self.caches.clear()
        self.wave_tasks = self.task_bytes = self.result_bytes = 0
        return counts
