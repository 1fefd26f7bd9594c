"""Worker-crash recovery: bounded replay with deterministic backoff.

A :class:`~concurrent.futures.process.BrokenProcessPool` is terminal
for the executor but *not* for the work: every engine task is a pure
function of its description (self-seeded chunks, explicit request
seeds), so a lost task can simply be re-submitted to a fresh pool and
its retried result is bit-identical to the run that never crashed.
This module provides the driver that makes that replay safe:

* **per-task outcomes** — one :class:`TaskOutcome` per input task, so
  a deterministic failure in one task never poisons its siblings
  (application errors are final; only pool breakage and
  :class:`~repro.errors.TransientError` are retried);
* **bounded retries** — :class:`RetryPolicy` caps both pool respawns
  and per-task transient retries; exhaustion raises
  :class:`~repro.errors.PoolBrokenError` rather than looping forever;
* **deterministic backoff** — the jitter on each backoff delay is
  drawn from a generator seeded by ``(policy.seed, attempt)``, so two
  recovery sequences under the same policy sleep identically — chaos
  runs stay bit-repeatable end to end.

The driver is executor-agnostic: it asks a provider callable for the
executor before every round, so a respawned pool is picked up
transparently.  :class:`~repro.engine.wavefront.WavefrontPool` wires
its own lazy pool + respawn into this driver.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Executor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, PoolBrokenError, TransientError


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + deterministic backoff schedule.

    Parameters
    ----------
    max_retries:
        Budget for pool respawns *and* per-task transient retries
        (each bounded independently).  ``0`` disables retrying: the
        first pool break raises :class:`PoolBrokenError` and the first
        :class:`TransientError` is final.
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per subsequent attempt (exponential).
    jitter:
        Fractional jitter range: the delay for attempt ``k`` is scaled
        by ``1 + jitter * u`` with ``u ~ U[0, 1)`` drawn from a stream
        seeded by ``(seed, k)`` — deterministic, not wall-clock noise.
    seed:
        Seed of the jitter stream.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ConfigError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based); pure in its inputs."""
        if attempt < 0:
            raise ConfigError(f"attempt must be >= 0, got {attempt}")
        base = self.backoff_base * (self.backoff_factor ** attempt)
        scale = 1.0
        if self.jitter > 0:
            draw = float(np.random.default_rng([self.seed, attempt]).random())
            scale += self.jitter * draw
        return base * scale


@dataclass
class TaskOutcome:
    """Final state of one task after the recovery driver is done with it."""

    index: int
    value: object = None
    error: BaseException | None = field(default=None, repr=False)
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def run_with_recovery(
    executor_provider: Callable[[int], Executor | None],
    respawn: Callable[[Executor], bool],
    fn: Callable,
    tasks: Sequence,
    policy: RetryPolicy,
    before_task: Callable | None = None,
    on_retry: Callable | None = None,
    on_result: Callable | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[TaskOutcome]:
    """Run ``fn`` over ``tasks`` with crash replay; one outcome per task.

    ``executor_provider(pending)`` is consulted before every round
    (``None`` means run inline).  When a round breaks the pool,
    ``respawn(broken_executor)`` must tear it down so the next
    provider call yields a fresh one; returning ``False`` (executor
    not owned, cannot respawn) escalates to :class:`PoolBrokenError`
    immediately.  ``before_task(task)`` runs parent-side ahead of each
    dispatch — the chaos harness's injection point; raising
    :class:`TransientError` from it is retryable like an in-task one.
    ``on_retry(task, error)`` fires once per re-dispatch (metrics).
    ``on_result(value)`` fires once per task whose value lands, in task
    order within a round (streamed progress); a replayed task reports
    only when its value finally lands, and an exception raised by the
    hook propagates instead of being recorded as the task's error.
    """
    tasks = list(tasks)
    outcomes = [TaskOutcome(index=index) for index in range(len(tasks))]
    remaining = list(range(len(tasks)))
    transient_counts = [0] * len(tasks)
    pool_failures = 0
    round_index = 0
    while remaining:
        executor = executor_provider(len(remaining))
        replay: list[int] = []
        retry_transient: list[int] = []
        broken_executor: Executor | None = None

        def run_inline(slot: int) -> None:
            try:
                if before_task is not None:
                    before_task(tasks[slot])
                outcomes[slot].value = fn(tasks[slot])
                outcomes[slot].error = None
            except TransientError as exc:
                outcomes[slot].error = exc
                retry_transient.append(slot)
            except Exception as exc:
                outcomes[slot].error = exc
            else:
                if on_result is not None:
                    on_result(outcomes[slot].value)

        if executor is None:
            for slot in remaining:
                run_inline(slot)
        else:
            submitted: list[tuple[int, object]] = []
            for slot in remaining:
                if broken_executor is not None:
                    replay.append(slot)
                    continue
                try:
                    if before_task is not None:
                        before_task(tasks[slot])
                except TransientError as exc:
                    outcomes[slot].error = exc
                    retry_transient.append(slot)
                    continue
                try:
                    submitted.append((slot, executor.submit(fn, tasks[slot])))
                except BrokenExecutor:
                    broken_executor = executor
                    replay.append(slot)
            for slot, future in submitted:
                try:
                    outcomes[slot].value = future.result()
                    outcomes[slot].error = None
                except BrokenExecutor as exc:
                    outcomes[slot].error = exc
                    broken_executor = executor
                    replay.append(slot)
                except TransientError as exc:
                    outcomes[slot].error = exc
                    retry_transient.append(slot)
                except Exception as exc:
                    outcomes[slot].error = exc
                else:
                    if on_result is not None:
                        on_result(outcomes[slot].value)
        if broken_executor is not None:
            pool_failures += 1
            if pool_failures > policy.max_retries:
                raise PoolBrokenError(
                    f"worker pool still broken after {policy.max_retries} "
                    f"respawn(s); {len(replay)} task(s) unrecovered"
                )
            if not respawn(broken_executor):
                raise PoolBrokenError(
                    "externally supplied executor broke; the pool owner "
                    "must replace it (no respawn possible here)"
                )
        next_remaining: list[int] = []
        for slot in replay:
            outcomes[slot].retries += 1
            if on_retry is not None:
                on_retry(tasks[slot], outcomes[slot].error)
            next_remaining.append(slot)
        for slot in retry_transient:
            if transient_counts[slot] >= policy.max_retries:
                continue  # budget spent: the recorded error is final
            transient_counts[slot] += 1
            outcomes[slot].retries += 1
            if on_retry is not None:
                on_retry(tasks[slot], outcomes[slot].error)
            next_remaining.append(slot)
        remaining = sorted(next_remaining)
        if remaining:
            sleep(policy.delay(round_index))
            round_index += 1
    return outcomes
