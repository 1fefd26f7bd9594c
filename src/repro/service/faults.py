"""Seeded chaos harness: a deterministic fault schedule for the stack.

The same philosophy the loadgen applies to traffic (PR 6) applied to
*failures*: a :class:`FaultInjector`'s entire fault schedule — which
dispatch round kills a pool worker, which task gets slow-solve latency
or a transient exception, and by how much — is precomputed from one
seed at construction.  Two injectors built from equal configs carry identical
schedules (assert via :meth:`FaultInjector.schedule_digest`), so a
chaos run is a repeatable experiment, not a dice roll.

What *is* timing-dependent is consumption order: under concurrency,
which real task draws fault slot ``k`` depends on thread scheduling —
exactly like the loadgen's completion order.  The schedule (and its
digest) is pinned; the pairing is not.  Engine determinism closes the
loop regardless: a killed or retried task replays with its original
seed, so final tours are bit-identical to an uninjected run.

Injection points:

* :meth:`on_dispatch` — called by the service queue once per dispatch
  round, before the round's engine calls; scheduled kill slots SIGKILL
  one live pool worker (the recovery driver then respawns + replays);
* :meth:`on_task` — called parent-side per task (the recovery
  driver's ``before_task`` hook) and usable as the engine's
  :func:`~repro.engine.runner.set_task_hook`; scheduled slots sleep
  (slow-solve) or raise :class:`~repro.errors.TransientError`;
* :meth:`corrupt_cache_file` — truncates a cache persistence file
  mid-bytes, for exercising the quarantine path in tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ConfigError, TransientError


@dataclass(frozen=True)
class FaultConfig:
    """Shape of one seeded fault schedule.

    ``horizon`` is the schedule length; consumers wrap around beyond
    it, so long runs see the same fault *mix* without unbounded
    precomputation.
    """

    seed: int = 7
    horizon: int = 512
    kill_rate: float = 0.08
    slow_rate: float = 0.10
    slow_seconds: float = 0.25
    transient_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        for name in ("kill_rate", "slow_rate", "transient_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.slow_rate + self.transient_rate > 1.0:
            raise ConfigError(
                "slow_rate + transient_rate must be <= 1, got "
                f"{self.slow_rate + self.transient_rate}"
            )
        if self.slow_seconds < 0:
            raise ConfigError(
                f"slow_seconds must be >= 0, got {self.slow_seconds}"
            )


class FaultInjector:
    """Precomputed, seed-pinned fault decision tables + live counters."""

    def __init__(self, config: FaultConfig | None = None) -> None:
        self.config = config or FaultConfig()
        rng = np.random.default_rng(self.config.seed)
        # Per-task slots: ("none"|"slow"|"transient", slow_delay).
        task_faults: list[tuple[str, float]] = []
        for _ in range(self.config.horizon):
            roll = float(rng.random())
            if roll < self.config.transient_rate:
                task_faults.append(("transient", 0.0))
            elif roll < self.config.transient_rate + self.config.slow_rate:
                delay = float(rng.random()) * self.config.slow_seconds
                task_faults.append(("slow", round(delay, 6)))
            else:
                task_faults.append(("none", 0.0))
        self.task_faults = tuple(task_faults)
        self.kill_slots = tuple(
            bool(float(rng.random()) < self.config.kill_rate)
            for _ in range(self.config.horizon)
        )
        self._task_ordinal = itertools.count()
        self._dispatch_ordinal = itertools.count()
        self._lock = threading.Lock()
        self._counters = {
            "tasks_seen": 0, "dispatches_seen": 0, "slow_injected": 0,
            "transient_injected": 0, "kills_injected": 0, "kills_skipped": 0,
        }

    # ------------------------------------------------------------------
    def schedule_digest(self) -> str:
        """Content hash of the whole fault schedule (config included)."""
        payload = json.dumps(
            {
                "config": asdict(self.config),
                "task_faults": list(self.task_faults),
                "kill_slots": list(self.kill_slots),
            },
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def stats(self) -> dict:
        with self._lock:
            return dict(self._counters)

    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    # ------------------------------------------------------------------
    # injection points
    # ------------------------------------------------------------------
    def on_task(self, _task) -> None:
        """Per-task hook: sleep (slow slot) or raise (transient slot)."""
        ordinal = next(self._task_ordinal)
        self._count("tasks_seen")
        kind, delay = self.task_faults[ordinal % self.config.horizon]
        if kind == "slow":
            self._count("slow_injected")
            time.sleep(delay)
        elif kind == "transient":
            self._count("transient_injected")
            raise TransientError(
                f"injected transient fault (schedule slot "
                f"{ordinal % self.config.horizon})"
            )

    def on_dispatch(self, pool) -> None:
        """Per-round hook: SIGKILL one live pool worker on kill slots.

        ``pool`` is anything exposing ``worker_pids()`` (the service's
        :class:`~repro.engine.wavefront.WavefrontPool`).  Slots where
        no worker is alive (workers=1 inline mode, pool not started
        yet) count as skipped, not injected.
        """
        ordinal = next(self._dispatch_ordinal)
        self._count("dispatches_seen")
        if not self.kill_slots[ordinal % self.config.horizon]:
            return
        if self.kill_worker(pool):
            self._count("kills_injected")
        else:
            self._count("kills_skipped")

    @staticmethod
    def kill_worker(pool) -> bool:
        """Kill the lowest-pid live worker of ``pool``; False if none."""
        pids = pool.worker_pids()
        if not pids:
            return False
        try:
            os.kill(pids[0], signal.SIGKILL)
        except (OSError, AttributeError):  # already gone / no SIGKILL
            return False
        return True

    def corrupt_cache_file(self, path: str) -> bool:
        """Truncate a cache persistence file mid-byte (quarantine bait)."""
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as stream:
                stream.truncate(max(1, size // 2))
        except OSError:
            return False
        return True
