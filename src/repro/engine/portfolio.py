"""Adaptive solver portfolio: deadline-aware racing over the registry.

Production traffic names instances and deadlines, not solvers.  This
module closes that gap (ROADMAP item 5) with three pieces:

* **Arm planning** (:func:`plan_arms`) — a pure function of
  ``(n, budget_seconds, seed, instance digest, max_arms)`` that selects
  N (solver, params, seed) *arms* whose estimated total compute fits
  the budget, under a static cost model.
* **Racing** (:func:`race`) — runs the arms on a
  :class:`~repro.engine.wavefront.WavefrontPool` (inline with one
  worker), in deterministic waves.  ``mode="best"`` runs every
  planned arm and picks the minimum length (budget enforced at *plan*
  time, so the result is bit-reproducible); ``mode="first"`` stops at
  the first wave containing an acceptable arm and cancels the
  unlaunched rest.
* **Warm starts** — annealing arms can be seeded from the cached tour
  of a geometrically similar instance (the near-match tier in
  :mod:`repro.service.cache`); warm-started results carry the source
  fingerprint so provenance is auditable.

Determinism contract: the arm set and every arm seed derive from the
instance content digest plus the explicit master seed.  Two
``mode="best"`` portfolio solves with the same fingerprint and seed
return bit-identical tours and identical win ledgers.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.jobs import InstanceSpec
from repro.engine.wavefront import WavefrontPool
from repro.errors import ConfigError
from repro.tsp.instance import _FULL_MATRIX_LIMIT, TSPInstance
from repro.tsp.tour import Tour

#: Schema tag mixed into arm-seed derivation; bump on recipe changes.
PORTFOLIO_SCHEMA = "repro-portfolio/1"

#: Solvers whose arms accept a warm-start tour (seeded annealing).
WARM_CAPABLE = frozenset({"sa_tsp"})

#: Sweep ladder for annealing arms — coarse on purpose, so the arm
#: space stays small and stable.
_SWEEP_LADDER = (100, 400, 1600)


# ----------------------------------------------------------------------
# Arms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Arm:
    """One (solver, params, seed) racing entry."""

    index: int
    solver: str
    params: tuple[tuple[str, object], ...]
    seed: int
    est_seconds: float = 0.0

    @property
    def label(self) -> str:
        """Stable, low-cardinality label for ledgers and win counters."""
        bits = [self.solver]
        params = dict(self.params)
        if "sweeps" in params and params["sweeps"]:
            bits.append(f"s{params['sweeps']}")
        return "-".join(str(b) for b in bits) + f"@{self.index}"


@dataclass(frozen=True)
class ArmTask:
    """Picklable unit of work: one arm against one instance spec."""

    spec: object  # InstanceSpec
    solver: str
    params: tuple[tuple[str, object], ...]
    seed: int
    index: int
    warm_start: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ArmRun:
    """What one executed arm produced."""

    index: int
    order: np.ndarray
    length: float
    seconds: float
    warm: bool = False


@dataclass
class ArmOutcome:
    """Ledger row: one arm's final state after the race."""

    arm: Arm
    status: str  # "completed" | "cancelled" | "failed"
    length: float | None = None
    seconds: float = 0.0
    warm: bool = False
    error: str | None = None


@dataclass
class PortfolioResult:
    """Winner tour plus the full per-arm ledger."""

    order: np.ndarray
    length: float
    winner: Arm
    outcomes: list[ArmOutcome]
    mode: str
    budget_seconds: float
    warm_source: str | None = None
    seconds: float = 0.0
    _tour: Tour | None = field(default=None, repr=False)

    def tour(self, instance: TSPInstance) -> Tour:
        if self._tour is None or self._tour.instance is not instance:
            self._tour = Tour(instance, self.order)
        return self._tour

    def ledger(self) -> dict:
        """Run-to-run-stable win ledger (no wall-clock fields)."""
        return {
            "schema": PORTFOLIO_SCHEMA,
            "mode": self.mode,
            "budget_seconds": self.budget_seconds,
            "winner": self.winner.label,
            "winner_length": self.length,
            "warm_start": self.warm_source,
            "arms": [
                {
                    "label": o.arm.label,
                    "solver": o.arm.solver,
                    "params": dict(o.arm.params),
                    "seed": o.arm.seed,
                    "status": o.status,
                    "length": o.length,
                    "warm": o.warm,
                }
                for o in self.outcomes
            ],
        }

    def timings(self) -> list[dict]:
        """Wall-clock per arm — informational, *not* part of the ledger."""
        return [{"label": o.arm.label, "seconds": o.seconds}
                for o in self.outcomes]


def arm_seed(digest: str, master_seed: int, index: int) -> int:
    """Deterministic per-arm seed from instance digest + master seed."""
    material = f"{PORTFOLIO_SCHEMA}:{digest}:{int(master_seed)}:{int(index)}"
    raw = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big") >> 1


def _static_estimate(solver: str, n: int, params: dict) -> float:
    """Estimated seconds for one arm: the planner's static cost model."""
    if solver == "two_opt":
        k = int(params.get("k", 8))
        rounds = int(params.get("max_rounds", 30))
        return 6e-4 * n + 1.5e-6 * n * k * min(rounds, 10)
    if solver == "sa_tsp":
        sweeps = int(params.get("sweeps") or 400)
        return 1e-3 + 2.5e-6 * n * sweeps
    if solver == "taxi":
        return 1.2e-3 * n
    if solver == "greedy":
        return 5e-4 + 2e-7 * n * n
    return 1e-3 * n


def _candidate_ladder(n: int) -> list[tuple[str, dict, float]]:
    """(solver, params, est_seconds) in racing priority order.

    The first entry is the cheap deterministic baseline; it is always
    planned, so every portfolio solve has a quality floor even at tiny
    budgets.  Full-matrix solvers only appear under the dense capacity
    limit — above it the sparse ``two_opt`` path races alone.
    """
    ladder: list[tuple[str, dict, float]] = []

    def add(solver: str, params: dict) -> None:
        ladder.append((solver, params, _static_estimate(solver, n, params)))

    add("two_opt", {"k": 8, "max_rounds": 30})
    if n <= _FULL_MATRIX_LIMIT:
        for sweeps in _SWEEP_LADDER:
            add("sa_tsp", {"sweeps": sweeps})
    add("taxi", {})
    return ladder


def plan_arms(
    n: int,
    *,
    budget_seconds: float,
    seed: int,
    digest: str,
    max_arms: int = 4,
) -> tuple[Arm, ...]:
    """Deterministic arm set whose estimated total compute fits the budget.

    A pure function of its arguments: the ladder is scanned in priority
    order, each arm admitted while the cumulative estimate stays under
    ``budget_seconds`` and the arm count under ``max_arms``.  At least
    one arm — the cheapest candidate — is always planned, so a tight
    deadline degrades to the fastest solver rather than to failure.
    """
    if budget_seconds <= 0:
        raise ConfigError(f"budget_seconds must be > 0, got {budget_seconds}")
    if max_arms < 1:
        raise ConfigError(f"max_arms must be >= 1, got {max_arms}")
    ladder = _candidate_ladder(int(n))
    chosen: list[tuple[str, dict, float]] = []
    spent = 0.0
    for solver, params, est in ladder:
        if len(chosen) >= max_arms:
            break
        if spent + est > budget_seconds:
            continue
        chosen.append((solver, params, est))
        spent += est
    if not chosen:
        chosen = [min(ladder, key=lambda row: (row[2], row[0]))]
    return tuple(
        Arm(
            index=index,
            solver=solver,
            params=tuple(sorted(params.items())),
            seed=arm_seed(digest, seed, index),
            est_seconds=est,
        )
        for index, (solver, params, est) in enumerate(chosen)
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _valid_warm_start(warm, n: int) -> np.ndarray | None:
    """The warm tour as an int array iff it is a permutation of ``0..n-1``."""
    if warm is None:
        return None
    order = np.asarray(warm, dtype=int)
    if order.ndim != 1 or order.size != n:
        return None
    counts = np.bincount(order, minlength=n) if order.min(initial=0) >= 0 else None
    if counts is None or counts.size != n or not (counts == 1).all():
        return None
    return order


def run_arm_task(task: ArmTask) -> ArmRun:
    """Execute one arm; warm-seeds annealing when possible.

    Module-level, so a process pool can pickle it.
    """
    from repro.engine.registry import build_solver, check_instance_capacity
    from repro.engine.runner import validate_finite_instance

    instance = task.spec.resolve()
    validate_finite_instance(instance)
    check_instance_capacity(task.solver, instance.n)
    params = dict(task.params)
    warm = (_valid_warm_start(task.warm_start, instance.n)
            if task.solver in WARM_CAPABLE else None)
    start = time.perf_counter()
    if warm is not None:
        from repro.ising.sa_tsp import SimulatedAnnealingTSP

        solver = SimulatedAnnealingTSP(seed=task.seed, **params)
        tour = solver.solve(instance, initial=warm)
    else:
        tour = build_solver(task.solver, seed=task.seed, **params)(instance)
    return ArmRun(
        index=task.index,
        order=np.asarray(tour.order, dtype=int),
        length=float(tour.length),
        seconds=time.perf_counter() - start,
        warm=warm is not None,
    )


def race(
    arms,
    *,
    instance: TSPInstance | None = None,
    spec=None,
    pool=None,
    mode: str = "best",
    accept_ratio: float = 1.0,
    budget_seconds: float | None = None,
    wave_width: int | None = None,
    warm_start=None,
    warm_source: str | None = None,
) -> PortfolioResult:
    """Race ``arms`` and return the winner plus the full ledger.

    ``mode="best"`` launches every arm (single wave — the budget was
    enforced at plan time) and picks the minimum length, arm index
    breaking ties, so the result is bit-reproducible.  ``mode="first"``
    launches deterministic waves of ``wave_width`` and stops at the
    first wave whose completed arms contain one within ``accept_ratio``
    of the baseline (arm 0); unlaunched arms are recorded as
    ``cancelled`` — the racing driver's loser cancellation.  A wall
    ``budget_seconds`` additionally stops wave launching once exceeded
    (operational guard; only relevant in ``"first"`` mode).  Without a
    ``pool`` the arms run inline; without a ``spec`` each arm task
    carries ``instance`` itself.
    """
    arms = list(arms)
    if not arms:
        raise ConfigError("portfolio race needs at least one arm")
    if mode not in ("best", "first"):
        raise ConfigError(f"unknown portfolio mode {mode!r}; use best|first")
    if accept_ratio < 1.0:
        raise ConfigError(f"accept_ratio must be >= 1.0, got {accept_ratio}")
    if spec is None:
        if instance is None:
            raise ConfigError("race needs an instance or a spec")
        spec = InstanceSpec.inline(instance)
    if pool is None:
        pool = WavefrontPool()

    started = time.perf_counter()
    width = len(arms) if mode == "best" else max(
        1, wave_width or pool.workers)
    outcomes: dict[int, ArmOutcome] = {}
    completed: list[tuple[Arm, ArmRun]] = []
    position = 0
    while position < len(arms):
        if position > 0 and mode == "first":
            baseline = next((run.length for arm, run in completed
                             if arm.index == arms[0].index), None)
            acceptable = baseline is not None and any(
                run.length <= accept_ratio * baseline for _, run in completed)
            overran = (budget_seconds is not None
                       and time.perf_counter() - started >= budget_seconds)
            if acceptable or overran:
                for arm in arms[position:]:
                    outcomes[arm.index] = ArmOutcome(arm=arm, status="cancelled")
                break
        wave = arms[position:position + width]
        tasks = [
            ArmTask(
                spec=spec, solver=arm.solver, params=arm.params,
                seed=arm.seed, index=arm.index,
                warm_start=(tuple(int(v) for v in warm_start)
                            if warm_start is not None
                            and arm.solver in WARM_CAPABLE else None),
            )
            for arm in wave
        ]
        # One outcome per arm: a failing arm must not kill the race.
        for arm, outcome in zip(wave, pool.map_outcomes(run_arm_task, tasks)):
            if outcome.ok:
                run = outcome.value
                outcomes[arm.index] = ArmOutcome(
                    arm=arm, status="completed", length=run.length,
                    seconds=run.seconds, warm=run.warm)
                completed.append((arm, run))
            else:
                outcomes[arm.index] = ArmOutcome(
                    arm=arm, status="failed", error=repr(outcome.error))
        position += len(wave)

    if not completed:
        errors = "; ".join(
            f"{o.arm.label}: {o.error}" for o in outcomes.values()
            if o.status == "failed")
        raise ConfigError(f"every portfolio arm failed ({errors})")

    winner_arm, winner_run = min(
        completed, key=lambda pair: (pair[1].length, pair[0].index))
    ordered = [outcomes[arm.index] for arm in arms if arm.index in outcomes]
    return PortfolioResult(
        order=winner_run.order,
        length=winner_run.length,
        winner=winner_arm,
        outcomes=ordered,
        mode=mode,
        budget_seconds=float(budget_seconds or 0.0),
        warm_source=(warm_source
                     if any(o.warm for o in ordered) else None),
        seconds=time.perf_counter() - started,
    )


def solve_portfolio(
    instance: TSPInstance,
    *,
    seed: int = 0,
    budget_seconds: float = 2.0,
    max_arms: int = 4,
    mode: str = "best",
    accept_ratio: float = 1.0,
    pool=None,
    spec=None,
    warm_start=None,
    warm_source: str | None = None,
) -> PortfolioResult:
    """Plan and race a portfolio for one instance (the one-call surface)."""
    from repro.engine.arena import content_key

    digest = content_key(instance)
    arms = plan_arms(
        instance.n,
        budget_seconds=budget_seconds,
        seed=seed,
        digest=digest,
        max_arms=max_arms,
    )
    return race(
        arms,
        instance=instance,
        spec=spec,
        pool=pool,
        mode=mode,
        accept_ratio=accept_ratio,
        budget_seconds=budget_seconds,
        warm_start=warm_start,
        warm_source=warm_source,
    )
