"""Solver registry: every solver in the repo under one string name.

TAXI and each comparator/baseline self-register here with a uniform
contract — ``solve_with(name, instance, **params)`` returns a closed
:class:`~repro.tsp.tour.Tour` whichever solver produced it.  The
execution engine (:mod:`repro.engine.runner`) and the CLI ``batch`` /
``sweep`` commands address solvers only through this registry, so a new
solver becomes batchable the moment it registers.

Factories import their solvers lazily: ``import repro.engine`` stays
cheap, and worker processes only pay for the solver they actually run.

Usage::

    from repro.engine import solve_with, solver_names

    tour = solve_with("taxi", instance, seed=3, sweeps=200)
    tour = solve_with("sa_tsp", instance, seed=3, sweeps=400)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour

#: A built solver: takes an instance, returns a closed tour.
SolveFn = Callable[[TSPInstance], Tour]

#: Held-Karp is O(n^2 * 2^n); beyond this it is pointless to even try.
EXACT_SIZE_LIMIT = 13


@dataclass(frozen=True)
class SolverSpec:
    """One registry entry.

    ``needs_matrix`` declares that the solver materializes the full
    (n, n) distance matrix: requests above the instance layer's
    full-matrix guard are rejected up front
    (:func:`check_instance_capacity`) instead of tripping the
    allocation guard deep inside a worker process.  Sparse-capable
    solvers (``needs_matrix=False``) work from coordinates and
    candidate lists at any size.
    """

    name: str
    factory: Callable[..., SolveFn]
    description: str
    stochastic: bool = True
    needs_matrix: bool = False

    def accepted_params(self) -> tuple[str, ...]:
        """Keyword parameters this solver's factory understands."""
        signature = inspect.signature(self.factory)
        return tuple(signature.parameters)

    def build(self, **params) -> SolveFn:
        """Instantiate the solver, mapping bad kwargs to ConfigError."""
        unknown = set(params) - set(self.accepted_params())
        if unknown:
            raise ConfigError(
                f"solver {self.name!r} does not accept parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(self.accepted_params())}"
            )
        return self.factory(**params)


_REGISTRY: dict[str, SolverSpec] = {}


def register_solver(
    name: str, description: str = "", stochastic: bool = True,
    needs_matrix: bool = False,
) -> Callable[[Callable[..., SolveFn]], Callable[..., SolveFn]]:
    """Class/function decorator registering a solver factory under ``name``."""

    def decorator(factory: Callable[..., SolveFn]) -> Callable[..., SolveFn]:
        if name in _REGISTRY:
            raise ConfigError(f"solver {name!r} is already registered")
        _REGISTRY[name] = SolverSpec(
            name, factory, description, stochastic, needs_matrix
        )
        return factory

    return decorator


def solver_names() -> tuple[str, ...]:
    """All registered solver names, alphabetical."""
    return tuple(sorted(_REGISTRY))


def sparse_solver_names() -> tuple[str, ...]:
    """Solvers that never materialize a full matrix, alphabetical."""
    return tuple(
        name for name in solver_names() if not _REGISTRY[name].needs_matrix
    )


def check_instance_capacity(name: str, n: int) -> None:
    """Reject (solver, size) pairs that would need an oversized matrix.

    Full-matrix solvers cannot run above the instance layer's
    allocation guard; failing here — at admission/dispatch time, with a
    message naming the sparse-capable alternatives — beats an
    :class:`~repro.errors.InstanceError` surfacing from a worker
    mid-batch.
    """
    from repro.tsp.instance import _FULL_MATRIX_LIMIT

    spec = get_solver(name)
    if spec.needs_matrix and n > _FULL_MATRIX_LIMIT:
        raise ConfigError(
            f"solver {name!r} needs a full ({n}, {n}) distance matrix, "
            f"above the n={_FULL_MATRIX_LIMIT} allocation guard; "
            "sparse-capable solvers: "
            f"{', '.join(sparse_solver_names())}"
        )


def get_solver(name: str) -> SolverSpec:
    """Look up a registry entry; unknown names raise :class:`ConfigError`."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown solver {name!r}; registered solvers: {', '.join(solver_names())}"
        )
    return spec


def build_solver(name: str, **params) -> SolveFn:
    """Build a ready-to-call ``solve(instance) -> Tour`` for ``name``."""
    return get_solver(name).build(**params)


def solve_with(name: str, instance: TSPInstance, **params) -> Tour:
    """One-shot convenience: build the named solver and run it."""
    return build_solver(name, **params)(instance)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------

@register_solver("taxi", "TAXI hierarchical Ising-macro solver (the paper's system)")
def _taxi(
    seed: int | None = 0,
    sweeps: int | None = None,
    max_cluster_size: int = 12,
    bits: int = 4,
    clustering: str = "ward",
    endpoint_fixing: bool = True,
    workers: int = 1,
    chunk_size: int = 8,
) -> SolveFn:
    from repro.core.config import TAXIConfig
    from repro.core.solver import TAXISolver

    config = TAXIConfig(
        max_cluster_size=max_cluster_size,
        bits=bits,
        sweeps=sweeps,
        seed=seed,
        clustering=clustering,
        endpoint_fixing=endpoint_fixing,
        workers=workers,
        chunk_size=chunk_size,
    )
    solver = TAXISolver(config)
    return lambda instance: solver.solve(instance).tour


@register_solver("hvc", "Hierarchical Vertex Clustering comparator [4]")
def _hvc(
    seed: int | None = 0,
    sweeps: int | None = None,
    max_cluster_size: int = 12,
    bits: int = 4,
) -> SolveFn:
    from repro.baselines.hvc import HVCSolver

    solver = HVCSolver(
        max_cluster_size=max_cluster_size, bits=bits, sweeps=sweeps, seed=seed
    )
    return lambda instance: solver.solve(instance).tour


@register_solver("ima", "IMA clustered in-memory annealer comparator [6]")
def _ima(
    seed: int | None = 0,
    sweeps: int | None = None,
    max_cluster_size: int = 12,
    bits: int = 4,
) -> SolveFn:
    from repro.baselines.cima import IMASolver

    solver = IMASolver(
        max_cluster_size=max_cluster_size, bits=bits, sweeps=sweeps, seed=seed
    )
    return lambda instance: solver.solve(instance).tour


@register_solver("cima", "CIMA clustered CMOS annealer comparator [7]")
def _cima(
    seed: int | None = 0,
    sweeps: int | None = None,
    max_cluster_size: int = 12,
    bits: int = 4,
) -> SolveFn:
    from repro.baselines.cima import CIMASolver

    solver = CIMASolver(
        max_cluster_size=max_cluster_size, bits=bits, sweeps=sweeps, seed=seed
    )
    return lambda instance: solver.solve(instance).tour


@register_solver("neuro_ising", "Neuro-Ising selective cluster annealer comparator [5]")
def _neuro_ising(
    seed: int | None = 0,
    sweeps: int | None = None,
    max_cluster_size: int = 12,
    bits: int = 4,
) -> SolveFn:
    from repro.baselines.neuro_ising import NeuroIsingSolver

    solver = NeuroIsingSolver(
        max_cluster_size=max_cluster_size, bits=bits, sweeps=sweeps, seed=seed
    )
    return lambda instance: solver.solve(instance).tour


@register_solver(
    "sa_tsp", "CPU 2-opt simulated annealing on tours", needs_matrix=True
)
def _sa_tsp(
    seed: int | None = 0,
    sweeps: int | None = None,
    t_start_frac: float = 1.0,
    t_end_frac: float = 0.001,
) -> SolveFn:
    from repro.ising.sa_tsp import SimulatedAnnealingTSP

    solver = SimulatedAnnealingTSP(
        sweeps=400 if sweeps is None else sweeps,
        t_start_frac=t_start_frac,
        t_end_frac=t_end_frac,
        seed=seed,
    )

    def solve(instance: TSPInstance) -> Tour:
        # Share the per-process distance matrix across replicas instead
        # of rebuilding the O(n^2) block for every seeded start.
        from repro.engine.jobs import _MATRIX_CACHE_LIMIT, cached_distance_matrix

        matrix = (
            cached_distance_matrix(instance)
            if instance.n <= _MATRIX_CACHE_LIMIT
            else None
        )
        return solver.solve(instance, matrix=matrix)

    return solve


@register_solver(
    "greedy", "greedy-edge construction heuristic", stochastic=False,
    needs_matrix=True,
)
def _greedy(seed: int | None = 0) -> SolveFn:
    from repro.baselines.greedy import greedy_edge_tour

    del seed  # deterministic; accepted so engine params stay uniform
    return lambda instance: Tour(instance, greedy_edge_tour(instance), closed=True)


#: Above this size ``construction="auto"`` switches the two_opt start
#: tour from the (sequential, Python-loop) nearest-neighbour chain to
#: the vectorized Hilbert space-filling order.
HILBERT_CONSTRUCTION_LIMIT = 20_000


@register_solver("two_opt", "nearest-neighbour start + 2-opt/Or-opt", stochastic=False)
def _two_opt(
    seed: int | None = 0, k: int = 8, max_rounds: int = 30, use_or_opt: bool = True,
    construction: str = "auto",
) -> SolveFn:
    from repro.baselines.greedy import nearest_neighbor_tour, space_filling_order
    from repro.baselines.two_opt import two_opt

    del seed  # deterministic; accepted so engine params stay uniform
    if construction not in ("auto", "nn", "hilbert"):
        raise ConfigError(
            f"unknown construction {construction!r}; "
            "known: auto, nn, hilbert"
        )

    def solve(instance: TSPInstance) -> Tour:
        from repro.engine.jobs import cached_candidate_lists

        mode = construction
        if mode == "auto":
            mode = "nn" if instance.n <= HILBERT_CONSTRUCTION_LIMIT else "hilbert"
        if mode == "hilbert" and instance.coords is None:
            mode = "nn"  # EXPLICIT instances have no embedding to curve
        initial = (
            space_filling_order(instance)
            if mode == "hilbert"
            else nearest_neighbor_tour(instance)
        )
        candidates = cached_candidate_lists(instance, min(k, instance.n - 1))
        improved = two_opt(
            instance, initial, neighbors=candidates, max_rounds=max_rounds,
            use_or_opt=use_or_opt,
        )
        return Tour(instance, improved, closed=True)

    return solve


@register_solver(
    "exact", "Held-Karp exact DP (tiny instances only)", stochastic=False,
    needs_matrix=True,
)
def _exact(seed: int | None = 0) -> SolveFn:
    from repro.baselines.exact import held_karp_tour

    del seed  # deterministic; accepted so engine params stay uniform

    def solve(instance: TSPInstance) -> Tour:
        if instance.n > EXACT_SIZE_LIMIT:
            raise ConfigError(
                f"exact solver is limited to n <= {EXACT_SIZE_LIMIT} "
                f"(got n={instance.n}); use 'concorde_surrogate' instead"
            )
        order, _ = held_karp_tour(instance)
        return Tour(instance, order, closed=True)

    return solve


@register_solver(
    "concorde_surrogate", "offline Concorde stand-in reference", stochastic=False
)
def _concorde_surrogate(
    seed: int | None = 0, neighbor_k: int = 10, max_rounds: int = 40,
) -> SolveFn:
    from repro.baselines.concorde_surrogate import ConcordeSurrogate, SurrogateSettings

    del seed  # deterministic; accepted so engine params stay uniform
    solver = ConcordeSurrogate(
        SurrogateSettings(neighbor_k=neighbor_k, max_rounds=max_rounds)
    )
    return solver.solve


@register_solver(
    "portfolio",
    "deadline-aware racing portfolio over the solver registry (ROADMAP 5)",
)
def _portfolio(
    seed: int | None = 0,
    budget_seconds: float = 2.0,
    max_arms: int = 4,
    mode: str = "best",
    accept_ratio: float = 1.0,
) -> SolveFn:
    from repro.engine.portfolio import solve_portfolio

    def solve(instance: TSPInstance) -> Tour:
        result = solve_portfolio(
            instance,
            seed=seed or 0,
            budget_seconds=budget_seconds,
            max_arms=max_arms,
            mode=mode,
            accept_ratio=accept_ratio,
        )
        return result.tour(instance)

    return solve
