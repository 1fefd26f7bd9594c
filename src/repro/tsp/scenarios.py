"""Named workload scenarios: reproducible instance suites beyond the paper.

The paper evaluates TAXI on TSPLIB instances up to 85,900 cities but
reports quality only to gil262.  A *scenario* names a reproducible set
of instances — geometry family, size ladder, seeds — so the
cluster-parallel pipeline is exercised across every regime we can
generate: compact Gaussian clusters (the hierarchical solver's home
turf), jittered drill grids, concentric rings (clustering must cut
each ring), power-law hubs (maximally unbalanced cluster sizes), and
the TSPLIB-matched benchmark registry.

Every scenario resolves to engine instance tokens
(:func:`repro.engine.jobs.spec_from_token`), so scenarios run through
the same batch machinery as ``repro batch``::

    from repro.tsp.scenarios import scenario_job
    from repro.engine import run_batch

    job = scenario_job("clustered-ladder", replicas=2, workers=4,
                       params={"sweeps": 60})
    results = run_batch(job)

or from the CLI::

    repro scenarios                      # list the registry
    repro scenarios --run ring-ladder --sweeps 60 --workers 4
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.tsp.benchmarks import BENCHMARK_SIZES


@dataclass(frozen=True)
class Scenario:
    """One named workload.

    Attributes
    ----------
    name:
        Registry key (CLI ``--run`` argument).
    description:
        One-line summary for the listing.
    tokens:
        Engine instance tokens (``family:n:seed``, benchmark size/name,
        or TSPLIB path) — everything ``repro batch --instances`` takes.
    solver:
        Default solver; overridable at run time.
    params:
        Default solver parameters (merged under run-time overrides).
    """

    name: str
    description: str
    tokens: tuple[str, ...]
    solver: str = "taxi"
    params: tuple[tuple[str, object], ...] = ()

    def params_dict(self) -> dict:
        return dict(self.params)


_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(
    name: str,
    description: str,
    tokens,
    solver: str = "taxi",
    params: dict | None = None,
) -> Scenario:
    """Register a scenario under ``name``; duplicates raise ConfigError."""
    if name in _SCENARIOS:
        raise ConfigError(f"scenario {name!r} is already registered")
    scenario = Scenario(
        name=name,
        description=description,
        tokens=tuple(str(t) for t in tokens),
        solver=solver,
        params=tuple(sorted((params or {}).items())),
    )
    _SCENARIOS[name] = scenario
    return scenario


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, alphabetical."""
    return tuple(sorted(_SCENARIOS))


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; unknown names raise :class:`ConfigError`."""
    scenario = _SCENARIOS.get(name)
    if scenario is None:
        raise ConfigError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
    return scenario


def scenario_job(
    name: str,
    replicas: int = 2,
    workers: int | None = None,
    seed: int = 0,
    solver: str | None = None,
    params: dict | None = None,
):
    """Build a ready-to-run :class:`~repro.engine.jobs.BatchJob`.

    Run-time ``params`` override the scenario's defaults; ``solver``
    overrides its default solver.  ``seed`` must be an integer:
    scenarios are documented as reproducible bit-for-bit, and their
    results feed golden comparisons and the content-addressed result
    cache, so the OS-entropy ``seed=None`` path is rejected at this
    boundary rather than silently producing an unrepeatable run.
    """
    from repro.core.config import EngineConfig
    from repro.engine.jobs import BatchJob

    if seed is None:
        raise ConfigError(
            "scenario runs are reproducible by contract; pass an integer "
            "seed (seed=None would draw OS entropy)"
        )
    scenario = get_scenario(name)
    merged = scenario.params_dict()
    merged.update(params or {})
    return BatchJob.create(
        scenario.tokens,
        solver=solver if solver is not None else scenario.solver,
        params=merged,
        engine=EngineConfig(replicas=replicas, workers=workers, seed=seed),
    )


# ----------------------------------------------------------------------
# Built-in registry: size ladders n=500..5000 per geometry family, the
# paper-scale TSPLIB registry, and cross-family mixes.  Seeds are fixed
# so every scenario is reproducible bit-for-bit.
# ----------------------------------------------------------------------

_LADDER = (500, 1000, 2000, 5000)

for _family, _blurb in (
    ("clustered", "Gaussian city blobs — the hierarchical solver's home turf"),
    ("grid", "jittered PCB drill grids (pcb*-style geometry)"),
    ("ring", "concentric rings — clustering must cut each ring somewhere"),
    ("power_law", "power-law hub populations — maximally unbalanced clusters"),
):
    register_scenario(
        f"{_family.replace('_', '')}-ladder",
        f"{_family} ladder n={_LADDER[0]}..{_LADDER[-1]}: {_blurb}",
        tokens=[f"{_family}:{n}:{i + 1}" for i, n in enumerate(_LADDER)],
    )

register_scenario(
    "paper-small",
    "the paper's quality-reported TSPLIB range (syn76..syn262)",
    tokens=[str(size) for size in BENCHMARK_SIZES if size <= 262],
)

register_scenario(
    "tsplib-mid",
    "TSPLIB-matched registry mid-range (syn318..syn2392)",
    tokens=[str(size) for size in BENCHMARK_SIZES if 262 < size <= 2392],
)

register_scenario(
    "mixed-1k",
    "one n=1000 instance of every synthetic family at a common seed",
    tokens=[
        "uniform:1000:42", "clustered:1000:42", "grid:1000:42",
        "drilling:1000:42", "ring:1000:42", "power_law:1000:42",
    ],
)

register_scenario(
    "wavefront-stress",
    "two n=5000 instances maximizing per-level wavefront width",
    tokens=["clustered:5000:7", "power_law:5000:7"],
    params={"sweeps": 60},
)

# Scale ladder: coords-only instances far above the full-matrix guard.
# Solved sparse (candidate-list two_opt) — no (n, n) array exists at
# any point, which is the whole contract of these scenarios.
register_scenario(
    "scale-clustered",
    "sparse-mode scale ladder: clustered n=50k and n=100k, coords-only",
    tokens=["clustered:50000:7", "clustered:100000:7"],
    solver="two_opt",
    params={"k": 6, "max_rounds": 2},
)

register_scenario(
    "scale-powerlaw",
    "sparse-mode scale ladder: power-law n=50k and n=100k, coords-only",
    tokens=["power_law:50000:7", "power_law:100000:7"],
    solver="two_opt",
    params={"k": 6, "max_rounds": 2},
)
