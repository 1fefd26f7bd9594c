"""Golden-regression harness: pinned tours for every registry solver.

Each registry solver is run on three small instances at a fixed seed;
the resulting tour (order *and* length) is pinned in a JSON fixture
under ``tests/golden/``.  Any drift — an accidental RNG-stream change,
a kernel edit that silently alters results, a pipeline rewire — fails
here with a precise diff of what moved.

Intentional changes are re-pinned with::

    pytest tests/test_golden.py --update-golden

and the fixture diff is then reviewed like any other code change.  The
instances stay at n <= 13 so even the Held-Karp ``exact`` solver runs.
"""

import json
from pathlib import Path

import pytest

from repro.engine import solve_with, solver_names
from repro.tsp.generators import clustered_instance, grid_instance, uniform_instance

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed master seed for every golden solve.
GOLDEN_SEED = 7

#: The three pinned instances (small enough for the exact solver).
GOLDEN_INSTANCES = {
    "uniform12": lambda: uniform_instance(12, seed=101),
    "clustered13": lambda: clustered_instance(13, seed=202),
    "grid13": lambda: grid_instance(13, seed=303),
}

#: Per-solver parameters: keep stochastic solves short but non-trivial.
GOLDEN_PARAMS = {
    "taxi": {"sweeps": 40},
    "hvc": {"sweeps": 40},
    "ima": {"sweeps": 40},
    "cima": {"sweeps": 40},
    "neuro_ising": {"sweeps": 40},
    "sa_tsp": {"sweeps": 40},
    # mode="best" is bit-reproducible (budget enforced at plan time),
    # so the racing portfolio pins golden tours like any fixed solver.
    "portfolio": {"budget_seconds": 0.5},
}


def _golden_path(solver: str) -> Path:
    return GOLDEN_DIR / f"{solver}.json"


def _solve(solver: str, instance_key: str):
    instance = GOLDEN_INSTANCES[instance_key]()
    params = GOLDEN_PARAMS.get(solver, {})
    tour = solve_with(solver, instance, seed=GOLDEN_SEED, **params)
    return {
        "length": float(tour.length),
        "order": [int(c) for c in tour.order],
    }


@pytest.mark.parametrize("instance_key", sorted(GOLDEN_INSTANCES))
@pytest.mark.parametrize("solver", solver_names())
def test_golden_tours(solver, instance_key, update_golden):
    path = _golden_path(solver)
    actual = _solve(solver, instance_key)

    if update_golden:
        pinned = json.loads(path.read_text()) if path.exists() else {}
        pinned[instance_key] = actual
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n"
        )
        return
    _assert_pinned(solver, instance_key, actual)


@pytest.mark.parametrize("instance_key", sorted(GOLDEN_INSTANCES))
@pytest.mark.parametrize("solver", solver_names())
def test_golden_tours_on_numpy_sweeps(solver, instance_key, numpy_sweeps):
    """The NumPy sweep loop and Ward chain reproduce the same pinned tours."""
    _assert_pinned(solver, instance_key, _solve(solver, instance_key))


def _assert_pinned(solver: str, instance_key: str, actual: dict) -> None:
    path = _golden_path(solver)
    assert path.exists(), (
        f"missing golden fixture {path.name}; "
        "run `pytest tests/test_golden.py --update-golden`"
    )
    pinned = json.loads(path.read_text())
    assert instance_key in pinned, (
        f"{path.name} has no entry for {instance_key}; "
        "run `pytest tests/test_golden.py --update-golden`"
    )
    expected = pinned[instance_key]
    assert actual["order"] == expected["order"], (
        f"{solver} drifted on {instance_key}: tour changed "
        f"(pinned length {expected['length']}, got {actual['length']}). "
        "If intentional, re-pin with --update-golden and review the diff."
    )
    assert actual["length"] == pytest.approx(expected["length"])


def test_golden_fixtures_cover_every_solver():
    """A solver added to the registry must be pinned here too."""
    missing = [s for s in solver_names() if not _golden_path(s).exists()]
    assert not missing, (
        f"registry solvers without golden fixtures: {missing}; "
        "run `pytest tests/test_golden.py --update-golden`"
    )
