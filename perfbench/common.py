"""Shared helpers: locating the program, reference lengths, output checks."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, no references)."""


def program_env() -> dict:
    """Environment for child processes: import ``repro`` from this checkout only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"program sources not found under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources, or fail."""
    program_env()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")


def metric_units(kind: str) -> dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise SetupError(f"missing {spec}")
    return {metric["name"]: metric["unit"]
            for metric in json.loads(spec.read_text())[kind]}


def load_references() -> dict[str, float]:
    """Stored reference tour lengths, keyed by registry instance name."""
    if not REFERENCES.is_file():
        raise SetupError(f"missing {REFERENCES}; run make_references.py")
    with open(REFERENCES) as handle:
        return {name: float(entry["length"])
                for name, entry in json.load(handle)["instances"].items()}


#: TSPLIB rounding of the Euclidean metrics the workloads' instances use.
ROUNDING = {"EUC_2D": np.rint, "CEIL_2D": np.ceil}


def closed_length(coords: np.ndarray, metric: str, order: np.ndarray) -> float:
    """Closed tour length under a TSPLIB metric, computed independently."""
    a = coords[order]
    b = coords[np.roll(order, -1)]
    return float(ROUNDING[metric](np.sqrt(((a - b) ** 2).sum(axis=1))).sum())


def check_tour(coords: np.ndarray, metric: str, order,
               reported_length: float) -> str | None:
    """``None`` when ``order`` is a tour of every city with the reported length."""
    order = np.asarray(order)
    n = coords.shape[0]
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        return f"tour is not a permutation of {n} cities"
    length = closed_length(coords, metric, order)
    if not math.isclose(length, reported_length, rel_tol=1e-9, abs_tol=1e-6):
        return f"recomputed length {length} != reported {reported_length}"
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))
