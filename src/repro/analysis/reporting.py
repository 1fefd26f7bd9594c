"""ASCII tables, batch-run reporting, and the cited comparison constants.

Table II of the paper compares TAXI's energy against numbers *cited*
from the comparator papers (HVC's CPU joules, IMA's and CIMA's
microjoules); only TAXI's column is measured.  Those citation constants
live here so the Table II bench reports them alongside our measured
TAXI energies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import MICRO


def ascii_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Render a fixed-width ASCII table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row!r}"
            )
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(headers[i]).ljust(widths[i]) for i in range(columns)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(row[i]).ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def format_seconds(seconds: float) -> str:
    """Human-scale duration: ns/us/ms/s/min/h/days/years."""
    if seconds < 0:
        raise ValueError(f"seconds must be >= 0, got {seconds}")
    if seconds == 0:
        return "0 s"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.3g} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3g} ms"
    if seconds < 120:
        return f"{seconds:.3g} s"
    minutes = seconds / 60
    if minutes < 120:
        return f"{minutes:.3g} min"
    hours = minutes / 60
    if hours < 48:
        return f"{hours:.3g} h"
    days = hours / 24
    if days < 730:
        return f"{days:.3g} days"
    return f"{days / 365.25:.3g} years"


#: Column order of one batch summary row (table and CSV export).
#: ``batch_wall_seconds`` is the whole job's wall clock (repeated on
#: every row); ``setup_seconds``/``solve_seconds`` split each
#: instance's replica time into solver+instance construction vs the
#: solve proper (so kernel speedups stay visible).
BATCH_COLUMNS = (
    "instance", "n", "solver", "replicas", "best", "median", "p90",
    "mean", "best_seed", "setup_seconds", "solve_seconds",
    "batch_wall_seconds",
)


def batch_rows(results) -> list[list[str]]:
    """Format :class:`~repro.core.result.BatchResult` aggregates as table rows."""
    rows = []
    for result in results:
        summary = result.as_dict()
        rows.append([
            str(summary["instance"]),
            str(summary["n"]),
            str(summary["solver"]),
            str(summary["replicas"]),
            f"{summary['best']:.0f}",
            f"{summary['median']:.0f}",
            f"{summary['p90']:.0f}",
            f"{summary['mean']:.1f}",
            str(summary["best_seed"]),
            format_seconds(summary["setup_seconds"]),
            format_seconds(summary["solve_seconds"]),
            format_seconds(summary["batch_wall_seconds"]),
        ])
    return rows


def batch_table(results, title: str = "") -> str:
    """Render a batch's per-instance aggregates as an ASCII table."""
    return ascii_table(list(BATCH_COLUMNS), batch_rows(results), title=title)


def write_batch_csv(results, path) -> None:
    """Export batch aggregates (one row per instance) as CSV."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BATCH_COLUMNS)
        for result in results:
            summary = result.as_dict()
            writer.writerow([summary[column] for column in BATCH_COLUMNS])


@dataclass(frozen=True)
class CitedEnergy:
    """One comparator row of Table II (as cited by the paper)."""

    system: str
    technology: str
    problem_sizes: tuple[int, ...]
    energies_joules: tuple[float, ...]


#: Table II rows for the comparator systems, straight from the paper.
CITED_ENERGY_TABLE: tuple[CitedEnergy, ...] = (
    CitedEnergy("HVC [4]", "CPU", (101,), (1.1,)),
    CitedEnergy("IMA [6]", "14nm FinFET", (1060,), (20.08 * MICRO,)),
    CitedEnergy(
        "CIMA [7]", "16/14nm CMOS", (33_810, 85_900), (20.0 * MICRO, 45.0 * MICRO)
    ),
)

#: The paper's own Table II TAXI row (for EXPERIMENTS.md comparison).
PAPER_TAXI_ENERGY = {
    1060: 1.81 * MICRO,
    33_810: 2.67 * MICRO,
    85_900: 3.07 * MICRO,
}

#: Including mapping energy (the paper's footnote).
PAPER_TAXI_ENERGY_WITH_MAPPING = {
    1060: 38.7 * MICRO,
    33_810: 302.0 * MICRO,
    85_900: 952.0 * MICRO,
}
