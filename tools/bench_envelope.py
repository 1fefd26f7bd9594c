"""Fold an alternating-pair perfbench campaign into ``BENCH_<parent-rev>.json``.

Run ``perfbench/run.py`` for the same workloads and seeds in a checkout
of the parent commit and in one of the change, then::

    python tools/bench_envelope.py PARENT/perfbench/out CHANGE/perfbench/out \\
        --parent-rev 16f1a82 --change-rev "working tree"

Metric names, units, directions and regression bounds come from
``BENCHMARK.json`` (read, never written).  For each workload, over the
seeds both sides ran, the envelope records:

* each end-to-end metric's median and quartiles per side, the ratio of
  the medians, the pairs the change won (ties count for neither) and a
  verdict: ``regression`` (worse than its bound), ``gain`` (at least
  9/10 of the pairs won and a median gap wider than the parent's IQR),
  ``unresolved`` (the parent's own spread exceeds the bound), or
  ``within bound``;
* failed and attempted operations per side;
* per-seed tour-hash equality (for ``serve-*``, the request digest and
  the cold hashes both sides answered);
* per-layer medians and deltas of the ``--trace 1`` records, where
  both sides have them for a seed.

The envelope is also named ``BENCH_<rev>.json`` but has no ``entries``
key: it is not a ``repro bench`` payload, and no tool reads it as one.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = "bench-envelope/1"

#: Share of the pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9

_RECORD = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_records(out_dir: Path) -> dict[tuple[str, int, int], dict]:
    """``(workload, seed, trace) -> record`` for every record in ``out_dir``."""
    records = {}
    for path in sorted(Path(out_dir).glob("*-seed*-trace*.json")):
        match = _RECORD.match(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            records[key] = json.loads(path.read_text())
    return records


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare_metric(parent: list[float], change: list[float], better: str,
                   bound: float) -> dict:
    """One end-to-end metric over paired runs (``parent[i]`` vs ``change[i]``)."""
    lower = better == "lower"
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    gap = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    limit = p["median"] * (1 + bound if lower else 1 - bound)
    if (c["median"] > limit) if lower else (c["median"] < limit):
        verdict = "regression"
    elif wins >= WIN_SHARE * len(parent) and gap > iqr:
        verdict = "gain"
    elif p["median"] and iqr / abs(p["median"]) > bound and not (
        (max(change) < min(parent)) if lower else (min(change) > max(parent))
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "wins": wins,
        "pairs": len(parent),
        "median_gap": gap,
        "parent_iqr": iqr,
        "verdict": verdict,
    }


def hash_equality(workload: str, parent: dict, change: dict) -> dict:
    """Whether one seed's tours agree on both sides."""
    if workload.startswith("serve"):
        cold_p, cold_c = parent.get("tour_hashes") or {}, change.get("tour_hashes") or {}
        common = sorted(set(cold_p) & set(cold_c), key=int)
        equal = sum(cold_p[k] == cold_c[k] for k in common)
        digest_equal = parent.get("tour_hash_digest") == change.get("tour_hash_digest")
        return {
            "digest_equal": digest_equal,
            "cold_common": len(common),
            "cold_equal": equal,
            "equal": digest_equal and equal == len(common),
        }
    hashes_p = sorted(set(parent.get("tour_hashes") or []))
    hashes_c = sorted(set(change.get("tour_hashes") or []))
    return {"parent": hashes_p, "change": hashes_c,
            "equal": bool(hashes_p) and hashes_p == hashes_c}


def envelope(parent_dir: Path, change_dir: Path, spec: dict, *,
             parent_rev: str, change_rev: str) -> dict:
    """The envelope of every workload both directories ran."""
    parent, change = load_records(parent_dir), load_records(change_dir)
    workloads = {}
    for item in spec["workloads"]:
        name = item["name"]
        seeds = sorted(
            seed for (w, seed, trace) in parent
            if w == name and trace == 0 and (w, seed, 0) in change
        )
        traced = sorted(
            seed for (w, seed, trace) in parent
            if w == name and trace == 1 and (w, seed, 1) in change
        )
        if not seeds and not traced:
            continue
        runs_p = [parent[(name, s, 0)] for s in seeds]
        runs_c = [change[(name, s, 0)] for s in seeds]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            pairs = [
                (a["end_to_end"].get(key), b["end_to_end"].get(key))
                for a, b in zip(runs_p, runs_c)
            ]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
            if pairs:
                end_to_end[key] = {
                    "unit": metric["unit"], "better": metric["better"],
                    "bound": metric["bound"],
                    **compare_metric([a for a, _ in pairs], [b for _, b in pairs],
                                     metric["better"], metric["bound"]),
                }
        hashes = {
            str(s): hash_equality(name, a, b) for s, a, b in zip(seeds, runs_p, runs_c)
        }
        per_layer = {}
        for metric in spec["per_layer"]:
            key = metric["name"]
            values = [
                (parent[(name, s, 1)]["per_layer"].get(key),
                 change[(name, s, 1)]["per_layer"].get(key))
                for s in traced
            ]
            values = [(a, b) for a, b in values if a is not None and b is not None]
            if values:
                a = statistics.median(v for v, _ in values)
                b = statistics.median(v for _, v in values)
                per_layer[key] = {
                    "unit": metric["unit"], "better": metric["better"],
                    "parent": a, "change": b, "delta": b - a,
                    "ratio": b / a if a else None,
                }
        workloads[name] = {
            "seeds": seeds,
            "traced_seeds": traced,
            "end_to_end": end_to_end,
            "failed": {
                side: {"failed": sum(r.get("failed", 0) for r in runs),
                       "attempted": sum(r.get("attempted", 0) for r in runs)}
                for side, runs in (("parent", runs_p), ("change", runs_c))
            },
            "tour_hashes": {
                "equal": sum(h["equal"] for h in hashes.values()),
                "compared": len(hashes),
                "seeds": hashes,
            },
            "per_layer": per_layer,
        }
    return {
        "schema": SCHEMA,
        "parent": parent_rev,
        "change": change_rev,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_out", type=Path, help="the parent's perfbench/out/")
    parser.add_argument("change_out", type=Path, help="the change's perfbench/out/")
    parser.add_argument("--parent-rev", required=True, help="the parent commit")
    parser.add_argument("--change-rev", default="working tree",
                        help="label of the change (default: %(default)s)")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    for directory in (args.parent_out, args.change_out):
        if not directory.is_dir():
            raise SystemExit(f"no such directory: {directory}")
    result = envelope(
        args.parent_out, args.change_out, json.loads(args.benchmark.read_text()),
        parent_rev=args.parent_rev, change_rev=args.change_rev,
    )
    if not result["workloads"]:
        raise SystemExit("no workload ran on both sides")
    path = args.out_dir / f"BENCH_{args.parent_rev}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for name, data in result["workloads"].items():
        hashes = data["tour_hashes"]
        print(f"{name}: {len(data['seeds'])} pairs, "
              f"hashes equal {hashes['equal']}/{hashes['compared']}")
        for key, metric in data["end_to_end"].items():
            ratio = metric["ratio"]
            print(f"  {key:<12s} {metric['parent']['median']:.4g} -> "
                  f"{metric['change']['median']:.4g} "
                  f"({'n/a' if ratio is None else f'{ratio:.3f}x'}, "
                  f"{metric['wins']}/{metric['pairs']} won, {metric['verdict']})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
