#!/usr/bin/env python
"""CI portfolio smoke: racing wins, bit-identical reruns, warm starts.

Three gates, any of which failing is a real regression:

1. **Racing buys quality.**  At an equal budget the portfolio result
   must be at least as good as the worst single arm, and strictly
   better whenever the arms are distinguishable (different lengths) —
   otherwise the racing driver is not actually picking.
2. **Determinism.**  Two identical portfolio solves return the same
   winner label, the same tour hash, and byte-identical win ledgers.
3. **Warm starts over HTTP.**  Against a real ``make_server`` on an
   ephemeral port, solving an instance and then a geometrically
   similar one must produce a ``warm_start`` provenance field and a
   nonzero ``repro_warm_starts_total`` in ``GET /metrics``.

Usage::

    python tools/portfolio_smoke.py            # defaults: n=120, 1.0 s
    python tools/portfolio_smoke.py --n 200 --budget 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _race_gates(n: int, budget: float, seed: int) -> int:
    from repro.engine.portfolio import solve_portfolio
    from repro.tsp.generators import clustered_instance
    from repro.utils.hashing import tour_hash

    instance = clustered_instance(n, seed=seed)
    first = solve_portfolio(instance, seed=seed, budget_seconds=budget)
    second = solve_portfolio(instance, seed=seed, budget_seconds=budget)

    # Gate 2: bit-identical reruns (winner, tour, ledger).
    if first.winner.label != second.winner.label:
        return _fail(f"winners differ across reruns: "
                     f"{first.winner.label} vs {second.winner.label}")
    hash_a, hash_b = tour_hash(first.order), tour_hash(second.order)
    if hash_a != hash_b:
        return _fail(f"tour hashes differ across reruns: {hash_a} vs {hash_b}")
    if first.ledger() != second.ledger():
        return _fail("win ledgers differ across reruns")

    # Gate 1: portfolio vs the worst fixed arm at the same budget.
    lengths = [o.length for o in first.outcomes if o.status == "completed"]
    if len(lengths) < 2:
        return _fail(f"budget {budget}s admitted only {len(lengths)} arm(s); "
                     f"raise --budget so the race is a race")
    worst = max(lengths)
    if first.length > worst:
        return _fail(f"portfolio ({first.length:.1f}) lost to the worst "
                     f"arm ({worst:.1f})")
    if len(set(lengths)) > 1 and not first.length < worst:
        return _fail(f"arms are distinguishable ({sorted(lengths)}) but the "
                     f"portfolio did not beat the worst")
    print(f"race OK: n={n} budget={budget}s winner={first.winner.label} "
          f"length={first.length:.1f} worst_arm={worst:.1f} "
          f"arms={len(lengths)} hash={hash_a}")
    return 0


def _http_warm_gate(n: int, budget: float, seed: int) -> int:
    import numpy as np

    from repro.service.http import make_server
    from repro.service.queue import SolveService

    service = SolveService()
    server = make_server(service, port=0)
    service.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    base = f"http://{host}:{port}"

    def call(path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            base + path, data=data,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=300) as response:
            return json.load(response)

    def solve(name: str, coords) -> dict:
        view = call("/solve", {
            "coords": [[float(x), float(y)] for x, y in coords],
            "name": name,
            "portfolio": True,
            "deadline_seconds": budget,
            "seed": seed,
        })
        if view["status"] in ("queued", "running"):
            view = call(f"/jobs/{view['job_id']}?wait=300")
        if view["status"] != "done":
            raise RuntimeError(f"job ended {view['status']!r}: "
                               f"{view.get('error')}")
        return view

    try:
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 100.0, size=(n, 2))
        cold = solve("smoke-cold", coords)
        warm = solve("smoke-warm", coords + 1e-6)
        metrics = call("/metrics")
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        service.close()

    if "warm_start" in cold["result"]:
        return _fail("first solve cannot be warm-started")
    source = warm["result"].get("warm_start")
    if source != cold["fingerprint"][:16]:
        return _fail(f"warm solve carries warm_start={source!r}, expected "
                     f"{cold['fingerprint'][:16]!r}")
    warm_hits = metrics.get("repro_warm_starts_total", 0)
    if not warm_hits:
        return _fail("repro_warm_starts_total is zero after a warm solve")
    arms = metrics.get("repro_portfolio_arms_total", 0)
    wins = metrics.get("repro_portfolio_wins_total", {})
    if not arms or sum(wins.values()) != 2:
        return _fail(f"portfolio counters off: arms={arms} wins={wins}")
    print(f"warm start OK: source={source} warm_hits={warm_hits} "
          f"arms={arms} wins={wins}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=120,
                        help="clustered instance size for the race gates")
    parser.add_argument("--budget", type=float, default=1.0,
                        help="portfolio compute budget (seconds)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    status = _race_gates(args.n, args.budget, args.seed)
    if status:
        return status
    status = _http_warm_gate(40, 0.5, args.seed)
    if status:
        return status
    print("portfolio smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
