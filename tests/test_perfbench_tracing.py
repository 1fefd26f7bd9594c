"""The benchmark's tracer contract with ``src/``.

``perfbench/tracing.py`` attributes time to layers by wrapping public
names where their callers look them up (``repro.core.solver.
build_hierarchy``, ``repro.macro.batch.anneal_group_fast``, ...).  A
rename in ``src/`` would not break the benchmark; its per-layer metrics
would silently read 0.  This test installs the probes and runs a small
TAXI solve, so such a rename fails here instead.  It runs in a fresh
interpreter because the probes patch modules process-wide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import TaxiProbes, Tracer, totals

tracer = Tracer(run="solve")
TaxiProbes(tracer).install()
from repro.core.config import TAXIConfig
from repro.core.solver import TAXISolver
from repro.tsp.benchmarks import load_benchmark

TAXISolver(TAXIConfig(sweeps=10)).solve(load_benchmark("syn101"))
print(json.dumps(sorted(totals(tracer.spans))))
"""

#: Spans the benchmark's per-layer metrics are computed from.
LAYER_SPANS = (
    "clustering.hierarchy",
    "pipeline.solve_hierarchical",
    "clustering.fixing",
    "kernels.anneal",
)


def test_taxi_probes_record_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    recorded = set(json.loads(done.stdout.strip().splitlines()[-1]))
    missing = [span for span in LAYER_SPANS if span not in recorded]
    assert not missing, f"tracer recorded no {missing} spans: {sorted(recorded)}"
