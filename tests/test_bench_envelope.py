"""Tests for the alternating-pair envelope tool (tools/bench_envelope.py)."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_envelope",
    Path(__file__).resolve().parent.parent / "tools" / "bench_envelope.py",
)
bench_envelope = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_envelope)

SPEC = {
    "workloads": [{"name": "taxi-syn1060"}, {"name": "serve-2shard"}],
    "end_to_end": [
        {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "kernels.anneal_s", "unit": "s", "better": "lower"},
        {"name": "macro.position_steps", "unit": "count", "better": "lower"},
    ],
}


def _write(directory, workload, seed, trace, **record):
    directory.mkdir(exist_ok=True)
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"attempted": 4, "failed": 0, **record}))


def _campaign(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        before = 1.0 + seed / 100
        # Seed 10 ties on solve_s and loses on req_per_s; seed 3's tour differs.
        _write(parent, "taxi-syn1060", seed, 0, tour_hashes=["aa", "aa"],
               end_to_end={"solve_s": before, "req_per_s": 1.0})
        _write(change, "taxi-syn1060", seed, 0,
               tour_hashes=["bb"] if seed == 3 else ["aa"],
               end_to_end={"solve_s": before if seed == 10 else 0.25,
                           "req_per_s": 0.5 if seed == 10 else 4.0})
    _write(parent, "taxi-syn1060", 11, 1,
           per_layer={"kernels.anneal_s": 4.0, "macro.position_steps": 10})
    _write(change, "taxi-syn1060", 11, 1,
           per_layer={"kernels.anneal_s": 1.0, "macro.position_steps": 10})
    _write(parent, "taxi-syn1060", 12, 0, end_to_end={"solve_s": 9.0})  # parent only
    for seed, failed in ((1, 0), (2, 1)):
        _write(parent, "serve-2shard", seed, 0, attempted=100, failed=0,
               tour_hashes={"0": "x", "1": "y", "4": "z"},
               tour_hash_digest=[32, "d"], end_to_end={"solve_s": 0.06})
        _write(change, "serve-2shard", seed, 0, attempted=150, failed=failed,
               tour_hashes={"0": "x", "1": "y", "7": "w"},
               tour_hash_digest=[32, "d"], end_to_end={"solve_s": 0.02})
    return parent, change


class TestEnvelope:
    def test_pairs_wins_hashes_and_layers(self, tmp_path):
        parent, change = _campaign(tmp_path)
        result = bench_envelope.envelope(
            parent, change, SPEC, parent_rev="abc1234", change_rev="wt"
        )
        taxi = result["workloads"]["taxi-syn1060"]
        assert taxi["seeds"] == list(range(1, 11))  # seed 12 ran on one side only
        solve = taxi["end_to_end"]["solve_s"]
        assert solve["pairs"] == 10
        assert solve["wins"] == 9  # the tie counts for neither side
        assert solve["verdict"] == "gain"
        assert solve["change"]["median"] == 0.25
        rate = taxi["end_to_end"]["req_per_s"]
        assert rate["wins"] == 9 and rate["verdict"] == "gain"

        hashes = taxi["tour_hashes"]
        assert hashes["compared"] == 10 and hashes["equal"] == 9
        assert hashes["seeds"]["3"]["equal"] is False
        assert hashes["seeds"]["4"]["equal"] is True

        layer = taxi["per_layer"]["kernels.anneal_s"]
        assert (layer["parent"], layer["change"], layer["delta"]) == (4.0, 1.0, -3.0)
        assert taxi["per_layer"]["macro.position_steps"]["delta"] == 0
        assert taxi["traced_seeds"] == [11]

        serve = result["workloads"]["serve-2shard"]
        assert serve["failed"] == {
            "parent": {"failed": 0, "attempted": 200},
            "change": {"failed": 1, "attempted": 300},
        }
        seed = serve["tour_hashes"]["seeds"]["1"]
        assert (seed["cold_common"], seed["cold_equal"], seed["digest_equal"]) == (2, 2, True)

    def test_ties_count_for_neither_and_regressions_show(self):
        metric = bench_envelope.compare_metric([1.0, 1.0, 1.0], [1.0, 1.5, 1.5], "lower", 0.25)
        assert metric["wins"] == 0
        assert metric["verdict"] == "regression"
        metric = bench_envelope.compare_metric([1.0, 1.0], [1.1, 1.1], "lower", 0.25)
        assert metric["verdict"] == "within bound"

    def test_main_writes_an_envelope_the_trajectory_ignores(self, tmp_path, capsys):
        parent, change = _campaign(tmp_path)
        spec = tmp_path / "BENCHMARK.json"
        spec.write_text(json.dumps(SPEC))
        out = tmp_path / "out"
        out.mkdir()
        assert bench_envelope.main([
            str(parent), str(change), "--parent-rev", "abc1234",
            "--benchmark", str(spec), "--out-dir", str(out),
        ]) == 0
        written = json.loads((out / "BENCH_abc1234.json").read_text())
        assert written["schema"] == bench_envelope.SCHEMA
        assert "entries" not in written
        assert "hashes equal 9/10" in capsys.readouterr().out
