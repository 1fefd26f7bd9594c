"""Tests for the perf-tracking bench harness (repro.engine.bench)."""

import json

import pytest

from repro.engine.bench import git_revision, run_bench, write_bench
from repro.errors import ConfigError

#: A grid small enough for test runs (sub-second) but covering all kinds.
TINY = dict(
    replica_batch_sizes=[24],
    replica_batch_sweeps=8,
    replica_batch_replicas=2,
    scale_sizes=[60],
    portfolio_sizes=[40],
    portfolio_deadlines=[0.2],
    repeats=1,
)


@pytest.fixture(scope="module")
def payload():
    return run_bench(**TINY)


class TestRunBench:
    def test_entry_fields(self, payload):
        for entry in payload["entries"]:
            assert entry["seconds"] > 0
            if entry["kind"] in ("scale", "portfolio"):
                # Scale and portfolio cells are single sweepless
                # racing/local search runs.
                assert entry["sweeps_per_sec"] is None
            else:
                assert entry["sweeps_per_sec"] > 0
                assert entry["sweeps"] > 0
            assert isinstance(entry["quality"], float)
            assert entry["n"] > 0

    def test_payload_metadata(self, payload):
        assert payload["schema"] == "repro-bench/1"
        assert payload["revision"]
        assert payload["platform"]["numpy"]
        assert payload["seed"] == 0

    def test_bad_repeats_rejected(self):
        bad = dict(TINY)
        bad["repeats"] = 0
        with pytest.raises(ConfigError):
            run_bench(**bad)

    def test_empty_grids_skip(self):
        payload = run_bench(
            replica_batch_sizes=[24], scale_sizes=[], portfolio_sizes=[],
            replica_batch_sweeps=5, replica_batch_replicas=2, repeats=1,
        )
        kinds = {e["kind"] for e in payload["entries"]}
        assert kinds == {"replica_batch"}


class TestWriteBench:
    def test_canonical_name_in_directory(self, payload, tmp_path):
        path = write_bench(payload, str(tmp_path))
        assert path.endswith(f"BENCH_{payload['revision']}.json")
        loaded = json.loads(open(path).read())
        assert loaded["entries"] == payload["entries"]

    def test_explicit_json_path(self, payload, tmp_path):
        target = tmp_path / "sub" / "custom.json"
        path = write_bench(payload, str(target))
        assert path == str(target)
        assert json.loads(open(path).read())["schema"] == "repro-bench/1"


class TestHelpers:
    def test_git_revision_nonempty(self):
        assert git_revision()


class TestBenchCLI:
    @pytest.mark.smoke
    def test_bench_command_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "bench", "--replica-batch-sizes", "24",
            "--replica-batch-replicas", "2", "--replica-batch-sweeps", "5",
            "--scale-sizes", "--portfolio-sizes", "40",
            "--portfolio-deadlines", "0.2",
            "--repeats", "1", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out
        assert "wrote" in out
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert {e["kind"] for e in payload["entries"]} == {
            "replica_batch", "portfolio"}


def _checked_payload(bit_identical: bool, matches_best: bool) -> dict:
    """A BENCH payload with one row per checked summary block."""
    return {
        "schema": "repro-bench/1",
        "revision": "test",
        "repeats": 1,
        "entries": [],
        "replica_batch_speedups": [{
            "kind": "replica_batch", "n": 24, "sweeps": 5, "replicas": 2,
            "tasks_seconds": 1.0, "folded_seconds": 0.5, "speedup": 2.0,
            "bit_identical": bit_identical,
        }],
        "scale_curvature": [],
        "portfolio_curves": [{
            "kind": "portfolio", "n": 40, "deadline_seconds": 0.2,
            "portfolio_quality": 10.0,
            "best_arm_quality": 10.0 if matches_best else 9.0,
            "worst_arm_quality": 12.0, "winner": "two_opt@0",
            "arms_raced": 2, "matches_best": matches_best,
            "beats_worst": True,
        }],
    }


class TestBenchExitStatus:
    """``repro bench`` fails when its own correctness checks fail.

    CI gates on the exit code alone, so a false ``bit_identical`` or
    ``matches_best`` row must surface there, not only in the JSON.
    """

    @pytest.mark.parametrize("bit_identical, matches_best, row", [
        (False, True, "replica_batch n=24 replicas=2"),
        (True, False, "portfolio n=40 deadline=0.2s"),
    ], ids=["replica_batch", "portfolio"])
    def test_false_row_exits_nonzero(self, monkeypatch, tmp_path, capsys,
                                     bit_identical, matches_best, row):
        from repro.cli import main

        monkeypatch.setattr(
            "repro.engine.bench.run_bench",
            lambda **_: _checked_payload(bit_identical, matches_best))
        code = main(["bench", "--quick", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code != 0
        assert row in err
        # The JSON is still written, so the failing run can be read.
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 1

    def test_true_rows_exit_zero(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setattr(
            "repro.engine.bench.run_bench",
            lambda **_: _checked_payload(True, True))
        assert main(["bench", "--quick", "--out", str(tmp_path)]) == 0
        assert "check failed" not in capsys.readouterr().err


class TestScaleRssIsolation:
    """Peak-RSS attribution: each scale cell owns its own high-water mark.

    ``ru_maxrss`` is a process-lifetime maximum, so before the per-cell
    subprocess fix a big cell's peak was silently attributed to every
    smaller cell measured after it in the same process.  The ballast
    hook makes the first cell's footprint unambiguous without solving a
    genuinely huge instance.
    """

    def test_small_cell_after_big_reports_its_own_rss(self, monkeypatch):
        from repro.engine.bench import _bench_scale

        # ~120 MiB of resident ballast pinned while cell n=90 solves.
        monkeypatch.setenv("REPRO_BENCH_SCALE_BALLAST", "90:120")
        entries = _bench_scale([90, 70], seed=3)
        # Caller order is preserved (curvature sorts by n itself).
        assert [e["n"] for e in entries] == [90, 70]
        big, small = entries
        # The later, smaller cell must NOT inherit the ballasted peak.
        assert big["peak_rss_bytes"] > 120 * (1 << 20)
        assert small["peak_rss_bytes"] < big["peak_rss_bytes"] - 60 * (1 << 20)

    def test_cells_solve_identically_to_in_process(self):
        from repro.engine.bench import _scale_cell

        entry = _scale_cell(60, seed=3)
        assert entry["kind"] == "scale"
        assert entry["peak_rss_bytes"] > 0
        assert entry["tour_hash"]


class TestPortfolioGrid:
    def test_portfolio_curves_in_payload(self, payload):
        curves = payload["portfolio_curves"]
        assert len(curves) == 1  # one (n, deadline) cell in TINY
        row = curves[0]
        assert row["n"] == 40
        assert row["deadline_seconds"] == 0.2
        # The portfolio picks the minimum over the same seeded arm
        # runs, so it can never lose to the best fixed arm.
        assert row["matches_best"]
        assert row["portfolio_quality"] <= row["best_arm_quality"]
        assert row["arms_raced"] >= 1

    def test_portfolio_cells_deterministic(self):
        from repro.engine.bench import _bench_portfolio

        first = _bench_portfolio([40], [0.2], seed=5)
        second = _bench_portfolio([40], [0.2], seed=5)
        strip = lambda e: {k: v for k, v in e.items()
                           if k not in ("seconds", "sweeps_per_sec", "arms")}
        assert [strip(e) for e in first] == [strip(e) for e in second]
        assert first[0]["winner"] == second[0]["winner"]
        assert first[0]["tour_hash"] == second[0]["tour_hash"]
