"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.tsp.generators import uniform_instance
from repro.tsp.tsplib import write_tsplib


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "--size", "76"])
        assert args.size == 76
        assert args.bits == 4
        assert args.cluster_size == 12

    def test_mutually_exclusive_instance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--size", "76", "--tsplib", "x.tsp"]
            )


class TestCommands:
    def test_solve_benchmark(self, capsys):
        code = main(["solve", "--size", "76", "--sweeps", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tour length" in out
        assert "syn76" in out

    def test_solve_reports_macro_sweep_path(self, capsys):
        from repro.kernels.macro import sweep_path

        assert main(["solve", "--size", "76", "--sweeps", "20"]) == 0
        assert f"macro sweep   : {sweep_path()}\n" in capsys.readouterr().out

    def test_solve_reports_numpy_fallback(self, capsys, numpy_sweeps):
        assert main(["solve", "--size", "76", "--sweeps", "20"]) == 0
        out = capsys.readouterr().out
        assert "macro sweep   : numpy (disabled by test)\n" in out

    def test_solve_reports_ward_chain(self, capsys):
        from repro.clustering.agglomerative import ward_path

        assert main(["solve", "--size", "76", "--sweeps", "20"]) == 0
        assert f"ward chain    : {ward_path()}\n" in capsys.readouterr().out

    def test_solve_reports_numpy_ward_chain(self, capsys, numpy_sweeps):
        assert main(["solve", "--size", "76", "--sweeps", "20"]) == 0
        assert "ward chain    : numpy (disabled by test)\n" in capsys.readouterr().out

    def test_kmeans_solve_prints_no_ward_chain(self, capsys):
        assert main(["solve", "--size", "76", "--sweeps", "20", "--clustering", "kmeans"]) == 0
        assert "ward chain" not in capsys.readouterr().out

    def test_solve_tsplib_file(self, tmp_path, capsys):
        inst = uniform_instance(30, seed=3, name="cli30")
        path = tmp_path / "cli30.tsp"
        write_tsplib(inst, path)
        code = main(["solve", "--tsplib", str(path), "--sweeps", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli30" in out

    def test_solve_with_reference(self, capsys):
        code = main(["solve", "--size", "76", "--sweeps", "40", "--reference"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal ratio" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "12 x 60" in out
        assert "Power" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "P_sw" in out
        assert "650" in out

    def test_bench_info(self, capsys):
        assert main(["bench-info"]) == 0
        out = capsys.readouterr().out
        assert "pla85900" in out
        assert "syn76" in out

    def test_compare(self, capsys):
        assert main(["compare", "--size", "76", "--sweeps", "40"]) == 0
        out = capsys.readouterr().out
        for name in ("TAXI", "HVC", "IMA", "CIMA", "Neuro-Ising"):
            assert name in out

    def test_solve_ablation_flags(self, capsys):
        code = main(
            ["solve", "--size", "76", "--sweeps", "40", "--clustering",
             "kmeans", "--no-fixing", "--bits", "2"]
        )
        assert code == 0

    @pytest.mark.smoke
    def test_solve_off_registry_size(self, capsys):
        code = main(["solve", "--size", "52", "--sweeps", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform52 (52 cities)" in out


class TestEngineCommands:
    @pytest.mark.smoke
    def test_batch(self, capsys):
        code = main(
            ["batch", "--instances", "uniform:24:1", "uniform:30:2",
             "--solver", "sa_tsp", "--replicas", "2", "--workers", "1",
             "--sweeps", "20", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform24" in out
        assert "uniform30" in out
        assert "median" in out

    def test_batch_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "batch.csv"
        code = main(
            ["batch", "--instances", "uniform:24:1", "--solver", "sa_tsp",
             "--replicas", "2", "--workers", "1", "--sweeps", "10",
             "--quiet", "--csv", str(csv_path)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("instance,n,solver,replicas,best")
        header = lines[0].split(",")
        # per-replica setup-vs-solve wall-time split (kernel speedups
        # must stay visible in engine output)
        assert "setup_seconds" in header
        assert "solve_seconds" in header
        assert header.index("setup_seconds") < header.index("solve_seconds")
        assert len(lines) == 2
        assert lines[1].startswith("uniform24@1,24,sa_tsp,2,")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["setup_seconds"]) >= 0.0
        assert float(row["solve_seconds"]) > 0.0

    def test_backend_flag_removed(self):
        # Each solver runs one kernel: no command takes --backend.
        commands = (
            ["solve"],
            ["batch"],
            ["sweep", "--param", "sweeps", "--values", "10"],
            ["scenarios"],
        )
        for command in commands:
            build_parser().parse_args(command)
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--backend", "fast"])

    def test_batch_progress_streams_to_stderr(self, capsys):
        code = main(
            ["batch", "--instances", "uniform:24:1", "--solver", "sa_tsp",
             "--replicas", "2", "--workers", "1", "--sweeps", "10"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "replica" in captured.err

    def test_batch_unknown_solver(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown solver"):
            main(["batch", "--instances", "uniform:24:1",
                  "--solver", "nope", "--replicas", "1", "--workers", "1",
                  "--quiet"])

    def test_batch_set_params(self, capsys):
        code = main(
            ["batch", "--instances", "uniform:24:1", "--solver", "two_opt",
             "--replicas", "1", "--workers", "1", "--quiet",
             "--set", "max_rounds=2", "--set", "use_or_opt=false"]
        )
        assert code == 0

    @pytest.mark.smoke
    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--size", "30", "--solver", "sa_tsp", "--param",
             "sweeps", "--values", "10", "20", "--replicas", "2",
             "--workers", "1", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweeps" in out
        assert "median" in out

    @pytest.mark.smoke
    def test_solvers_listing(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("taxi", "sa_tsp", "greedy", "concorde_surrogate"):
            assert name in out


class TestLoadtestCommand:
    def test_loadtest_writes_payload_and_prints_table(self, tmp_path, capsys):
        import json

        target = tmp_path / "loadtest.json"
        code = main([
            "loadtest", "--instances", "uniform:24:3", "--requests", "8",
            "--concurrency", "2", "--solver", "sa_tsp", "--sweeps", "5",
            "--seed", "7", "--out", str(target),
        ])
        out = capsys.readouterr().out
        assert code == 0
        for fragment in ("p50", "p99", "throughput", "cache", "mean batch",
                         "schedule hash", "wrote"):
            assert fragment in out
        payload = json.loads(target.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["kind"] == "loadtest"
        summary = payload["summary"]
        for key in ("p50_seconds", "p95_seconds", "p99_seconds",
                    "requests_per_sec", "cache_hit_rate", "mean_batch_size"):
            assert summary[key] is not None
        assert summary["errors"] == 0
        assert payload["entries"][0]["kind"] == "loadtest"

    def test_loadtest_default_out_uses_prefix(self, tmp_path, capsys):
        code = main([
            "loadtest", "--instances", "uniform:20:1", "--requests", "4",
            "--concurrency", "2", "--solver", "sa_tsp", "--sweeps", "4",
            "--out", str(tmp_path),
        ])
        assert code == 0
        files = list(tmp_path.glob("LOADTEST_*.json"))
        assert len(files) == 1

    def test_loadtest_set_params_and_bad_set_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["loadtest", "--set", "garbage", "--out", str(tmp_path)])


class TestCliDocs:
    def test_generated_cli_reference_matches_parser(self):
        # Drift guard: docs/cli.md is generated from the argparse
        # definitions; any parser change must regenerate it with
        # `python tools/gen_cli_docs.py` (CI runs the same check).
        import importlib.util
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "gen_cli_docs", os.path.join(root, "tools", "gen_cli_docs.py")
        )
        module = importlib.util.module_from_spec(spec)
        columns_before = os.environ.get("COLUMNS")
        try:
            spec.loader.exec_module(module)
            rendered = module.render()
        finally:
            if columns_before is None:
                os.environ.pop("COLUMNS", None)
            else:
                os.environ["COLUMNS"] = columns_before
        with open(os.path.join(root, "docs", "cli.md")) as handle:
            on_disk = handle.read()
        assert on_disk == rendered, (
            "docs/cli.md is stale; regenerate with "
            "`python tools/gen_cli_docs.py`"
        )
