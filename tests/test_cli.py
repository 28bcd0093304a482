"""Tests for the command-line interface."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.workflow == "LV"
        assert args.objective == "computer_time"
        assert args.budget == 50
        assert args.algorithm == "ceal"

    def test_reproduce_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce"])

    def test_reproduce_jobs_flag(self):
        args = build_parser().parse_args(
            ["reproduce", "--target", "fig05", "--jobs", "auto"]
        )
        assert args.jobs == "auto"
        args = build_parser().parse_args(["reproduce", "--target", "fig05"])
        assert args.jobs is None

    def test_invalid_workflow_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--workflow", "XX"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_store_flags(self):
        args = build_parser().parse_args(
            ["tune", "--store", "runs.db", "--warm-start", "components"]
        )
        assert args.store == "runs.db"
        assert args.warm_start == "components"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--warm-start", "sideways"])

    def test_store_subcommand(self):
        args = build_parser().parse_args(["store", "stats", "runs.db"])
        assert args.action == "stats"
        assert args.path == "runs.db"
        args = build_parser().parse_args(
            ["store", "gc", "runs.db", "--keep-sessions", "2"]
        )
        assert args.keep_sessions == 2

    def test_suite_subcommand(self):
        args = build_parser().parse_args(
            [
                "suite", "run", "spec.toml",
                "--store", "runs.db",
                "--jobs", "auto",
                "--max-cells", "3",
                "--report", "out.json",
            ]
        )
        assert args.action == "run"
        assert args.spec == "spec.toml"
        assert args.store == "runs.db"
        assert args.jobs == "auto"
        assert args.max_cells == 3
        assert args.report_path == "out.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "retry", "spec.toml"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "run"])


class TestTuneCommand:
    @pytest.mark.parametrize("algorithm", ["rs", "al", "ceal"])
    def test_tune_runs_and_reports(self, algorithm):
        out = io.StringIO()
        code = main(
            [
                "tune",
                "--workflow", "LV",
                "--objective", "execution_time",
                "--budget", "10",
                "--pool-size", "150",
                "--algorithm", algorithm,
                "--use-history",
                "--seed", "7",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "recommended configuration" in text
        assert "lammps.procs" in text
        assert "gap" in text

    def test_tune_accepts_every_served_algorithm(self):
        from repro.serve.specs import ALGORITHMS

        for kind in ("lowfid", "bandit"):
            out = io.StringIO()
            code = main(
                [
                    "tune",
                    "--workflow", "LV",
                    "--objective", "execution_time",
                    "--budget", "8",
                    "--pool-size", "100",
                    "--algorithm", kind,
                    "--seed", "7",
                ],
                out=out,
            )
            assert code == 0
            assert f"algorithm     : {kind}" in out.getvalue()
            assert kind in ALGORITHMS

    def test_tune_rejects_unknown_algorithm(self):
        assert main(["tune", "--algorithm", "sideways"], out=io.StringIO()) == 2


class TestStoreWorkflow:
    """The two-session CLI story: record, then warm-start."""

    BASE = [
        "tune",
        "--workflow", "LV",
        "--objective", "execution_time",
        "--budget", "20",
        "--pool-size", "150",
        "--seed", "7",
    ]

    def test_record_then_warm_start(self, tmp_path):
        db = str(tmp_path / "runs.db")
        out = io.StringIO()
        assert main(self.BASE + ["--store", db], out=out) == 0
        assert f"store         : {db}" in out.getvalue()

        out = io.StringIO()
        code = main(
            self.BASE + ["--store", db, "--warm-start", "components"],
            out=out,
        )
        assert code == 0
        assert "warm start    : components (solo samples reused 20" in (
            out.getvalue()
        )

    def test_warm_start_requires_store(self):
        code = main(
            self.BASE + ["--warm-start", "components"], out=io.StringIO()
        )
        assert code == 2

    def test_store_stats_gc_export(self, tmp_path):
        db = str(tmp_path / "runs.db")
        assert main(self.BASE + ["--store", db], out=io.StringIO()) == 0

        out = io.StringIO()
        assert main(["store", "stats", db], out=out) == 0
        stats = json.loads(out.getvalue())
        assert stats["workflow_measurements"] > 0
        assert stats["component_measurements"] > 0

        out = io.StringIO()
        assert main(["store", "export", db], out=out) == 0
        dump = json.loads(out.getvalue())
        assert len(dump["measurements"]) == (
            stats["workflow_measurements"] + stats["component_measurements"]
        )

        out = io.StringIO()
        assert main(["store", "gc", db, "--keep-sessions", "0"], out=out) == 0
        deleted = json.loads(out.getvalue())
        assert deleted["measurements"] == len(dump["measurements"])

    def test_store_missing_file_errors(self, tmp_path):
        code = main(
            ["store", "stats", str(tmp_path / "nope.db")], out=io.StringIO()
        )
        assert code == 2


needs_toml = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None
    and importlib.util.find_spec("tomli") is None,
    reason="no TOML parser on this Python (3.10 without tomli)",
)


class TestSuiteCommand:
    TOML_SPEC = str(
        Path(__file__).parent.parent / "examples" / "suites" / "smoke.toml"
    )

    # The committed smoke.toml as JSON (specs are format-agnostic), so
    # the CLI flow tests run on Python 3.10 where tomllib is missing.
    SMOKE = {
        "suite": {
            "name": "smoke", "repeats": 2, "pool_size": 150,
            "pool_seeds": [7],
        },
        "factors": {
            "workflows": ["LV"],
            "objectives": ["execution_time"],
            "budgets": [8],
        },
        "algorithms": [
            {"name": "RS", "kind": "rs"},
            {"name": "CEAL", "kind": "ceal", "params": {"use_history": True}},
        ],
    }

    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(self.SMOKE))
        return str(path)

    @needs_toml
    def test_committed_toml_example_runs(self, tmp_path):
        db = str(tmp_path / "suite.db")
        out = io.StringIO()
        code = main(["suite", "run", self.TOML_SPEC, "--store", db], out=out)
        assert code == 0
        assert json.loads(out.getvalue())["suite"] == "smoke"

    def test_run_then_resume_from_store(self, spec_path, tmp_path):
        db = str(tmp_path / "suite.db")
        report_path = tmp_path / "report.json"

        out = io.StringIO()
        code = main(
            [
                "suite", "run", spec_path,
                "--store", db,
                "--report", str(report_path),
            ],
            out=out,
        )
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["schema_version"] == 1
        assert report["suite"] == "smoke"
        assert report["cells"] == 4
        assert json.loads(report_path.read_text()) == report

        # Everything cached now: resume re-reports identical bytes.
        out = io.StringIO()
        assert main(["suite", "resume", spec_path, "--store", db], out=out) == 0
        assert json.loads(out.getvalue()) == report

        out = io.StringIO()
        assert main(["suite", "report", spec_path, "--store", db], out=out) == 0
        assert json.loads(out.getvalue()) == report

    def test_partial_run_warns_then_completes(self, spec_path, tmp_path):
        db = str(tmp_path / "suite.db")
        out = io.StringIO()
        code = main(
            ["suite", "run", spec_path, "--store", db, "--max-cells", "1"],
            out=out,
        )
        assert code == 0
        assert out.getvalue() == ""  # incomplete → no report on stdout

        # 'report' refuses while cells are pending...
        assert main(
            ["suite", "report", spec_path, "--store", db], out=io.StringIO()
        ) == 2
        # ...and 'resume' finishes the matrix.
        out = io.StringIO()
        assert main(["suite", "resume", spec_path, "--store", db], out=out) == 0
        assert json.loads(out.getvalue())["cells"] == 4

    def test_resume_and_report_require_store(self):
        # Store validation precedes spec loading, so a dummy path is fine.
        assert main(["suite", "resume", "spec.toml"], out=io.StringIO()) == 2
        assert main(["suite", "report", "spec.toml"], out=io.StringIO()) == 2

    def test_report_requires_existing_store(self, tmp_path):
        code = main(
            ["suite", "report", "spec.toml", "--store", str(tmp_path / "no.db")],
            out=io.StringIO(),
        )
        assert code == 2

    def test_record_measurements_requires_store(self):
        code = main(
            ["suite", "run", "spec.toml", "--record-measurements"],
            out=io.StringIO(),
        )
        assert code == 2

    def test_bad_spec_path_errors(self, tmp_path):
        code = main(
            ["suite", "run", str(tmp_path / "missing.toml")],
            out=io.StringIO(),
        )
        assert code == 2


class TestReproduceCommand:
    def test_reproduce_table1(self):
        out = io.StringIO()
        code = main(["reproduce", "--target", "table1"], out=out)
        assert code == 0
        assert "Table 1" in out.getvalue()

    def test_reproduce_fig04(self):
        out = io.StringIO()
        code = main(
            ["reproduce", "--target", "fig04", "--seed", "7"], out=out
        )
        assert code == 0
        assert "Fig. 4" in out.getvalue()
