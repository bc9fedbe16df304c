"""Tests for the command-line interface."""

import json
import os
import shutil

import pytest

from repro import cli
from repro.cli import main


class TestChannels:
    def test_prints_table9(self, capsys):
        assert main(["channels"]) == 0
        out = capsys.readouterr().out
        assert "Table 9" in out
        assert "contact points" in out


class TestRunAndReport:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "run"
        code = main([
            "run", "--scale", "0.02", "--iterations", "2",
            "--seed", "123", "--out", str(path),
        ])
        assert code == 0
        return str(path)

    def test_run_saves_dataset_and_meta(self, run_dir, capsys):
        assert os.path.exists(os.path.join(run_dir, "store.json"))
        assert main(["data", "verify", run_dir]) == 0
        with open(os.path.join(run_dir, "study_meta.json")) as handle:
            meta = json.load(handle)
        assert meta["scale"] == 0.02
        assert len(meta["active_per_iteration"]) == 2
        assert "Z2U" in meta["payment_methods"]

    def test_report_renders_all_tables(self, run_dir, capsys):
        assert main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
                       "Table 6", "Table 7", "Table 8", "Table 9",
                       "Figure 2", "Figure 3", "Figure 4", "Figure 5",
                       "underground"):
            assert marker in out, marker

    def test_report_scale_override(self, run_dir, capsys):
        assert main(["report", run_dir, "--scale", "0.02"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_report_missing_run_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1

    def test_run_writes_quarantine_file(self, run_dir):
        path = os.path.join(run_dir, "quarantine.jsonl")
        assert os.path.exists(path)
        # A clean synthetic run dead-letters nothing.
        assert open(path, encoding="utf-8").read() == ""

    def test_report_warns_on_corrupt_line(self, run_dir, tmp_path, capsys):
        corrupt = tmp_path / "corrupt-run"
        shutil.copytree(run_dir, corrupt)
        # One flipped byte in one sealed listings segment: that segment
        # is quarantined, the report renders from the rest.
        segment = sorted((corrupt / "segments").glob("listings-*.seg"))[0]
        payload = bytearray(segment.read_bytes())
        payload[12] ^= 0x01
        segment.write_bytes(bytes(payload))
        assert main(["report", str(corrupt)]) == 0
        captured = capsys.readouterr()
        assert "listings/store_segment_corrupt=1" in captured.err
        assert "Table 1" in captured.out

    @pytest.mark.parametrize("meta", ['{"seed": 99, "scale"', "[1, 2]"],
                             ids=["torn", "non-object"])
    @pytest.mark.parametrize("command", ["report", "figures"])
    def test_unreadable_meta_fails_in_one_line(self, run_dir, tmp_path,
                                                capsys, command, meta):
        # A meta file that is present but unreadable must not fall back
        # to defaults (the wrong scale) or escape as a traceback.
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        (copy / "study_meta.json").write_text(meta)
        argv = [command, str(copy)]
        if command == "figures":
            argv += ["--out", str(tmp_path / "figs")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "study_meta.json" in err[0], err


#: Every command that reads an input, pointed at a missing one (MISSING).
MISSING_INPUT_ARGV = {
    "trace": ["trace", "MISSING"],
    "diff": ["diff", "MISSING", "MISSING"],
    "health": ["health", "MISSING"],
    "data-verify": ["data", "verify", "MISSING"],
    "data-stats": ["data", "stats", "MISSING"],
    "archive-verify": ["archive", "verify", "MISSING"],
    "archive-diff": ["archive", "diff", "MISSING", "0", "1"],
    "runs-ingest": ["runs", "ingest", "MISSING", "--registry", "NEW"],
    "runs-list": ["runs", "list", "--registry", "MISSING"],
    "runs-trends": ["runs", "trends", "--registry", "MISSING"],
    "runs-alerts": ["runs", "alerts", "--registry", "MISSING"],
    "serve-build": ["serve", "build", "MISSING", "--out", "NEW"],
    "serve-query": ["serve", "query", "MISSING", "/api/catalog"],
    "serve-bench": ["serve", "bench", "MISSING", "--clients", "1"],
    "monitor-status": ["monitor", "status", "--state-dir", "MISSING"],
    "bench-compare": ["bench", "--compare", "MISSING"],
}


class TestUnusableInput:
    @pytest.mark.parametrize("name", sorted(MISSING_INPUT_ARGV))
    def test_missing_input_exits_two_in_one_line(self, tmp_path, capsys,
                                                 name):
        paths = {"MISSING": str(tmp_path / "missing"),
                 "NEW": str(tmp_path / "new")}
        argv = [paths.get(arg, arg) for arg in MISSING_INPUT_ARGV[name]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err


#: Output paths a command cannot write.  DIR is an existing directory,
#: FILE an existing regular file, MISSING a path that does not exist.
_SMALL_STUDY = ["--scale", "0.01", "--iterations", "1"]
UNWRITABLE_OUTPUT_ARGV = {
    "run-out": ["run", *_SMALL_STUDY, "--out", "FILE"],
    "run-telemetry-out": ["run", *_SMALL_STUDY, "--out", "MISSING/run",
                          "--telemetry-out", "FILE/telemetry"],
    "run-archive-dir": ["run", *_SMALL_STUDY, "--out", "MISSING/run",
                        "--archive-dir", "FILE"],
    "run-checkpoint-dir": ["run", *_SMALL_STUDY, "--out", "MISSING/run",
                           "--checkpoint-dir", "FILE"],
    "tables-telemetry-out": ["tables", *_SMALL_STUDY,
                             "--telemetry-out", "FILE"],
    "replay-out": ["replay", "MISSING", "--out", "FILE"],
    "serve-build-out": ["serve", "build", "RUN", "--out", "FILE"],
    "monitor-state-dir": ["monitor", "run", "--cycles", "1",
                          "--state-dir", "FILE"],
    "health-out": ["health", "TEL", "--out", "MISSING/health.html"],
    "runs-trends-html": ["runs", "trends", "--registry", "REG",
                         "--html", "MISSING/fleet.html"],
    "runs-alerts-out": ["runs", "alerts", "--registry", "REG",
                        "--out", "FILE/alerts.json"],
    "figures-out": ["figures", "RUN", "--out", "FILE"],
    "bench-out": ["bench", "--out", "FILE/bench.json"],
    "bench-profile-out": ["bench", "--profile-out", "DIR"],
    "serve-bench-out": ["serve", "bench", "CAT", "--out", "FILE/serve.json"],
}


class TestUnwritableOutput:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("outputs")
        paths = {name: str(root / name.lower())
                 for name in ("RUN", "TEL", "REG", "CAT", "DIR", "MISSING")}
        assert main(["run", "--scale", "0.01", "--iterations", "1",
                     "--seed", "7", "--no-underground",
                     "--out", paths["RUN"], "--telemetry-out", paths["TEL"]]) == 0
        assert main(["runs", "ingest", paths["TEL"],
                     "--registry", paths["REG"]]) == 0
        assert main(["serve", "build", paths["RUN"], "--out", paths["CAT"]]) == 0
        os.makedirs(paths["DIR"])
        paths["FILE"] = str(root / "file")
        with open(paths["FILE"], "w") as handle:
            handle.write("not a directory\n")
        return paths

    @pytest.mark.parametrize("name", sorted(UNWRITABLE_OUTPUT_ARGV))
    def test_unwritable_output_exits_two_in_one_line(self, paths, capsys,
                                                     monkeypatch, name):
        def refused_first(*args, **kwargs):
            raise AssertionError("the work ran before its output was checked")

        for work in ("Study", "run_replay", "build_catalog", "run_bench",
                     "run_serve_bench", "MonitorDaemon"):
            monkeypatch.setattr(cli, work, refused_first)
        argv = []
        for arg in UNWRITABLE_OUTPUT_ARGV[name]:
            head, _, tail = arg.partition("/")
            argv.append(os.path.join(paths[head], tail) if tail
                        else paths.get(arg, arg))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert argv[-1] in err
        assert "Traceback" not in err


class TestContractsFlags:
    def test_strict_contracts_clean_run_exits_zero(self, tmp_path, capsys):
        code = main([
            "run", "--scale", "0.01", "--iterations", "2", "--seed", "7",
            "--no-underground", "--strict-contracts",
            "--out", str(tmp_path / "strict"),
        ])
        assert code == 0

    def test_fail_stage_degrades_but_exits_zero(self, capsys):
        code = main([
            "tables", "--scale", "0.01", "--iterations", "2", "--seed", "7",
            "--no-underground", "--fail-stage", "network",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[degraded] section 7" in out
        assert "Table 7" not in out
        assert "Table 8" in out  # later stages still rendered

    def test_fail_stage_rejects_unknown_stage(self):
        with pytest.raises(SystemExit):
            main([
                "tables", "--scale", "0.01", "--iterations", "2",
                "--fail-stage", "nonsense",
            ])


class TestTables:
    def test_one_shot(self, capsys):
        code = main([
            "tables", "--scale", "0.02", "--iterations", "2",
            "--seed", "5", "--no-underground",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 8" in out


class TestFigures:
    def test_export_csvs(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["run", "--scale", "0.02", "--iterations", "2",
                     "--seed", "9", "--out", run_dir]) == 0
        capsys.readouterr()
        out_dir = str(tmp_path / "figs")
        assert main(["figures", run_dir, "--out", out_dir]) == 0
        out = capsys.readouterr().out
        assert "fig2_listing_dynamics.csv" in out
        import csv

        with open(os.path.join(out_dir, "fig2_listing_dynamics.csv")) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["iteration", "active_listings", "cumulative_listings"]
        assert len(rows) == 3  # header + 2 iterations
        with open(os.path.join(out_dir, "table8_efficacy.csv")) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "platform"
        assert len(rows) == 6  # header + 5 platforms

    def test_export_missing_run_fails(self, tmp_path):
        assert main(["figures", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o")]) == 1


class TestRunInterrupted:
    def test_sigint_marks_partial_and_exits_130(self, tmp_path, monkeypatch,
                                                capsys):
        # Deliver a real SIGINT mid-study: the CLI's handler must raise,
        # the meta file must carry the "partial": "interrupted" marker,
        # and the exit code must be the conventional 128+SIGINT.
        import signal

        from repro.core import pipeline

        original_build = pipeline.WorldBuilder.build

        def build_then_interrupt(self):
            os.kill(os.getpid(), signal.SIGINT)
            return original_build(self)  # handler fires before this returns

        monkeypatch.setattr(pipeline.WorldBuilder, "build",
                            build_then_interrupt)
        out_dir = str(tmp_path / "run")
        code = main(["run", "--scale", "0.02", "--iterations", "2",
                     "--seed", "7", "--out", out_dir])
        assert code == 130
        assert "interrupted by signal" in capsys.readouterr().err
        with open(os.path.join(out_dir, "study_meta.json")) as handle:
            meta = json.load(handle)
        assert meta["partial"] == "interrupted"
        assert meta["signal"] == signal.SIGINT
        # No store: the run dir is visibly incomplete.
        assert not os.path.exists(os.path.join(out_dir, "store.json"))
        assert not os.path.exists(os.path.join(out_dir, "segments"))

    def test_previous_handler_restored(self, tmp_path, monkeypatch):
        import signal

        from repro.core import pipeline

        sentinel = lambda signum, frame: None
        previous = signal.signal(signal.SIGINT, sentinel)
        try:
            monkeypatch.setattr(
                pipeline.WorldBuilder, "build",
                lambda self: (_ for _ in ()).throw(RuntimeError("stop")),
            )
            with pytest.raises(RuntimeError):
                main(["run", "--scale", "0.02", "--iterations", "2",
                      "--out", str(tmp_path / "run")])
            assert signal.getsignal(signal.SIGINT) is sentinel
        finally:
            signal.signal(signal.SIGINT, previous)
