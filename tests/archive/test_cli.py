"""CLI surface of the archive subsystem: run --archive-dir, replay,
archive verify (exit 2 on corruption), archive diff."""

import json
import os

import pytest

from repro.cli import main

from tests.conftest import tree_bytes


@pytest.fixture(scope="class")
def archived_cli_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("archive_cli")
    run_out = str(base / "run_out")
    archive_dir = str(base / "archive")
    code = main([
        "run", "--scale", "0.02", "--iterations", "2", "--seed", "123",
        "--no-underground", "--out", run_out, "--archive-dir", archive_dir,
    ])
    assert code == 0
    return run_out, archive_dir


class TestReplayCli:
    def test_replay_reproduces_run_output_byte_for_byte(
        self, archived_cli_run, tmp_path, capsys
    ):
        run_out, archive_dir = archived_cli_run
        replay_out = str(tmp_path / "replay_out")
        assert main(["replay", archive_dir, "--out", replay_out]) == 0
        assert "replayed" in capsys.readouterr().out
        run_files, replay_files = tree_bytes(run_out), tree_bytes(replay_out)
        replay_files.pop("scorecard.json")  # replay adds one; the run didn't
        assert sorted(run_files) == sorted(replay_files)
        for name, data in run_files.items():
            assert data == replay_files[name], \
                f"{name} differs between run and replay"

    def test_replay_output_feeds_report(self, archived_cli_run, tmp_path, capsys):
        _run_out, archive_dir = archived_cli_run
        replay_out = str(tmp_path / "replay_out")
        assert main(["replay", archive_dir, "--out", replay_out]) == 0
        capsys.readouterr()
        assert main(["report", replay_out]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_replay_missing_archive_exits_2(self, tmp_path, capsys):
        code = main([
            "replay", str(tmp_path / "nope"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "replay failed" in capsys.readouterr().err


class TestVerifyCli:
    def test_clean_archive_verifies_exit_0(self, archived_cli_run, capsys):
        _run_out, archive_dir = archived_cli_run
        assert main(["archive", "verify", archive_dir]) == 0
        assert "verified" in capsys.readouterr().out

    def test_flipped_byte_exits_2(self, archived_cli_run, tmp_path, capsys):
        import shutil

        _run_out, archive_dir = archived_cli_run
        tampered = str(tmp_path / "tampered")
        shutil.copytree(archive_dir, tampered)
        # First file under blobs/ sorts the first iteration's pack ahead
        # of its sidecar; flipping its first byte corrupts the first body.
        blob_files = sorted(os.listdir(os.path.join(tampered, "blobs")))
        victim = os.path.join(tampered, "blobs", blob_files[0])
        data = bytearray(open(victim, "rb").read())
        data[0] ^= 0x01
        open(victim, "wb").write(bytes(data))

        assert main(["archive", "verify", tampered]) == 2
        err = capsys.readouterr().err
        assert "CORRUPT" in err and "corrupt" in err

    def test_missing_archive_exits_2(self, tmp_path, capsys):
        assert main(["archive", "verify", str(tmp_path / "nope")]) == 2
        assert "no archive directory" in capsys.readouterr().err


class TestDiffCli:
    def test_diff_renders_churn_table(self, archived_cli_run, capsys):
        _run_out, archive_dir = archived_cli_run
        assert main(["archive", "diff", archive_dir, "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "archive diff: iteration 0 -> 1" in out
        assert "TOTAL" in out

    def test_diff_unknown_iteration_exits_2(self, archived_cli_run, capsys):
        _run_out, archive_dir = archived_cli_run
        assert main(["archive", "diff", archive_dir, "0", "9"]) == 2
        assert "no index for iteration 9" in capsys.readouterr().err


class TestManifestSurface:
    def test_run_manifest_carries_archive_section(self, tmp_path):
        run_out = str(tmp_path / "out")
        telemetry_out = str(tmp_path / "telemetry")
        archive_dir = str(tmp_path / "archive")
        assert main([
            "run", "--scale", "0.01", "--iterations", "1", "--seed", "5",
            "--no-underground", "--out", run_out,
            "--archive-dir", archive_dir, "--telemetry-out", telemetry_out,
        ]) == 0
        manifest = json.load(open(os.path.join(telemetry_out, "manifest.json")))
        archive = manifest["archive"]
        assert archive["sealed"] is True
        assert archive["dir"] == archive_dir
        assert archive["exchanges_total"] > 0
        metrics = json.load(open(os.path.join(telemetry_out, "metrics.json")))
        names = {m["name"] for m in metrics["metrics"]}
        assert "archive_exchanges_total" in names
        assert "archive_dedup_ratio" in names

    def test_replay_manifest_keeps_the_chaos_profile(self, tmp_path):
        # The archive records the live run's chaos profile; the replay's
        # manifest (and so its registry row and config hash) must carry
        # it instead of describing a clean run.
        archive_dir = str(tmp_path / "archive")
        assert main([
            "run", "--scale", "0.01", "--iterations", "1", "--seed", "5",
            "--no-underground", "--chaos", "moderate",
            "--out", str(tmp_path / "out"), "--archive-dir", archive_dir,
            "--telemetry-out", str(tmp_path / "live_telemetry"),
        ]) == 0
        replay_telemetry = str(tmp_path / "replay_telemetry")
        assert main([
            "replay", archive_dir, "--out", str(tmp_path / "replay_out"),
            "--telemetry-out", replay_telemetry,
        ]) == 0
        live = json.load(open(tmp_path / "live_telemetry" / "manifest.json"))
        replayed = json.load(open(os.path.join(replay_telemetry, "manifest.json")))
        assert replayed["config"]["chaos_profile"] == "moderate"
        assert live["config"]["chaos_profile"] == "moderate"
