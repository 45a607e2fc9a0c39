"""Tests for ``python -m repro`` (`repro.experiments.cli`)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments import registry
from repro.experiments.cli import build_parser, main, run_one

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == "small"
        assert args.jobs == 1
        assert not args.force

    def test_scale_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])


@pytest.mark.smoke
class TestListCommand:
    def test_lists_every_registered_experiment(self, tmp_path, capsys):
        assert main(["list", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out

    def test_marks_cached_entries(self, tmp_path, capsys, fake_experiment):
        main(["run", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)])
        capsys.readouterr()
        main(["list", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "[cached: small]" in out


class TestRunCommand:
    def test_unknown_experiment_exits_with_hint(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["run", "table99", "--results-dir", str(tmp_path)])

    def test_writes_artifact_json(self, tmp_path, fake_experiment):
        assert (
            main(["run", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)])
            == 0
        )
        files = list(tmp_path.glob("fake-exp--small--*.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["experiment"] == "fake-exp"
        assert data["formatted"] == "row0: 0.0\nrow1: 1.0"
        assert data["result"] == [
            {"label": "row0", "value": 0.0},
            {"label": "row1", "value": 1.0},
        ]

    def test_cache_hit_is_reported(self, tmp_path, capsys, fake_experiment):
        argv = ["run", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)]
        main(argv)
        capsys.readouterr()
        main(argv)
        assert "cache hit" in capsys.readouterr().out

    def test_duplicate_names_run_once(self, tmp_path, fake_experiment):
        _, calls = fake_experiment
        main(
            [
                "run",
                "fake-exp",
                "fake-exp",
                "--scale",
                "small",
                "--results-dir",
                str(tmp_path),
            ]
        )
        assert len(calls) == 1


class TestFaultIsolation:
    def test_one_failure_does_not_discard_other_results(
        self, tmp_path, capsys, fake_experiment
    ):
        from repro.experiments import artifacts, registry

        registry.register(
            name="fake-broken",
            description="always raises",
            run=lambda: (_ for _ in ()).throw(RuntimeError("boom")),
            format_result=str,
            scales={"small": {}, "paper": {}},
        )
        try:
            code = main(
                [
                    "run",
                    "fake-broken",
                    "fake-exp",
                    "--scale",
                    "small",
                    "--results-dir",
                    str(tmp_path),
                ]
            )
        finally:
            registry.unregister("fake-broken")
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED RuntimeError: boom" in out
        assert "1 failed: fake-broken" in out
        # The healthy experiment's artifact was still computed and saved.
        assert len(list(tmp_path.glob("fake-exp--small--*.json"))) == 1
        assert artifacts.ArtifactStore(tmp_path).latest("fake-exp", "small") is not None


class TestReportCommand:
    def test_missing_artifact_for_named_experiment_fails(self, tmp_path, capsys):
        assert main(["report", "table1", "--results-dir", str(tmp_path)]) == 1
        assert "no cached artifact" in capsys.readouterr().out

    def test_report_all_with_empty_cache_succeeds(self, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path)]) == 0

    def test_renders_cached_formatted_text(self, tmp_path, capsys, fake_experiment):
        main(["run", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)])
        capsys.readouterr()
        assert (
            main(["report", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "== fake-exp (small" in out
        assert "row1: 1.0" in out

    def test_report_does_not_recompute(self, tmp_path, fake_experiment):
        _, calls = fake_experiment
        main(["run", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)])
        main(["report", "fake-exp", "--scale", "small", "--results-dir", str(tmp_path)])
        assert len(calls) == 1


class TestDeterminism:
    @pytest.mark.smoke
    def test_run_one_is_reproducible_in_process(self):
        first = run_one("table1", "small")
        second = run_one("table1", "small")
        assert first == second

    def test_parallel_jobs_bit_identical_to_serial(self, tmp_path):
        """`--jobs 2` must produce byte-identical artifacts to a serial run."""
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        names = ["table1", "table2"]
        assert (
            main(["run", *names, "--scale", "small", "--results-dir", str(serial_dir)])
            == 0
        )
        assert (
            main(
                [
                    "run",
                    *names,
                    "--scale",
                    "small",
                    "--jobs",
                    "2",
                    "--results-dir",
                    str(parallel_dir),
                ]
            )
            == 0
        )
        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files == parallel_files and len(serial_files) == len(names)
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


class TestTrainCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train", "denoise:real"])
        assert args.model == "denoise:real"
        assert args.epochs is None
        assert not args.resume
        assert args.save_every == 1

    def test_unknown_task_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown task"):
            main(["train", "segmentation:real", "--results-dir", str(tmp_path)])

    def test_unknown_kind_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown algebra kind"):
            main(["train", "denoise:nosuchring", "--results-dir", str(tmp_path)])

    def test_resume_without_checkpoint_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint"):
            main(
                [
                    "train", "denoise:real", "--resume",
                    "--checkpoint", str(tmp_path / "missing.npz"),
                    "--results-dir", str(tmp_path),
                ]
            )

    def test_train_then_resume_is_bit_identical(self, tmp_path, capsys):
        import numpy as np

        base = [
            "train", "denoise:real", "--scale", "small",
            "--epochs", "4", "--results-dir", str(tmp_path),
        ]
        straight = tmp_path / "straight.npz"
        assert main(base + ["--checkpoint", str(straight)]) == 0
        seg = tmp_path / "seg.npz"
        assert main(base + ["--checkpoint", str(seg), "--train-epochs", "2"]) == 0
        assert main(
            [
                "train", "denoise:real", "--scale", "small", "--resume",
                "--checkpoint", str(seg), "--results-dir", str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed epoch 2" in out
        with np.load(straight) as a, np.load(seg) as b:
            keys = [k for k in a.files if k.startswith("model/")]
            assert keys
            for key in keys:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    def test_fully_trained_checkpoint_resumes_to_noop(self, tmp_path, capsys):
        ckpt = tmp_path / "done.npz"
        base = [
            "train", "denoise:real", "--scale", "small", "--epochs", "2",
            "--checkpoint", str(ckpt), "--results-dir", str(tmp_path),
        ]
        assert main(base) == 0
        assert main(base + ["--resume"]) == 0
        assert "nothing to train" in capsys.readouterr().out


class TestTuneCommand:
    @pytest.mark.parametrize("flag", [["--trials", "0"], ["--warmup", "-1"]])
    def test_bad_trial_counts_exit(self, tmp_path, flag):
        with pytest.raises(SystemExit, match="--warmup >= 0"):
            main(["tune", "denoise:real", *flag, "--results-dir", str(tmp_path)])
        assert not (tmp_path / "tuning").exists()


class TestWarmStartFlag:
    def test_run_warm_start_sets_env_and_reuses_weights(
        self, tmp_path, monkeypatch, fake_experiment
    ):
        from repro.experiments import weights

        # setenv first so teardown restores the pre-test state even
        # though cmd_run mutates os.environ directly.
        monkeypatch.setenv(weights.WARM_START_ENV, "0")
        monkeypatch.setenv(weights.WEIGHTS_DIR_ENV, "")
        assert not weights.warm_start_enabled()
        assert (
            main(
                [
                    "run", "fake-exp", "--scale", "small", "--warm-start",
                    "--results-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert weights.warm_start_enabled()
        # --results-dir isolates the weight cache like the artifacts.
        assert weights.weights_root() == tmp_path / "weights"


class TestModuleEntryPoint:
    def test_python_dash_m_repro_list(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list", "--results-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "table1" in proc.stdout
