"""Tests for the fingerprinted weight cache and warm-started experiments."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments import registry, runner, weights
from repro.experiments.cli import run_one
from repro.experiments.runner import make_task, run_quality
from repro.experiments.settings import TINY
from repro.nn.trainer import TrainConfig

FAST = dataclasses.replace(TINY, train_count=8, test_count=2, size=16, epochs=2)


@pytest.fixture()
def warm_cache(tmp_path, monkeypatch):
    """Warm starts enabled, cache redirected into tmp_path."""
    monkeypatch.setenv(weights.WEIGHTS_DIR_ENV, str(tmp_path / "weights"))
    monkeypatch.setenv(weights.WARM_START_ENV, "1")
    return tmp_path / "weights"


class TestFingerprint:
    @pytest.mark.smoke
    def test_env_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv(weights.WARM_START_ENV, value)
            assert weights.warm_start_enabled() is expected
        monkeypatch.delenv(weights.WARM_START_ENV)
        assert weights.warm_start_enabled() is False

    def test_fingerprint_tracks_spec_and_config(self):
        config = TrainConfig(epochs=2, lr=1e-3)
        base = weights.training_fingerprint({"kind": "real"}, config)
        assert base == weights.training_fingerprint({"kind": "real"}, config)
        assert base != weights.training_fingerprint({"kind": "ri2+fh"}, config)
        assert base != weights.training_fingerprint(
            {"kind": "real"}, TrainConfig(epochs=3, lr=1e-3)
        )
        assert base != weights.training_fingerprint(
            {"kind": "real"}, TrainConfig(epochs=2, lr=2e-3)
        )


class TestWarmStart:
    def test_cold_and_warm_results_identical(self, warm_cache, monkeypatch):
        data = make_task("denoise", FAST)
        monkeypatch.delenv(weights.WARM_START_ENV)
        cold = run_quality("real", "denoise", FAST, data=data)
        monkeypatch.setenv(weights.WARM_START_ENV, "1")
        populate = run_quality("real", "denoise", FAST, data=data)  # trains + stores
        warm = run_quality("real", "denoise", FAST, data=data)  # pure cache hit
        assert list(warm_cache.glob("*.npz")), "no cache entry written"
        for other in (populate, warm):
            assert other.psnr_db == cold.psnr_db
            assert other.final_train_loss == cold.final_train_loss
            for name, arr in cold.model.state_dict().items():
                np.testing.assert_array_equal(other.model.state_dict()[name], arr)

    def test_warm_start_never_trains(self, warm_cache, monkeypatch):
        # The reason warm starts are faster: a cache hit builds no
        # training engine at all.
        data = make_task("denoise", FAST)
        cold = run_quality("real", "denoise", FAST, data=data)  # trains + stores

        def refuse(*args, **kwargs):
            raise AssertionError("a warm start must not train")

        monkeypatch.setattr(runner, "TrainEngine", refuse)
        warm = run_quality("real", "denoise", FAST, data=data)
        assert warm.psnr_db == cold.psnr_db

    def test_different_data_misses_cache(self, warm_cache):
        # Same recipe, different arrays: the content hash must keep the
        # entries apart (a recipe-keyed cache would alias them).
        data_a = make_task("denoise", FAST)
        data_b = make_task("denoise", dataclasses.replace(FAST, seed=123))
        run_quality("real", "denoise", FAST, data=data_a)
        before = len(list(warm_cache.glob("*.npz")))
        run_quality("real", "denoise", FAST, data=data_b)
        assert len(list(warm_cache.glob("*.npz"))) == before + 1

    def test_corrupt_cache_entry_degrades_to_retrain(self, warm_cache):
        data = make_task("denoise", FAST)
        first = run_quality("real", "denoise", FAST, data=data)
        (entry,) = warm_cache.glob("*.npz")
        entry.write_bytes(b"garbage")
        again = run_quality("real", "denoise", FAST, data=data)
        assert again.psnr_db == first.psnr_db

    def test_disabled_by_default_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(weights.WEIGHTS_DIR_ENV, str(tmp_path / "weights"))
        monkeypatch.delenv(weights.WARM_START_ENV, raising=False)
        run_quality("real", "denoise", FAST)
        assert not (tmp_path / "weights").exists()

    def test_cache_shared_across_labels(self, warm_cache):
        # Lookup is by fingerprint, not label: two experiments training
        # the identical model under different labels share one bundle.
        data = make_task("denoise", FAST)
        first = run_quality("real", "denoise", FAST, data=data)
        (entry,) = warm_cache.glob("*.npz")
        relabeled = warm_cache / f"other-label--{entry.name.split('--')[1]}"
        entry.rename(relabeled)
        before = relabeled.stat().st_mtime_ns
        again = run_quality("real", "denoise", FAST, data=data)
        assert again.psnr_db == first.psnr_db
        assert len(list(warm_cache.glob("*.npz"))) == 1  # no duplicate stored
        assert relabeled.stat().st_mtime_ns == before

    def test_weights_dir_env_isolates_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(weights.WARM_START_ENV, "1")
        monkeypatch.setenv(weights.WEIGHTS_DIR_ENV, str(tmp_path / "a"))
        data = make_task("denoise", FAST)
        run_quality("real", "denoise", FAST, data=data)
        assert list((tmp_path / "a").glob("*.npz"))
        monkeypatch.setenv(weights.WEIGHTS_DIR_ENV, str(tmp_path / "b"))
        run_quality("real", "denoise", FAST, data=data)
        assert list((tmp_path / "b").glob("*.npz"))


class TestArtifactByteIdentity:
    """The acceptance criterion: warm-started artifact == cold artifact, byte for byte."""

    @pytest.fixture()
    def quality_experiment(self):
        name = "warmtest-exp"
        registry.register(
            name=name,
            description="weight-cache byte-identity probe",
            run=lambda task="denoise": run_quality("real", task, FAST),
            format_result=lambda r: f"{r.psnr_db:.4f}",
            scales={"small": {"task": "denoise"}, "paper": {"task": "denoise"}},
        )
        yield name
        registry.unregister(name)

    def test_warm_artifact_bytes_equal_cold(self, warm_cache, monkeypatch, quality_experiment):
        monkeypatch.delenv(weights.WARM_START_ENV)
        cold = json.dumps(run_one(quality_experiment, "small"), sort_keys=True, indent=2)
        monkeypatch.setenv(weights.WARM_START_ENV, "1")
        populate = json.dumps(run_one(quality_experiment, "small"), sort_keys=True, indent=2)
        warm = json.dumps(run_one(quality_experiment, "small"), sort_keys=True, indent=2)
        assert populate == cold
        assert warm == cold
