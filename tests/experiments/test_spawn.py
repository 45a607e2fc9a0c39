"""Tests for the shared spawn-worker helpers (repro.experiments.spawn)."""

import zlib

from repro.experiments import registry
from repro.experiments.spawn import (
    ensure_registered,
    export_env,
    worker_seed,
)
from repro.nn import backend as nn_backend


class TestWorkerSeed:
    def test_deterministic_and_stable(self):
        # The exact historical formula: crc32 of the colon-joined parts,
        # masked to 31 bits.  Experiment artifact fingerprints depend on
        # it, so it must never drift.
        assert worker_seed("table1", "small") == (
            zlib.crc32(b"table1:small") & 0x7FFFFFFF
        )
        assert worker_seed("table1", "small") == worker_seed("table1", "small")
        assert worker_seed("table1", "small") != worker_seed("table1", "paper")

    def test_accepts_any_stringable_parts(self):
        assert worker_seed("bench", 3, 1.5) == (
            zlib.crc32(b"bench:3:1.5") & 0x7FFFFFFF
        )

    def test_range_fits_numpy_seed(self):
        for parts in [("a",), ("b", "c"), ("x", 123)]:
            seed = worker_seed(*parts)
            assert 0 <= seed < 2**31

    def test_registry_seed_for_uses_worker_seed(self):
        ensure_registered()
        experiment = registry.get("table1")
        assert experiment.seed_for("small") == worker_seed("table1", "small")


class TestExportEnv:
    def test_sets_process_environment(self, monkeypatch):
        monkeypatch.delenv(nn_backend.BACKEND_ENV_VAR, raising=False)
        export_env(nn_backend.BACKEND_ENV_VAR, "threaded:2")
        import os

        assert os.environ[nn_backend.BACKEND_ENV_VAR] == "threaded:2"


class TestEnsureRegistered:
    def test_idempotent_and_populates_registry(self):
        ensure_registered()
        ensure_registered()
        names = registry.names()
        assert "table1" in names and "fig09" in names
