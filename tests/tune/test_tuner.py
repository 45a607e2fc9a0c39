"""Tests for the measured-trial autotuner and its consumers.

Covers the tentpole guarantees end to end: deterministic trial
schedules under a pinned seed, winners that pass the byte-parity guard,
cache population/lookup, graceful fallback when a cached backend spec
is unavailable, and — the invariant everything else leans on —
bit-identity of tuned vs untuned outputs across the whole registered
backend matrix, for the eager Predictor, the compiled Predictor and the
micro-batching server.
"""

import numpy as np
import pytest

from repro.models.ernet import dn_ernet_pu
from repro.models.factory import make_factory
from repro.nn.backend import available_backends, get_backend, use_backend
from repro.nn.inference import CompiledPredictor, Predictor
from repro.serving import InferenceServer
from repro.tune import (
    TunedConfig,
    TuningCache,
    TuningEntry,
    bucket_batch,
    candidate_space,
    lookup,
    model_label,
    model_signature,
    tune_model,
    tuning_fingerprint,
)
from repro.tune import tuner
from repro.tune.cache import TUNED_ENV, TUNING_DIR_ENV

SHAPE = (1, 16, 16)
BATCH = 4


@pytest.fixture()
def model():
    model = dn_ernet_pu(blocks=1, ratio=1, seed=0)
    rng = np.random.default_rng(7)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    model.eval()
    return model


@pytest.fixture()
def tuning_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(TUNING_DIR_ENV, str(tmp_path))
    return tmp_path


def _probe(seed=11, n=BATCH):
    return np.random.default_rng(seed).standard_normal((n, *SHAPE))


def _plant_entry(model, winner: TunedConfig, shape=SHAPE, batch=BATCH) -> TuningEntry:
    """Store a hand-made cache entry under the live fingerprint."""
    digest = tuning_fingerprint(model_signature(model), shape, bucket_batch(batch))
    entry = TuningEntry(
        fingerprint=digest,
        shape=shape,
        batch=bucket_batch(batch),
        winner=winner,
        default=TunedConfig(backend=None, tile=48, batch_size=bucket_batch(batch)),
        speedup=1.5,
        trials=[],
    )
    TuningCache().store(model_label(model), entry)
    return entry


class TestTuneModel:
    @pytest.mark.smoke
    def test_populates_cache_and_lookup_hits(self, model, tuning_dir):
        entry = tune_model(model, SHAPE, BATCH, seed=0, trials=1)
        assert list(tuning_dir.glob("*.json")), "no cache file written"
        hit = lookup(model, SHAPE, BATCH)
        assert hit is not None and hit.winner == entry.winner
        assert hit.fingerprint == entry.fingerprint

    def test_default_is_always_measured_and_winner_no_slower(self, model, tuning_dir):
        entry = tune_model(model, SHAPE, BATCH, seed=0, trials=1)
        measured = [t for t in entry.trials if t["median_s"] is not None]
        assert entry.default.to_jsonable() in [t["config"] for t in measured]
        # Winner is min-median over a set containing the default.
        assert entry.speedup >= 1.0
        winner_trials = [
            t for t in measured if t["config"] == entry.winner.to_jsonable()
        ]
        assert winner_trials and winner_trials[0]["parity"] is True

    def test_trial_schedule_is_deterministic_under_pinned_seed(self, model, tuning_dir):
        a = tune_model(model, SHAPE, BATCH, seed=3, trials=1, store=False)
        b = tune_model(model, SHAPE, BATCH, seed=3, trials=1, store=False)
        # The candidate enumeration, and therefore the measured-candidate
        # schedule, replays exactly; only wall-clock medians (and
        # possibly the winner) may differ.
        assert [t["label"] for t in a.trials] == [t["label"] for t in b.trials]
        assert a.fingerprint == b.fingerprint

    def test_every_candidate_is_timed_in_enumeration_order(self, model, tuning_dir):
        entry = tune_model(model, SHAPE, BATCH, seed=0, trials=1, store=False)
        space = candidate_space(model, SHAPE, BATCH)
        assert [t["label"] for t in entry.trials] == [c.label() for c in space]
        assert entry.trials[0]["config"] == entry.default.to_jsonable()
        assert all(t["parity"] is not None for t in entry.trials)

    @pytest.mark.parametrize("counts", [{"trials": 0}, {"warmup": -1}])
    def test_rejects_bad_trial_counts(self, model, tuning_dir, counts):
        with pytest.raises(ValueError):
            tune_model(model, SHAPE, BATCH, seed=0, store=False, **counts)
        with pytest.raises(ValueError):
            Predictor(model, batch_size=BATCH).tune(SHAPE, seed=0, **counts)
        assert not list(tuning_dir.glob("*.json"))

    @pytest.mark.parametrize(
        ("retimed", "winner_index", "speedup"),
        [((1.0, 1.2), 0, 1.0), ((1.0, 0.8), -1, 1.25)],
        ids=["noise-winner-loses", "winner-confirmed"],
    )
    def test_winner_is_retimed_against_the_default(
        self, model, tuning_dir, monkeypatch, retimed, winner_index, speedup
    ):
        """The search's medians pick the last candidate (0.5 s against
        1.0 s).  A fresh interleaved re-time of (default, pick) decides:
        a pick that loses it leaves the default as winner at speedup 1.0;
        one that wins it reports the fresh ratio, not the search's 2.0."""
        space = candidate_space(model, SHAPE, BATCH)
        searched = {config: 1.0 for config in space}
        searched[space[-1]] = 0.5
        output = np.zeros((BATCH, *SHAPE))
        retime_calls = []

        def fake_time(model, config, probe, reference, *, warmup, trials):
            return searched[config], True, output

        def fake_retime(model, configs, probe, *, warmup, trials):
            retime_calls.append((configs, trials))
            return list(retimed)

        monkeypatch.setattr(tuner, "_time_config", fake_time)
        monkeypatch.setattr(tuner, "_retime", fake_retime)
        entry = tune_model(model, SHAPE, BATCH, seed=0, trials=3, store=False)
        assert retime_calls == [((space[0], space[-1]), 3)]
        assert entry.winner == space[winner_index]
        assert entry.speedup == pytest.approx(speedup)

    def test_default_winner_is_not_retimed(self, model, tuning_dir, monkeypatch):
        space = candidate_space(model, SHAPE, BATCH)
        output = np.zeros((BATCH, *SHAPE))
        monkeypatch.setattr(
            tuner, "_time_config", lambda model, config, *a, **k: (1.0, True, output)
        )
        monkeypatch.setattr(tuner, "_retime", pytest.fail)
        entry = tune_model(model, SHAPE, BATCH, seed=0, trials=2, store=False)
        assert entry.winner == space[0] and entry.speedup == 1.0

    def test_retime_interleaves_the_configs(self, model, monkeypatch):
        """Warmups first, then one timed run of each config per round."""
        calls = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def predict(self, probe):
                calls.append(self.name)

        space = candidate_space(model, SHAPE, BATCH)
        names = {space[0]: "base", space[1]: "pick"}
        monkeypatch.setattr(tuner, "_predictor_for", lambda model, config: Recorder(names[config]))
        medians = tuner._retime(model, (space[0], space[1]), _probe(), warmup=1, trials=3)
        assert calls == ["base", "pick"] + ["base", "pick"] * 3
        assert len(medians) == 2 and all(m >= 0 for m in medians)

    def test_batch_is_bucketed_into_the_key(self, model, tuning_dir):
        tune_model(model, SHAPE, 3, seed=0, trials=1)
        # 3 and 4 share the power-of-two bucket; 8 does not.
        assert lookup(model, SHAPE, 4) is not None
        assert lookup(model, SHAPE, 8) is None

    def test_rejects_bad_shape(self, model, tuning_dir):
        with pytest.raises(ValueError):
            tune_model(model, (16, 16), BATCH, trials=1)


class TestLookupFallback:
    def test_miss_returns_none(self, model, tuning_dir):
        assert lookup(model, SHAPE, BATCH) is None

    def test_unavailable_backend_spec_is_refused(self, model, tuning_dir):
        _plant_entry(model, TunedConfig(backend="tpu:9000", tile=48, batch_size=2))
        assert lookup(model, SHAPE, BATCH) is None

    def test_available_backend_spec_is_served(self, model, tuning_dir):
        planted = _plant_entry(model, TunedConfig(backend="numpy", tile=48, batch_size=2))
        hit = lookup(model, SHAPE, BATCH)
        assert hit is not None and hit.winner == planted.winner

    def test_schema_1_entry_is_a_clean_miss(self, model, tuning_dir, monkeypatch):
        # Schema-1 winners were parity-checked against the pre-balanced
        # tile crops; once the schema moved on they must never be served
        # (a miss, not an error), and the tuned path falls back to the
        # untuned bytes.
        import repro.tune.cache as cache_module

        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "TUNING_SCHEMA", 1)
            _plant_entry(model, TunedConfig(backend="numpy", tile=48, batch_size=2))
            assert lookup(model, SHAPE, BATCH) is not None
        assert cache_module.TUNING_SCHEMA >= 2
        assert list(tuning_dir.glob("*.json")), "stale entry not on disk"
        assert lookup(model, SHAPE, BATCH) is None
        x = _probe()
        tuned = Predictor(model, batch_size=BATCH, tuned=True)
        np.testing.assert_array_equal(tuned(x), Predictor(model, batch_size=BATCH)(x))
        assert tuned._tuned_runtimes[SHAPE] is None

    def test_tuned_predictor_falls_back_bit_identically(self, model, tuning_dir):
        # A cached winner naming an unconstructible backend must leave
        # the tuned path on the untuned configuration — same bytes, no
        # crash.
        _plant_entry(model, TunedConfig(backend="tpu:9000", tile=48, batch_size=2))
        x = _probe()
        untuned = Predictor(model, batch_size=BATCH, tuned=False)(x)
        tuned = Predictor(model, batch_size=BATCH, tuned=True)
        np.testing.assert_array_equal(tuned(x), untuned)
        assert tuned._tuned_runtimes[SHAPE] is None  # resolved to fallback


class TestBitIdentity:
    def test_tuned_equals_untuned_across_backend_matrix(self, model, tuning_dir):
        # Winner pinned to each registered backend in turn; the tuned
        # Predictor must reproduce the untuned bytes under every ambient
        # backend (the cross-product is the serving reality: cache
        # written by one process, consumed under another's ambient).
        x = _probe()
        reference = Predictor(model, batch_size=BATCH, tuned=False)(x)
        for winner_spec in sorted(available_backends()):
            _plant_entry(
                model, TunedConfig(backend=winner_spec, tile=48, batch_size=2)
            )
            for ambient in sorted(available_backends()):
                with use_backend(get_backend(ambient)):
                    tuned_out = Predictor(model, batch_size=BATCH, tuned=True)(x)
                np.testing.assert_array_equal(
                    tuned_out, reference,
                    err_msg=f"winner={winner_spec} ambient={ambient}",
                )

    def test_tuned_micro_batch_changes_schedule_not_bytes(self, model, tuning_dir):
        _plant_entry(model, TunedConfig(backend=None, tile=48, batch_size=1))
        x = _probe()
        tuned = Predictor(model, batch_size=BATCH, tuned=True)
        delegate = tuned._tuned_predictor(SHAPE)
        assert delegate is not None and delegate.batch_size == 1
        np.testing.assert_array_equal(
            tuned(x), Predictor(model, batch_size=BATCH, tuned=False)(x)
        )

    def test_same_grid_winner_serves_tiled_shapes_identically(self, model, tuning_dir):
        # 64 px is tiled; tile 32 cuts the same 2 x 32 grid as the
        # default tile 48, so the delegate's tiled path reproduces the
        # untuned bytes even on BLAS.
        shape = (1, 64, 64)
        _plant_entry(model, TunedConfig(backend=None, tile=32, batch_size=2), shape=shape)
        x = np.random.default_rng(5).standard_normal((BATCH, *shape))
        tuned = Predictor(model, batch_size=BATCH, tuned=True)
        np.testing.assert_array_equal(tuned(x), Predictor(model, batch_size=BATCH)(x))
        assert tuned._tuned_runtimes[shape].plan.tile == 32

    def test_compiled_tuned_equals_untuned(self, model, tuning_dir):
        _plant_entry(model, TunedConfig(backend="numpy", tile=48, batch_size=2))
        x = _probe()
        untuned = Predictor(model, batch_size=BATCH, tuned=False)(x)
        compiled = CompiledPredictor(model, batch_size=BATCH, tuned=True)
        np.testing.assert_array_equal(compiled(x), untuned)
        # The delegate is compiled too (plan-replay serving).
        assert isinstance(compiled._tuned_predictor(SHAPE), CompiledPredictor)

    def test_clone_shares_resolved_delegates(self, model, tuning_dir):
        _plant_entry(model, TunedConfig(backend="numpy", tile=48, batch_size=2))
        prototype = Predictor(model, batch_size=BATCH, tuned=True)
        prototype(_probe())
        clone = prototype.clone()
        assert clone.tuned and clone._tuned_runtimes is prototype._tuned_runtimes

    def test_real_tune_then_serve_is_bit_identical(self, model, tuning_dir):
        # End to end with a *measured* winner, not a planted one.
        tune_model(model, SHAPE, BATCH, seed=0, trials=1)
        x = _probe()
        np.testing.assert_array_equal(
            Predictor(model, batch_size=BATCH, tuned=True)(x),
            Predictor(model, batch_size=BATCH, tuned=False)(x),
        )

    def test_real_tune_then_serve_is_bit_identical_on_a_ring_model(self, tuning_dir):
        # The FRCONV denoiser (RI4 ring, directional ReLU): grouped convs
        # and tuple transforms under a measured winner, not a planted one.
        model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("ri4+fh"), seed=0)
        rng = np.random.default_rng(2)
        for param in model.parameters():
            param.data[...] += 0.05 * rng.standard_normal(param.shape)
        model.eval()
        entry = tune_model(model, SHAPE, BATCH, seed=0, trials=1)
        assert lookup(model, SHAPE, BATCH) == entry
        x = _probe()
        np.testing.assert_array_equal(
            Predictor(model, batch_size=BATCH, tuned=True)(x),
            Predictor(model, batch_size=BATCH, tuned=False)(x),
        )


class TestServerIntegration:
    def test_tuned_server_bit_identical_and_flush_follows_winner(
        self, model, tuning_dir
    ):
        _plant_entry(model, TunedConfig(backend="numpy", tile=48, batch_size=2))
        images = [np.asarray(img) for img in _probe(seed=13, n=10)]
        with InferenceServer(model, workers=2, max_batch=BATCH, tuned=False) as server:
            reference = [server.predict(img) for img in images]
        with InferenceServer(model, workers=2, max_batch=BATCH, tuned=True) as server:
            outputs = [server.predict(img) for img in images]
            assert server._flush_threshold(SHAPE) == 2  # the winner's micro-batch
        for out, ref in zip(outputs, reference, strict=True):
            np.testing.assert_array_equal(out, ref)

    def test_flush_threshold_clamped_to_max_batch(self, model, tuning_dir):
        _plant_entry(model, TunedConfig(backend=None, tile=48, batch_size=64))
        with InferenceServer(model, workers=1, max_batch=BATCH, tuned=True) as server:
            assert server._flush_threshold(SHAPE) == BATCH

    def test_untuned_server_ignores_cache(self, model, tuning_dir):
        _plant_entry(model, TunedConfig(backend=None, tile=48, batch_size=1))
        with InferenceServer(model, workers=1, max_batch=BATCH, tuned=False) as server:
            assert server._flush_threshold(SHAPE) == BATCH


class TestEnvFlag:
    def test_repro_tuned_env_enables_by_default(self, model, tuning_dir, monkeypatch):
        monkeypatch.setenv(TUNED_ENV, "1")
        assert Predictor(model).tuned is True
        monkeypatch.setenv(TUNED_ENV, "0")
        assert Predictor(model).tuned is False
        monkeypatch.delenv(TUNED_ENV)
        assert Predictor(model).tuned is False
        # Explicit argument always wins over the environment.
        monkeypatch.setenv(TUNED_ENV, "1")
        assert Predictor(model, tuned=False).tuned is False

    def test_predictor_tune_entry_point(self, model, tuning_dir):
        predictor = Predictor(model, batch_size=BATCH, tuned=True)
        entry = predictor.tune(SHAPE, seed=0, trials=1)
        assert lookup(model, SHAPE, BATCH) is not None
        assert entry.batch == bucket_batch(BATCH)
        x = _probe()
        np.testing.assert_array_equal(
            predictor(x), Predictor(model, batch_size=BATCH, tuned=False)(x)
        )
