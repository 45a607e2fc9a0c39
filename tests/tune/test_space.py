"""Tests for the autotuner's configuration space (repro.tune.space)."""

import contextlib

import numpy as np
import pytest

from repro.models.ernet import dn_ernet_pu
from repro.nn.backend import current_backend, default_backend, get_backend, use_backend
from repro.nn.inference import DEFAULT_TILE, plan_for_model
from repro.tune import TunedConfig, bucket_batch, candidate_space, default_config


@pytest.fixture(scope="module")
def model():
    return dn_ernet_pu(blocks=1, ratio=1, seed=0)


class TestTunedConfig:
    @pytest.mark.smoke
    def test_validation_and_round_trip(self):
        config = TunedConfig(backend="threaded:2", tile=32, batch_size=4)
        assert TunedConfig.from_dict(config.to_jsonable()) == config
        ambient = TunedConfig(backend=None, tile=48, batch_size=8)
        assert TunedConfig.from_dict(ambient.to_jsonable()) == ambient
        with pytest.raises(ValueError):
            TunedConfig(backend=None, tile=0, batch_size=8)
        with pytest.raises(ValueError):
            TunedConfig(backend=None, tile=48, batch_size=0)

    def test_label_is_compact(self):
        assert TunedConfig(None, 48, 8).label() == "ambient/tile48/mb8"
        assert TunedConfig("blocked:4", 32, 2).label() == "blocked:4/tile32/mb2"


class TestBucketBatch:
    def test_rounds_up_to_powers_of_two(self):
        assert [bucket_batch(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]
        with pytest.raises(ValueError):
            bucket_batch(0)


class TestCandidateSpace:
    def test_default_config_matches_untuned_path(self, model):
        base = default_config(model, 8)
        assert base.backend is None
        assert base.tile == plan_for_model(model, tile=DEFAULT_TILE).tile
        assert base.batch_size == 8

    def test_default_is_element_zero_and_no_duplicates(self, model):
        candidates = candidate_space(model, (1, 64, 64), 8)
        assert candidates[0] == default_config(model, 8)
        assert len(candidates) == len(set(candidates))

    @pytest.mark.parametrize("ambient", [None, "numpy", "blocked:4"])
    def test_no_two_candidates_resolve_to_one_schedule(self, model, ambient):
        """``backend=None`` runs the ambient backend, so the explicit spec
        it resolves to is not enumerated again (numpy with no backend
        selected)."""
        context = use_backend(ambient) if ambient else contextlib.nullcontext()
        with context:
            candidates = candidate_space(model, (1, 16, 16), 8)
            resolved = [
                get_backend(config.backend) if config.backend else current_backend()
                for config in candidates
            ]
        numpy = get_backend("numpy")
        keys = [
            (numpy if backend is default_backend() else backend, config.tile, config.batch_size)
            for backend, config in zip(resolved, candidates, strict=True)
        ]
        assert len({(id(b), t, m) for b, t, m in keys}) == len(candidates)
        assert candidates[0] == default_config(model, 8)
        if ambient is not None or current_backend() is default_backend():
            assert (ambient or "numpy") not in {config.backend for config in candidates}

    def test_enumeration_is_deterministic(self, model):
        a = candidate_space(model, (1, 64, 64), 8)
        b = candidate_space(model, (1, 64, 64), 8)
        assert a == b

    def test_tiles_stay_on_divisor_grid(self, model):
        divisor = plan_for_model(model).divisor
        assert divisor == 2  # pixel-unshuffle denoiser
        for config in candidate_space(model, (1, 128, 128), 4):
            assert config.tile % divisor == 0

    def test_small_shapes_collapse_the_tile_axis(self, model):
        # Every tile >= the image runs the identical batched path, so
        # tiny shapes must not multiply the trial schedule by tiles.
        base_tile = default_config(model, 4).tile
        tiles = {config.tile for config in candidate_space(model, (1, 16, 16), 4)}
        assert tiles == {base_tile}
        large_tiles = {config.tile for config in candidate_space(model, (1, 128, 128), 4)}
        assert len(large_tiles) > 1

    @pytest.mark.parametrize("size", [16, 40, 64, 100, 128])
    def test_no_two_tiles_share_a_grid(self, model, size):
        # Tiles that cut the shape into the same grid run identical
        # crops; only the default's representative may survive.
        tiles = {config.tile for config in candidate_space(model, (1, size, size), 4)}
        grids = [plan_for_model(model, tile=tile).grid(size, size) for tile in tiles]
        assert len(grids) == len(set(grids))
        assert default_config(model, 4).tile in tiles

    def test_tile_32_folds_into_default_48_at_64px(self, model):
        # 64 px at tile 32 or tile 48 is the same 2 x 32 grid.
        tiles = {config.tile for config in candidate_space(model, (1, 64, 64), 4)}
        assert 48 in tiles and 32 not in tiles

    def test_micro_batches_are_powers_of_two_within_bucket(self, model):
        # Powers of two up to bucket_batch(6) == 8, plus the default
        # configuration, which keeps its configured size of 6.
        micros = {config.batch_size for config in candidate_space(model, (1, 16, 16), 6)}
        assert micros == {1, 2, 4, 6, 8}

    def test_rejects_non_chw_shapes(self, model):
        with pytest.raises(ValueError):
            candidate_space(model, (16, 16), 4)

    def test_backend_specs_are_constructible(self, model):
        from repro.nn.backend import make_backend

        for config in candidate_space(model, (1, 16, 16), 2):
            if config.backend is not None:
                make_backend(config.backend)  # must not raise
