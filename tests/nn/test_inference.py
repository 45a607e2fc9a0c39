"""Tests for the batched/tiled inference pipeline (repro.nn.inference)."""

import numpy as np
import pytest

from repro.models.ernet import dn_ernet_pu, sr4_ernet
from repro.models.factory import make_factory
from repro.nn.backend import EinsumBackend
from repro.nn.fastconv import FastRingConv2d
from repro.nn.inference import DEFAULT_TILE, Predictor, TilingPlan, plan_for_model
from repro.nn.layers import Conv2d, ReLU, Sequential
from repro.rings.catalog import get_ring


def _randomize(model, seed=0):
    """Give every parameter non-trivial values (the tail is zero-init)."""
    rng = np.random.default_rng(seed)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)


class TestTilingPlan:
    @pytest.mark.smoke
    def test_validation(self):
        with pytest.raises(ValueError):
            TilingPlan(tile=0, halo=2)
        with pytest.raises(ValueError):
            TilingPlan(tile=8, halo=-1)
        with pytest.raises(ValueError):
            TilingPlan(tile=9, halo=2, divisor=2)
        assert TilingPlan(tile=8, halo=4, divisor=2).crop == 16

    def test_plan_for_denoise_ernet(self):
        model = dn_ernet_pu(blocks=1, ratio=1)
        plan = plan_for_model(model, tile=32)
        assert plan.scale == 1 and plan.divisor == 2
        # 4 same-padded 3x3 convs behind a pixel-unshuffle by 2.
        assert plan.halo == 8
        assert plan.tile % 2 == 0

    def test_plan_for_sr_ernet(self):
        model = sr4_ernet(blocks=1, ratio=1)
        plan = plan_for_model(model, tile=8)
        assert plan.scale == 4 and plan.divisor == 1
        assert plan.halo == 6  # 4 convs + bicubic-skip support 2

    def test_plan_generic_conv_stack(self):
        model = Sequential(Conv2d(1, 4, 3, seed=0), ReLU(), Conv2d(4, 1, 3, seed=1))
        plan = plan_for_model(model)
        assert plan.scale == 1 and plan.divisor == 1 and plan.halo == 2

    def test_predictor_rejects_zero_tile(self):
        # tile=0 must surface TilingPlan's ValueError, not be silently
        # coerced to the default (the old `tile or 48` truthiness bug).
        model = dn_ernet_pu(blocks=1, ratio=1)
        from repro.nn.inference import CompiledPredictor

        with pytest.raises(ValueError):
            Predictor(model, tile=0)
        with pytest.raises(ValueError):
            CompiledPredictor(model, tile=0)
        # None still means "the shared default".
        assert Predictor(model, tile=None).plan == plan_for_model(model, tile=DEFAULT_TILE)
        assert plan_for_model(model).tile == DEFAULT_TILE


class TestBalancedGrid:
    """``TilingPlan.grid``: the fewest tiles the bound allows, equal edges."""

    @pytest.mark.smoke
    def test_remainder_tile_is_rebalanced(self):
        # 64 px at tile 48 is two 32-px tiles through 38-px crops, not
        # 48 + 16 through two 54-px crops: 5776 pixels computed, not 11664.
        plan = TilingPlan(tile=48, halo=3)
        assert plan.grid(64, 64) == (32, 32, 38, 38)

    def test_non_square_ragged(self):
        # 44 = 3 tiles of 16 (last 12), 36 = 3 tiles of 12; halo 8 crops.
        assert TilingPlan(tile=16, halo=8, divisor=2).grid(44, 36) == (16, 12, 32, 28)

    def test_edges_round_up_onto_divisor_grid(self):
        # ceil(70/3) = 24, ceil(50/2) = 25 -> 26 for the pixel-unshuffle
        # head; the 50-px crop clamps to the image.
        plan = plan_for_model(dn_ernet_pu(blocks=1, ratio=1), tile=32)
        assert (plan.halo, plan.divisor) == (8, 2)
        assert plan.grid(70, 50) == (24, 26, 40, 42)

    def test_prime_extents(self):
        assert TilingPlan(tile=16, halo=6).grid(37, 53) == (13, 14, 25, 26)

    def test_image_within_tile_is_one_whole_crop(self):
        assert TilingPlan(tile=48, halo=3).grid(48, 20) == (48, 20, 48, 20)

    @pytest.mark.parametrize("tile", [8, 16, 22, 48])
    @pytest.mark.parametrize("halo, divisor", [(3, 1), (8, 2)])
    def test_never_worse_than_the_remainder_rule(self, tile, halo, divisor):
        # The grid is separable, so per-axis bounds bound the 2-D counts.
        plan = TilingPlan(tile=tile, halo=halo, divisor=divisor)
        for extent in range(divisor, 201, divisor):
            edge, _, crop, _ = plan.grid(extent, extent)
            assert edge <= tile and edge % divisor == 0
            assert crop <= plan.crop
            count = -(-extent // edge)
            old_edge = min(tile, extent)
            old_count = -(-extent // old_edge)
            old_crop = min(extent, old_edge + 2 * halo)
            assert count <= old_count, extent
            assert count * crop <= old_count * old_crop, extent


class TestBatching:
    def test_batched_equals_single_batch(self):
        model = dn_ernet_pu(blocks=1, ratio=1, seed=3)
        _randomize(model, seed=3)
        x = np.random.default_rng(4).standard_normal((5, 1, 16, 16))
        whole = Predictor(model, batch_size=16)(x)
        chunked = Predictor(model, batch_size=2)(x)
        np.testing.assert_allclose(chunked, whole, atol=1e-12)

    def test_input_validation(self):
        model = dn_ernet_pu(blocks=1, ratio=1)
        with pytest.raises(ValueError):
            Predictor(model, batch_size=0)
        with pytest.raises(ValueError):
            Predictor(model)(np.zeros((1, 16, 16)))
        with pytest.raises(ValueError):
            Predictor(model)(np.zeros((1, 1, 15, 16)))  # odd size vs divisor 2

    def test_predict_image_convenience(self):
        model = dn_ernet_pu(blocks=1, ratio=1, seed=5)
        _randomize(model, seed=5)
        img = np.random.default_rng(6).standard_normal((1, 16, 16))
        out = Predictor(model).predict_image(img)
        np.testing.assert_allclose(out, Predictor(model)(img[None])[0], atol=1e-12)


class TestTiledEqualsWhole:
    def test_denoise_tiled_equals_whole(self):
        model = dn_ernet_pu(blocks=1, ratio=1, seed=0)
        _randomize(model, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 1, 64, 48))
        whole = Predictor(model, tile=64)(x)
        tiled = Predictor(model, batch_size=1, tile=16)(x)
        np.testing.assert_allclose(tiled, whole, atol=1e-10)

    def test_denoise_ring_model_tiled(self):
        model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("ri4+fh"), seed=1)
        _randomize(model, seed=1)
        x = np.random.default_rng(2).standard_normal((1, 1, 48, 48))
        whole = Predictor(model, tile=48)(x)
        tiled = Predictor(model, tile=16)(x)
        np.testing.assert_allclose(tiled, whole, atol=1e-10)

    def test_sr_tiled_equals_whole(self):
        # The x4-SR model's bicubic global skip replicates borders; the
        # clamped-window tiling must still reproduce it exactly.
        model = sr4_ernet(blocks=1, ratio=1, seed=2)
        _randomize(model, seed=2)
        x = np.random.default_rng(3).standard_normal((1, 1, 32, 24))
        whole = Predictor(model, tile=32)(x)
        assert whole.shape == (1, 1, 128, 96)
        tiled = Predictor(model, tile=8)(x)
        np.testing.assert_allclose(tiled, whole, atol=1e-10)

    def test_image_larger_than_any_training_tile(self):
        # Bounded-memory path: a 96x96 image through 16-pixel tiles.
        model = dn_ernet_pu(blocks=1, ratio=1, seed=4)
        _randomize(model, seed=4)
        x = np.random.default_rng(5).standard_normal((1, 1, 96, 96))
        plan = plan_for_model(model, tile=16)
        out = Predictor(model, batch_size=1, plan=plan)(x)
        assert out.shape == x.shape
        whole = Predictor(model, tile=96)(x)
        np.testing.assert_allclose(out, whole, atol=1e-10)

    def test_non_tile_multiple_edges(self):
        # Image size not a multiple of the tile: ragged last row/column.
        model = dn_ernet_pu(blocks=1, ratio=1, seed=6)
        _randomize(model, seed=6)
        x = np.random.default_rng(7).standard_normal((1, 1, 44, 36))
        whole = Predictor(model, tile=44)(x)
        tiled = Predictor(model, tile=16)(x)
        np.testing.assert_allclose(tiled, whole, atol=1e-10)


class TestAdversarialTilingParity:
    """Adversarial tiling geometries, pinned at two strengths.

    Under the shape-invariant :class:`EinsumBackend` (each output
    element's reduction never depends on the GEMM extent around it),
    tiled output must be **bit-identical** to whole-image inference —
    the strongest form of the module's exactness claim.  On the BLAS
    reference backend the same operands may be reassociated when crop
    extents change the GEMM dimensions, so there the assertion is exact
    math up to reassociation: ``rtol=0, atol=1e-13``.
    """

    @staticmethod
    def _tiled_vs_whole(model, x, tile, batch_size=8):
        einsum = EinsumBackend()
        whole = Predictor(model, tile=max(x.shape[2:]), backend=einsum)(x)
        tiled = Predictor(model, batch_size=batch_size, tile=tile, backend=einsum)(x)
        assert np.array_equal(tiled, whole), "einsum tiled != whole (bit-level)"
        whole_blas = Predictor(model, tile=max(x.shape[2:]))(x)
        tiled_blas = Predictor(model, batch_size=batch_size, tile=tile)(x)
        np.testing.assert_allclose(tiled_blas, whole_blas, rtol=0, atol=1e-13)

    def test_tile_equals_image_edge(self):
        # tile == one image edge: tiling degenerates along that axis but
        # still cuts the other; both axes hit the clamped-crop edge case.
        model = dn_ernet_pu(blocks=1, ratio=1, seed=10)
        _randomize(model, seed=10)
        x = np.random.default_rng(20).standard_normal((2, 1, 32, 48))
        self._tiled_vs_whole(model, x, tile=32)

    def test_minimal_halo(self):
        # The smallest halo that still covers the receptive field: every
        # retained pixel sits exactly at the coverage boundary, so an
        # off-by-one in the halo arithmetic flips bits here first.
        model = dn_ernet_pu(blocks=1, ratio=1, seed=11)
        _randomize(model, seed=11)
        derived = plan_for_model(model, tile=16)
        plan = TilingPlan(
            tile=16, halo=derived.halo, scale=derived.scale, divisor=derived.divisor
        )
        x = np.random.default_rng(21).standard_normal((1, 1, 48, 32))
        einsum = EinsumBackend()
        whole = Predictor(model, tile=48, backend=einsum)(x)
        tiled = Predictor(model, plan=plan, backend=einsum)(x)
        assert np.array_equal(tiled, whole)
        # One step below the sound halo must *not* match: proves the
        # assertion above has teeth (the halo is minimal, not slack).
        short = TilingPlan(
            tile=16,
            halo=derived.halo - derived.divisor,
            scale=derived.scale,
            divisor=derived.divisor,
        )
        under = Predictor(model, plan=short, backend=einsum)(x)
        assert not np.array_equal(under, whole)

    def test_non_square_and_prime_sizes(self):
        # Prime extents guarantee ragged final tiles on both axes and
        # defeat any accidental reliance on divisibility.
        sr = sr4_ernet(blocks=1, ratio=1, seed=12)
        _randomize(sr, seed=12)
        x = np.random.default_rng(22).standard_normal((1, 1, 37, 53))
        self._tiled_vs_whole(sr, x, tile=16)

    def test_prime_tile_on_denoiser(self):
        model = dn_ernet_pu(blocks=1, ratio=1, seed=13)
        _randomize(model, seed=13)
        x = np.random.default_rng(23).standard_normal((1, 1, 38, 54))
        self._tiled_vs_whole(model, x, tile=22)

    def test_batch_remainder_of_one(self):
        # 9 images through batch_size 8: the final forward carries a
        # single crop — the degenerate GEMM batch.
        model = dn_ernet_pu(blocks=1, ratio=1, seed=14)
        _randomize(model, seed=14)
        x = np.random.default_rng(24).standard_normal((9, 1, 16, 16))
        einsum = EinsumBackend()
        whole = Predictor(model, batch_size=16, backend=einsum)(x)
        chunked = Predictor(model, batch_size=8, backend=einsum)(x)
        assert np.array_equal(chunked, whole)
        # Batch-axis chunking is bit-exact on the BLAS backend too (the
        # per-slice GEMM dimensions never change) — the guarantee the
        # serving layer's micro-batching rests on.
        whole_blas = Predictor(model, batch_size=16)(x)
        chunked_blas = Predictor(model, batch_size=8)(x)
        assert np.array_equal(chunked_blas, whole_blas)

    def test_rebalanced_remainder_tile(self):
        # 64 px at tile 48 on three FRCONV layers (halo 3): the geometry
        # the balanced grid changed from 48 + 16 to 2 x 32.
        spec = get_ring("h")
        model = Sequential(
            *(
                layer
                for seed in range(3)
                for layer in (FastRingConv2d(4, 4, 3, spec, padding=1, seed=seed), ReLU())
            )
        )
        _randomize(model, seed=16)
        assert plan_for_model(model, tile=48).grid(64, 64) == (32, 32, 38, 38)
        x = np.random.default_rng(26).standard_normal((1, 4, 64, 64))
        self._tiled_vs_whole(model, x, tile=48)

    def test_tiled_jobs_batch_remainder(self):
        # Tiled path, 2x2 tile grid per image + batch_size 3: crop
        # batches straddle images and end on a remainder of 1.
        model = dn_ernet_pu(blocks=1, ratio=1, seed=15)
        _randomize(model, seed=15)
        x = np.random.default_rng(25).standard_normal((1, 1, 32, 32))
        einsum = EinsumBackend()
        whole = Predictor(model, tile=32, backend=einsum)(x)
        tiled = Predictor(model, batch_size=3, tile=16, backend=einsum)(x)
        assert np.array_equal(tiled, whole)
