"""Tests for the deterministic reduction helpers (repro.comms.reduce)."""

import numpy as np
import pytest

from repro.comms import flatten_arrays, tree_reduce, unflatten_into


class TestTreeReduce:
    def test_empty_operands_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            tree_reduce([])

    def test_single_operand_passes_through(self):
        arr = np.arange(3.0)
        assert tree_reduce([arr]) is arr

    def test_matches_exact_sum_on_integers(self):
        # Integer-valued floats add exactly, so the tree must equal the
        # plain sum whenever no rounding is involved.
        for count in range(1, 12):
            items = [np.float64(i + 1) for i in range(count)]
            assert tree_reduce(items) == sum(items)

    @pytest.mark.smoke
    def test_tree_order_is_pinned_not_left_fold(self):
        # [1, 1e16, -1e16, 1]: a left fold absorbs the 1.0s into the
        # big magnitudes and returns 1.0; the pinned tree pairs
        # (1 + 1e16) + (-1e16 + 1) = 0.0.  Asserting the exact tree
        # value pins the reduction shape, not just "some deterministic
        # order".
        items = [np.float64(v) for v in (1.0, 1e16, -1e16, 1.0)]
        fold = items[0]
        for item in items[1:]:
            fold = fold + item
        assert fold == 1.0
        assert tree_reduce(items) == 0.0

    def test_odd_operand_carried_up_unchanged(self):
        # 5 operands: ((a+b)+(c+d)) + e — e joins at the last level.
        a, b, c, d, e = (np.float64(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0))
        assert tree_reduce([a, b, c, d, e]) == ((a + b) + (c + d)) + e

    def test_works_elementwise_on_arrays(self):
        rng = np.random.default_rng(0)
        items = [rng.standard_normal((3, 2)) for _ in range(7)]
        out = tree_reduce(items)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out, sum(items), rtol=1e-12)

    def test_same_operands_same_bytes(self):
        rng = np.random.default_rng(1)
        items = [rng.standard_normal(64) for _ in range(6)]
        first = tree_reduce(list(items))
        again = tree_reduce([item.copy() for item in items])
        assert first.tobytes() == again.tobytes()


class TestFlatten:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal(s) for s in [(2, 3), (4,), (1, 2, 2)]]
        flat = flatten_arrays(arrays, like=arrays)
        assert flat.dtype == np.float64 and flat.shape == (14,)
        targets = [np.zeros_like(a) for a in arrays]
        unflatten_into(flat, targets)
        for src, dst in zip(arrays, targets, strict=True):
            assert src.tobytes() == dst.tobytes()

    def test_none_entries_become_zeros_of_template_shape(self):
        like = [np.ones((2, 2)), np.ones(3)]
        flat = flatten_arrays([None, np.arange(3.0)], like=like)
        np.testing.assert_array_equal(flat, [0, 0, 0, 0, 0, 1, 2])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            flatten_arrays([None], like=[np.ones(2), np.ones(2)])

    def test_unflatten_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="elements"):
            unflatten_into(np.zeros(5), [np.zeros((2, 2))])

    def test_empty_lists_flatten_to_empty_vector(self):
        assert flatten_arrays([], like=[]).shape == (0,)

