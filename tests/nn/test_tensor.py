"""Tests for the autodiff Tensor: forward values and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor, as_tensor, concat, no_grad


class TestForward:
    @pytest.mark.smoke
    def test_arithmetic_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        np.testing.assert_array_equal((a + b).data, [4, 6])
        np.testing.assert_array_equal((a - b).data, [-2, -2])
        np.testing.assert_array_equal((a * b).data, [3, 8])
        np.testing.assert_array_equal((a / b).data, [1 / 3, 0.5])
        np.testing.assert_array_equal((a**2).data, [1, 4])

    def test_scalar_coercion(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a + 1).data, [2, 3])
        np.testing.assert_array_equal((2 * a).data, [2, 4])
        np.testing.assert_array_equal((3 - a).data, [2, 1])

    def test_matmul(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)

    def test_reshape_transpose(self):
        a = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4))
        assert a.reshape(6, 4).shape == (6, 4)
        assert a.transpose(2, 0, 1).shape == (4, 2, 3)

    def test_transpose_no_args_reverses_axes(self):
        # Regression: transpose() used to raise "axes don't match array".
        a = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4), requires_grad=True)
        out = a.transpose()
        assert out.shape == (4, 3, 2)
        np.testing.assert_array_equal(out.data, a.data.transpose())
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3, 4)))

    def test_reductions(self):
        a = Tensor(np.ones((3, 4)))
        assert float(a.sum().data) == 12
        assert float(a.mean().data) == 1
        assert a.sum(axis=1).shape == (3,)
        assert a.mean(axis=0, keepdims=True).shape == (1, 4)

    def test_relu_and_leaky(self):
        a = Tensor([-2.0, 3.0])
        np.testing.assert_array_equal(a.relu().data, [0, 3])
        np.testing.assert_array_equal(a.leaky_relu(0.1).data, [-0.2, 3])

    def test_pad_crop(self):
        a = Tensor(np.ones((1, 1, 2, 2)))
        padded = a.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        assert float(padded.data.sum()) == 4
        np.testing.assert_array_equal(padded.crop2d(1).data, a.data)

    def test_concat(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)


class TestBackward:
    def test_requires_scalar_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_simple_chain(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        out = (a * b + a) ** 2  # (ab + a)^2 = (2*3+2)^2 = 64
        out.backward()
        assert float(out.data) == 64
        # d/da = 2(ab+a)(b+1) = 2*8*4 = 64 ; d/db = 2(ab+a)*a = 32
        assert float(a.grad) == 64
        assert float(b.grad) == 32

    def test_gradient_accumulation_on_reuse(self):
        a = Tensor(3.0, requires_grad=True)
        out = a * a + a  # da = 2a + 1 = 7
        out.backward()
        assert float(a.grad) == 7

    def test_broadcast_add_gradient(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        ((a + b) * 1.0).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (1, 3)
        np.testing.assert_array_equal(b.grad, [[2, 2, 2]])

    def test_no_grad_blocks_graph(self):
        a = Tensor(1.0, requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    @pytest.mark.parametrize(
        "builder",
        [
            lambda t: (t * t).sum(),
            lambda t: (t + 2).mean(),
            lambda t: (t / 3.0).sum(),
            lambda t: (t**3).sum(),
            lambda t: t.relu().sum(),
            lambda t: t.leaky_relu(0.2).sum(),
            lambda t: t.abs().sum(),
            lambda t: t.exp().sum(),
            lambda t: t.reshape(6).sum(),
            lambda t: t.transpose(1, 0).sum(),
            lambda t: (t.transpose(1, 0) @ t).sum(),
            lambda t: t.mean(axis=1).sum(),
            lambda t: t.sum(axis=0, keepdims=True).mean(),
        ],
    )
    def test_gradcheck_elementwise(self, builder):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3)) + 0.1  # avoid relu/abs kinks at 0
        check_gradients(builder, x, rtol=1e-4, atol=1e-6)

    def test_gradcheck_log(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, (2, 3))
        check_gradients(lambda t: t.log().sum(), x)

    def test_gradcheck_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        check_gradients(lambda t: (t @ w).sum(), x)

    def test_gradcheck_div_by_tensor(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 2.0, (2, 2))

        def build(t):
            return (Tensor(np.ones((2, 2))) / t).sum()

        check_gradients(build, x)

    def test_gradcheck_pad_crop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 4, 4))
        check_gradients(lambda t: (t.pad2d(1) ** 2).sum(), x)
        check_gradients(lambda t: (t.crop2d(1) ** 2).sum(), x)

    def test_gradcheck_tuple_transform(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4))
        mat = rng.standard_normal((4, 4))
        check_gradients(lambda t: (t.tuple_transform(mat, axis=2) ** 2).sum(), x)

    def test_gradcheck_concat(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3))

        def build(t):
            other = Tensor(np.ones((2, 2)))
            return (concat([t, other], axis=1) ** 2).sum()

        check_gradients(build, x)

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(
            # Keep t*t + t away from the ReLU kink (zeros at t = 0 and -1).
            st.floats(-3, 3, allow_nan=False).filter(
                lambda v: abs(v * v + v) > 5e-2
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_hypothesis_composite_gradcheck(self, data):
        x = np.array(data).reshape(2, 2)
        check_gradients(lambda t: ((t * t + t).relu() * 2).sum(), x, atol=1e-5)


class TestUtility:
    def test_detach_breaks_graph(self):
        a = Tensor(np.ones(2), requires_grad=True)
        assert not a.detach().requires_grad

    def test_as_tensor_idempotent(self):
        a = Tensor(1.0)
        assert as_tensor(a) is a
        assert isinstance(as_tensor(2.0), Tensor)

    def test_numpy_view(self):
        a = Tensor(np.ones(3))
        assert a.numpy() is a.data


class TestGradStateThreadLocality:
    """no_grad must scope per thread, or concurrent inference workers
    would re-enable graph construction under each other (the serving
    layer runs one no_grad per worker, overlapping arbitrarily)."""

    def test_no_grad_in_worker_does_not_leak_to_main(self):
        import threading

        from repro.nn.tensor import is_grad_enabled

        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def worker() -> None:
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                observed["worker_inside"] = is_grad_enabled()
            observed["worker_after"] = is_grad_enabled()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=10)
        # Main thread still records graphs while the worker is inside.
        assert is_grad_enabled()
        a = Tensor(np.ones(2), requires_grad=True)
        out = (a * 3).sum()
        release.set()
        thread.join()
        out.backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])
        assert observed == {"worker_inside": False, "worker_after": True}

    def test_new_threads_start_with_grads_enabled(self):
        import threading

        from repro.nn.tensor import is_grad_enabled

        # Even when spawned from inside a no_grad block: the flag is
        # per-thread state, not inherited ambient state.
        observed = {}
        with no_grad():
            thread = threading.Thread(
                target=lambda: observed.setdefault("enabled", is_grad_enabled())
            )
            thread.start()
            thread.join()
        assert observed == {"enabled": True}


def _signed_zeros(rng, shape):
    """Gaussian data with every third entry set to -0.0."""
    a = rng.standard_normal(shape)
    a.flat[::3] = -0.0
    return a


def _tuple_mats():
    from repro.rings.catalog import get_ring
    from repro.rings.nonlinearity import hadamard_relu

    fast = get_ring("h").fast
    relu = hadamard_relu(4)
    return {"V": relu.v_mat, "U": relu.u_mat, "T_x": fast.tx, "T_z": fast.tz}


class TestTupleTransformLayout:
    """``tuple_transform`` runs one (m, n) x (n, P) GEMM per leading index
    over the contiguous (*lead, n, P) reshape.  It must give the bytes of
    the moveaxis form it replaced — a (P, n) x (n, m) product over the
    tuple axis moved last — forward and VJP, signed zeros included, so
    no trained byte changes."""

    @pytest.mark.parametrize(
        ("shape", "mat"),
        [
            ((1, 2, 4, 8, 8), "V"),  # dn-small's directional ReLU
            ((1, 2, 4, 8, 8), "U"),
            ((8, 2, 4, 12, 12), "V"),  # train-dn's batch
            ((8, 2, 4, 12, 12), "U"),
            ((4, 4, 4, 38, 38), "T_x"),  # frconv-64's tile crops
            ((4, 4, 8, 38, 38), "T_z"),
            ((16, 4, 4, 32, 32), "T_x"),
            ((16, 4, 4, 32, 32), "V"),
        ],
    )
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_equals_the_moveaxis_form(self, shape, mat, strided):
        mat = _tuple_mats()[mat]
        rng = np.random.default_rng(12)
        if strided:  # FRCONV's T_z input is a transposed view
            x = _signed_zeros(rng, (shape[0], shape[2], shape[1], *shape[3:]))
            x = x.transpose(0, 2, 1, 3, 4)
        else:
            x = _signed_zeros(rng, shape)
        t = Tensor(x, requires_grad=True)
        out = t.tuple_transform(mat, axis=2)
        ref = np.moveaxis(np.moveaxis(x, 2, -1) @ mat.T, -1, 2)
        assert out.data.flags.c_contiguous
        assert out.data.tobytes() == ref.tobytes()
        grad = _signed_zeros(rng, out.shape)
        out.backward(grad)
        ref_grad = np.moveaxis(np.moveaxis(grad, 2, -1) @ mat, -1, 2)
        assert t.grad.tobytes() == ref_grad.tobytes()
