"""Backend protocol tests: selection precedence and bit-exact parity.

Every registered backend must produce **bit-identical** outputs and
gradients to the reference :class:`NumpyBackend` — the acceptance bar
for the pluggable-kernel API, since experiment artifacts and cache
fingerprints must never depend on the execution substrate.
"""

import os

import numpy as np
import pytest

from repro.nn import backend as backend_module
from repro.nn.backend import (
    BACKEND_ENV_VAR,
    Backend,
    NumpyBackend,
    SplitBackend,
    available_backends,
    current_backend,
    default_backend,
    get_backend,
    make_backend,
    use_backend,
)
from repro.nn.fastconv import FastRingConv2d
from repro.nn.functional import avg_pool2d, conv2d, conv2d_grouped
from repro.nn.inference import Predictor
from repro.nn.tensor import Tensor, no_grad
from repro.rings.catalog import get_ring


def _threaded_forced() -> SplitBackend:
    """A threaded SplitBackend that parallelizes even tiny test problems."""
    backend = SplitBackend(threads=3)
    backend.MIN_PARALLEL_ELEMENTS = 0
    return backend


def _threaded_blocked_forced() -> SplitBackend:
    """Pool-run block spans: a setting neither alias reaches."""
    backend = SplitBackend(threads=2, block=2)
    backend.MIN_PARALLEL_ELEMENTS = 0
    return backend


def _alternative_backends() -> list[Backend]:
    """Every non-reference backend, configured so its special path runs."""
    return [
        _threaded_forced(),
        SplitBackend(threads=1, block=1),
        SplitBackend(threads=1, block=2),
        _threaded_blocked_forced(),
    ]


def _alt_ids() -> list[str]:
    return ["threaded:3", "blocked:1", "blocked:2", "threads2-block2"]


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
class TestSelection:
    @pytest.mark.smoke
    def test_default_is_numpy_and_context_overrides(self, monkeypatch):
        # CI runs this suite under a REPRO_BACKEND matrix; neutralize it
        # here — this test pins down the *no-environment* precedence.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(current_backend(), NumpyBackend)
        assert current_backend() is default_backend()
        threaded = SplitBackend(threads=2)
        with use_backend(threaded):
            assert current_backend() is threaded
            with use_backend("blocked"):
                assert isinstance(current_backend(), SplitBackend)
            assert current_backend() is threaded
        assert current_backend() is default_backend()

    def test_env_var_between_default_and_context(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded:2")
        env_backend = current_backend()
        assert isinstance(env_backend, SplitBackend) and env_backend.threads == 2
        assert current_backend() is env_backend  # instance cached per spec
        with use_backend("numpy"):
            assert isinstance(current_backend(), NumpyBackend)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert current_backend() is default_backend()

    def test_env_var_invalid_raises_by_name(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR):
            current_backend()

    def test_make_backend_specs(self):
        assert isinstance(make_backend("numpy"), NumpyBackend)
        threaded = make_backend("threaded:5")
        assert (threaded.threads, threaded.block) == (5, None)
        assert make_backend("blocked:4").block == 4
        blocked = make_backend("Blocked")  # case-insensitive, default arg
        assert (blocked.threads, blocked.block) == (1, 1)
        instance = SplitBackend()
        assert make_backend(instance) is instance

    def test_make_backend_errors_name_alternatives(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            make_backend("gpu")
        with pytest.raises(ValueError, match="numpy"):
            make_backend("gpu")  # message lists what IS available
        with pytest.raises(ValueError, match="bad backend spec"):
            make_backend("threaded:lots")
        with pytest.raises(ValueError):
            SplitBackend(threads=0)
        with pytest.raises(ValueError):
            SplitBackend(block=0)

    def test_available_backends_registered(self):
        names = available_backends()
        assert {"numpy", "threaded", "blocked"} <= set(names)

    def test_get_backend_shares_one_instance_per_spec(self):
        shared = get_backend("threaded:7")
        assert get_backend("threaded:7") is shared  # no thread-pool churn
        assert make_backend("threaded:7") is not shared  # explicit fresh copy
        instance = SplitBackend()
        assert get_backend(instance) is instance


# ----------------------------------------------------------------------
# primitive parity (bit-exact, not allclose)
# ----------------------------------------------------------------------
def _conv_case(backend, xd, wd, bd, stride, padding, grouped):
    op = conv2d_grouped if grouped else conv2d
    x = Tensor(xd.copy(), requires_grad=True)
    w = Tensor(wd.copy(), requires_grad=True)
    b = Tensor(bd.copy(), requires_grad=True)
    with use_backend(backend):
        out = op(x, w, b, stride=stride, padding=padding)
        (out**2).sum().backward()
        with no_grad():
            inferred = op(Tensor(xd), Tensor(wd), Tensor(bd), stride=stride, padding=padding)
    return out.data, inferred.data, x.grad, w.grad, b.grad


@pytest.mark.parametrize("backend", _alternative_backends(), ids=_alt_ids())
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
class TestConvParity:
    def test_conv2d_bit_identical(self, backend, stride, padding):
        rng = np.random.default_rng(0)
        xd = rng.standard_normal((5, 3, 12, 12))
        wd = rng.standard_normal((4, 3, 3, 3))
        bd = rng.standard_normal(4)
        base = _conv_case(NumpyBackend(), xd, wd, bd, stride, padding, grouped=False)
        got = _conv_case(backend, xd, wd, bd, stride, padding, grouped=False)
        for name, ref, other in zip(("out", "infer", "dx", "dw", "db"), base, got, strict=True):
            assert np.array_equal(ref, other), f"{name} differs on {backend!r}"

    def test_conv2d_grouped_bit_identical(self, backend, stride, padding):
        rng = np.random.default_rng(1)
        xd = rng.standard_normal((5, 4, 2, 11, 11))
        wd = rng.standard_normal((4, 3, 2, 3, 3))
        bd = rng.standard_normal((4, 3))
        base = _conv_case(NumpyBackend(), xd, wd, bd, stride, padding, grouped=True)
        got = _conv_case(backend, xd, wd, bd, stride, padding, grouped=True)
        for name, ref, other in zip(("out", "infer", "dx", "dw", "db"), base, got, strict=True):
            assert np.array_equal(ref, other), f"{name} differs on {backend!r}"


def test_grouped_batch_one_splits_group_axis_bit_identical():
    """Batch-1 FRCONV-style work parallelizes over the m products."""
    rng = np.random.default_rng(20)
    xd = rng.standard_normal((1, 8, 2, 10, 10))
    wd = rng.standard_normal((8, 3, 2, 3, 3))
    bd = rng.standard_normal((8, 3))
    base = _conv_case(NumpyBackend(), xd, wd, bd, 1, 1, grouped=True)
    got = _conv_case(_threaded_forced(), xd, wd, bd, 1, 1, grouped=True)
    for name, ref, other in zip(("out", "infer", "dx", "dw", "db"), base, got, strict=True):
        assert np.array_equal(ref, other), f"{name} differs on group-axis split"


@pytest.mark.parametrize("backend", _alternative_backends(), ids=_alt_ids())
def test_infer_preserves_float32_dtype(backend):
    """The raw ndarray API must match the reference dtype, not force f64."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((6, 2, 9, 9)).astype(np.float32)
    w = rng.standard_normal((3, 18)).astype(np.float32)
    ref = NumpyBackend().conv2d_infer(x, w, 3, 3, 1, 1)
    got = backend.conv2d_infer(x, w, 3, 3, 1, 1)
    assert got.dtype == ref.dtype == np.float32
    np.testing.assert_allclose(got, ref, rtol=1e-6)
    xg = rng.standard_normal((6, 4, 2, 9, 9)).astype(np.float32)
    wg = rng.standard_normal((4, 3, 18)).astype(np.float32)
    ref_g = NumpyBackend().conv2d_grouped_infer(xg, wg, 3, 3, 1, 1)
    got_g = backend.conv2d_grouped_infer(xg, wg, 3, 3, 1, 1)
    assert got_g.dtype == ref_g.dtype == np.float32
    np.testing.assert_allclose(got_g, ref_g, rtol=1e-6)


@pytest.mark.parametrize("backend", _alternative_backends(), ids=_alt_ids())
class TestOtherPrimitiveParity:
    def test_matmul_and_pooling_bit_identical(self, backend):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((32, 12))
        b = rng.standard_normal((12, 8))
        batched = rng.standard_normal((6, 9, 7))
        batched_b = rng.standard_normal((6, 7, 5))
        pool_in = rng.standard_normal((4, 3, 8, 8))
        ref = NumpyBackend()
        assert np.array_equal(backend.matmul(a, b), ref.matmul(a, b))
        assert np.array_equal(backend.matmul(batched, batched_b), ref.matmul(batched, batched_b))
        assert np.array_equal(
            backend.matmul(batched, batched_b[0]), ref.matmul(batched, batched_b[0])
        )
        assert np.array_equal(backend.avg_pool2d(pool_in, 2), ref.avg_pool2d(pool_in, 2))

    def test_linear_and_pool_layers_through_graph(self, backend):
        rng = np.random.default_rng(3)
        xd = rng.standard_normal((16, 2, 4, 4))

        def run(chosen):
            x = Tensor(xd.copy(), requires_grad=True)
            with use_backend(chosen):
                out = avg_pool2d(x, 2)
                (out**2).sum().backward()
            return out.data, x.grad

        base_out, base_grad = run(NumpyBackend())
        got_out, got_grad = run(backend)
        assert np.array_equal(base_out, got_out)
        assert np.array_equal(base_grad, got_grad)


# ----------------------------------------------------------------------
# im2col / col2im against the padded lowering (byte equality)
# ----------------------------------------------------------------------
def _oracle_im2col(x, kh, kw, stride, padding):
    """Pad with np.pad, view the windows with as_strided, copy them."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, hp, wp = x.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, ho, wo), strides=(s0, s1, s2, s3, s2 * stride, s3 * stride)
    )
    return np.ascontiguousarray(windows).reshape(n, c * kh * kw, ho * wo), (hp, wp, ho, wo)


def _oracle_col2im(dcols, x_shape, kh, kw, stride, padding, ho, wo):
    """Scatter-add every tap's whole window into a padded buffer, then crop."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[
                :, :, i, j
            ]
    return dxp[:, :, padding : padding + h, padding : padding + w]


def _signed_zeros(rng, shape):
    """Gaussian data with every third entry set to -0.0."""
    a = rng.standard_normal(shape)
    a.flat[::3] = -0.0
    return a


def _same_bytes(got, ref):
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _check_lowering(backend, x_shape, k, stride, padding, seed):
    """im2col and col2im equal the oracles byte for byte, twice in a row
    (the second call reuses whatever scratch the first one left)."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        x = _signed_zeros(rng, x_shape)
        cols, dims = backend.im2col(x, k, k, stride, padding)
        ref_cols, ref_dims = _oracle_im2col(x, k, k, stride, padding)
        assert dims == ref_dims
        assert _same_bytes(cols, ref_cols), f"im2col differs on {backend!r}"
        ho, wo = dims[2], dims[3]
        dcols = _signed_zeros(rng, cols.shape)
        dx = backend.col2im(dcols, x_shape, k, k, stride, padding, ho, wo)
        ref_dx = _oracle_col2im(dcols, x_shape, k, k, stride, padding, ho, wo)
        assert _same_bytes(dx, ref_dx), f"col2im differs on {backend!r}"


def _lowering_cases():
    """Kernel 1/3/5, stride 1/2, padding 0, 1, 2 and >= kernel (taps whose
    windows land wholly in the padding), on a small and a 1-row input."""
    cases = []
    for k in (1, 3, 5):
        for stride in (1, 2):
            for padding in sorted({0, 1, 2, k, k + 2}):
                for shape in ((2, 3, 7, 6), (1, 2, 1, 2)):
                    if min(shape[2:]) + 2 * padding >= k:
                        cases.append((shape, k, stride, padding))
    return cases


@pytest.mark.parametrize(("x_shape", "k", "stride", "padding"), _lowering_cases())
def test_im2col_col2im_match_padded_oracle(x_shape, k, stride, padding):
    for backend in [NumpyBackend(), *_alternative_backends()]:
        _check_lowering(backend, x_shape, k, stride, padding, seed=30)


@pytest.mark.smoke
def test_im2col_col2im_oracle_smoke():
    """One oracle case on whatever backend is active (CI runs this under
    every REPRO_BACKEND), with padding wider than the kernel."""
    _check_lowering(current_backend(), (3, 2, 5, 4), 3, 2, 4, seed=31)


def test_im2col_cols_outlive_the_padded_scratch():
    """cols never aliases the recycled padded input, even where its
    windows are C-contiguous (1x1 kernel at stride 1; a kernel covering
    the whole padded input), so a later same-shape call cannot rewrite
    cols the tape still holds."""
    rng = np.random.default_rng(35)
    backend = NumpyBackend()
    for k in (1, 3):
        first = rng.standard_normal((2, 3, 1, 1))
        cols, _ = backend.im2col(first, k, k, 1, 1)
        kept = cols.copy()
        backend.im2col(rng.standard_normal((2, 3, 1, 1)), k, k, 1, 1)
        assert _same_bytes(cols, kept)
        assert _same_bytes(cols, _oracle_im2col(first, k, k, 1, 1)[0])


# ----------------------------------------------------------------------
# inference kernels and the scratch pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 4)])
def test_infer_out_none_equals_out_path_and_training_forward(stride, padding):
    """On NumpyBackend, eager no-grad convs (``out=None``), the compiled
    replay's direct-write kernels (``out=`` given) and the training
    forward give the same bytes."""
    rng = np.random.default_rng(32)
    x = _signed_zeros(rng, (3, 4, 9, 8))
    w_mat = rng.standard_normal((5, 4 * 9))
    xg = _signed_zeros(rng, (2, 3, 2, 9, 8))
    w_flat = rng.standard_normal((3, 4, 2 * 9))
    backend = NumpyBackend()
    trained = backend.conv2d(x, w_mat, 3, 3, stride, padding)[0]
    eager = backend.conv2d_infer(x, w_mat, 3, 3, stride, padding)
    into = backend.conv2d_infer(x, w_mat, 3, 3, stride, padding, out=np.empty_like(eager))
    assert _same_bytes(eager, into) and _same_bytes(eager, trained)
    trained_g = backend.conv2d_grouped(xg, w_flat, 3, 3, stride, padding)[0]
    eager_g = backend.conv2d_grouped_infer(xg, w_flat, 3, 3, stride, padding)
    into_g = backend.conv2d_grouped_infer(
        xg, w_flat, 3, 3, stride, padding, out=np.empty_like(eager_g)
    )
    assert _same_bytes(eager_g, into_g) and _same_bytes(eager_g, trained_g)


def test_cols_scratch_pins_the_largest_request_not_the_sum():
    backend = NumpyBackend()
    rng = np.random.default_rng(34)
    w_mat = rng.standard_normal((4, 3 * 9))
    batches = (2, 5, 1, 8, 3, 7, 4, 6)
    for n in batches:
        out = np.empty((n, 4, 10, 10))
        backend.conv2d_infer(rng.standard_normal((n, 3, 10, 10)), w_mat, 3, 3, 1, 1, out=out)
    largest = max(batches) * 3 * 9 * 10 * 10 * 8
    assert backend._scratch_pool().cols_bytes.nbytes == largest
    # frconv-64's grouped conv: 13 MB of cols in one piece, but the
    # kernel fills them a chunk at a time, so the pool pins one chunk.
    x = rng.standard_normal((4, 8, 4, 38, 38))
    out = np.empty((4, 8, 4, 38, 38))
    backend.conv2d_grouped_infer(x, rng.standard_normal((8, 4, 4 * 9)), 3, 3, 1, 1, out=out)
    held = backend._scratch_pool().cols_bytes.nbytes
    slice_bytes = 4 * 9 * 38 * 38 * 8
    if slice_bytes > backend_module._CHUNK_BYTES:
        assert held == max(largest, slice_bytes)
    else:
        assert largest <= held <= backend_module._CHUNK_BYTES


@pytest.mark.parametrize("padding", [0, 1])
def test_conv_geometry_cache_never_serves_a_stale_input(padding):
    """Two different inputs of one shape share one cached geometry entry:
    each call writes its own input's bytes, a cached view never aliases
    the caller's ``x`` (at padding 0 the input is copied too), and
    rewriting the first input after its call changes nothing."""
    rng = np.random.default_rng(36)
    backend = NumpyBackend()
    w_mat = rng.standard_normal((5, 4 * 9))
    first, second = _signed_zeros(rng, (2, 4, 7, 6)), _signed_zeros(rng, (2, 4, 7, 6))
    refs = [NumpyBackend().conv2d(x, w_mat, 3, 3, 1, padding)[0] for x in (first, second)]
    outs = []
    for x in (first, second):
        out = np.full_like(refs[0], np.nan)
        outs.append(backend.conv2d_infer(x, w_mat, 3, 3, 1, padding, out=out))
    first[...] = np.nan
    for out, ref in zip(outs, refs, strict=True):
        assert _same_bytes(out, ref)
    pool = backend._scratch_pool()
    (interior, chunks), = pool._geometry.values()
    for view in (interior, *(a for chunk in chunks for a in chunk[1:])):
        assert not np.shares_memory(view, first) and not np.shares_memory(view, second)
    rerun = backend.conv2d_infer(second, w_mat, 3, 3, 1, padding, out=np.empty_like(refs[1]))
    assert _same_bytes(rerun, refs[1])


def test_conv_geometry_is_rebuilt_after_the_cols_buffer_grows():
    """Growing the cols buffer drops every cached geometry (their cols
    views point into the old buffer); the next call of an earlier
    geometry rebuilds its entry on the new buffer and keeps its bytes."""
    rng = np.random.default_rng(37)
    backend = NumpyBackend()
    pool = backend._scratch_pool()
    w_mat = rng.standard_normal((3, 2 * 9))
    small, large = _signed_zeros(rng, (1, 2, 6, 6)), _signed_zeros(rng, (4, 2, 12, 12))

    def run(x):
        out = np.empty((x.shape[0], 3, *x.shape[2:]))
        backend.conv2d_infer(x, w_mat, 3, 3, 1, 1, out=out)
        assert _same_bytes(out, NumpyBackend().conv2d(x, w_mat, 3, 3, 1, 1)[0])

    run(small)
    before = pool._geometry[(small.shape, small.dtype, 3, 3, 1, 1)]
    run(large)
    assert list(pool._geometry) == [(large.shape, large.dtype, 3, 3, 1, 1)]
    grown = pool.cols_bytes
    run(small)
    after = pool._geometry[(small.shape, small.dtype, 3, 3, 1, 1)]
    assert after is not before and pool.cols_bytes is grown
    assert all(np.shares_memory(chunk[2], grown) for chunk in after[1])


# ----------------------------------------------------------------------
# chunk boundaries of the cache-blocked direct-write kernel
# ----------------------------------------------------------------------
# (id, grouped, batch, budget in cols bytes of one (sample, group) GEMM
# slice, samples per chunk, groups per chunk).  Grouped inputs have 5
# groups, plain ones 1, so every run of 2 leaves a short last chunk.
_CHUNK_CASES = [
    ("plain-one-slice", False, 5, 1.0, 1, 1),
    ("plain-whole-samples", False, 5, 2.0, 2, 1),
    ("plain-slice-over-budget", False, 5, 0.5, 1, 1),
    ("grouped-one-slice", True, 5, 1.0, 1, 1),
    ("grouped-whole-samples", True, 5, 10.0, 2, 5),
    ("grouped-group-runs", True, 5, 2.0, 1, 2),
    ("grouped-slice-over-budget", True, 5, 0.5, 1, 1),
    ("grouped-batch1-group-runs", True, 1, 2.0, 1, 2),
]


def _conv_setup(grouped, n, stride, padding, seed):
    """(x with signed zeros, weight, cols bytes of one GEMM slice)."""
    rng = np.random.default_rng(seed)
    if grouped:
        x = _signed_zeros(rng, (n, 5, 2, 7, 6))
        w = rng.standard_normal((5, 3, 2 * 9))
    else:
        x = _signed_zeros(rng, (n, 3, 7, 6))
        w = rng.standard_normal((4, 3 * 9))
    _, _, ho, wo = backend_module.conv_geometry(7, 6, 3, 3, stride, padding)
    return x, w, x.shape[-3] * 9 * ho * wo * 8


def _check_chunked(backends, grouped, n, stride, padding, seed):
    """out= bytes equal the training forward on NumpyBackend."""
    x, w, _ = _conv_setup(grouped, n, stride, padding, seed)
    if grouped:
        ref = NumpyBackend().conv2d_grouped(x, w, 3, 3, stride, padding)[0]
    else:
        ref = NumpyBackend().conv2d(x, w, 3, 3, stride, padding)[0]
    infer = "conv2d_grouped_infer" if grouped else "conv2d_infer"
    for backend in backends:
        out = np.full_like(ref, np.nan)
        getattr(backend, infer)(x, w, 3, 3, stride, padding, out=out)
        assert _same_bytes(out, ref), f"chunked {infer} differs on {backend!r}"


@pytest.mark.parametrize(
    ("grouped", "n", "budget", "samples", "groups"),
    [case[1:] for case in _CHUNK_CASES],
    ids=[case[0] for case in _CHUNK_CASES],
)
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_chunked_direct_write_equals_training_forward(
    monkeypatch, grouped, n, budget, samples, groups, stride, padding
):
    """Every chunk split of the direct-write kernel writes the training
    forward's bytes, signed zeros included, on every backend: whole
    calls, batch-axis spans and (at batch 1) group-axis spans."""
    _, _, slice_bytes = _conv_setup(grouped, n, stride, padding, seed=40)
    monkeypatch.setattr(backend_module, "_CHUNK_BYTES", int(budget * slice_bytes))
    total = 5 if grouped else 1
    runs = [
        tuple(
            ix.indices(size)[:2]
            for ix, size in zip(index, (n, total)[: len(index)], strict=True)
        )
        for index in backend_module._chunks(n, total, slice_bytes)
    ]
    if groups == total:  # whole samples
        expected = [((i, min(i + samples, n)),) for i in range(0, n, samples)]
    else:
        expected = [
            ((i, i + 1), (j, min(j + groups, total)))
            for i in range(n)
            for j in range(0, total, groups)
        ]
    assert runs == expected
    _check_chunked(
        [NumpyBackend(), *_alternative_backends()], grouped, n, stride, padding, seed=40
    )


@pytest.mark.smoke
def test_chunked_direct_write_smoke(monkeypatch):
    """Group runs with a short last run, on whatever backend is active
    (CI runs this under every REPRO_BACKEND)."""
    _, _, slice_bytes = _conv_setup(True, 3, 1, 1, seed=41)
    monkeypatch.setattr(backend_module, "_CHUNK_BYTES", 2 * slice_bytes)
    _check_chunked([current_backend()], True, 3, 1, 1, seed=41)
    _check_chunked([current_backend()], False, 3, 2, 1, seed=41)


# ----------------------------------------------------------------------
# full-model parity: FastRingConv2d forward/backward, Predictor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ring_name,n", [("c", 2), ("ri4", 4), ("h", 4)])
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
def test_fastringconv_forward_backward_bit_identical(ring_name, n, stride, padding):
    spec = get_ring(ring_name)
    rng = np.random.default_rng(4)
    xd = rng.standard_normal((4, 2 * n, 8, 8))

    def run(backend):
        layer = FastRingConv2d(2 * n, 2 * n, 3, spec, stride=stride, padding=padding, seed=0)
        x = Tensor(xd.copy(), requires_grad=True)
        with use_backend(backend):
            out = layer(x)
            (out**2).sum().backward()
        return out.data, x.grad, layer.g.grad, layer.bias.grad

    base = run(NumpyBackend())
    for backend in _alternative_backends():
        got = run(backend)
        for name, ref, other in zip(("out", "dx", "dg", "dbias"), base, got, strict=True):
            assert np.array_equal(ref, other), f"{name} differs on {backend!r} ({ring_name})"


@pytest.mark.smoke
def test_fastringconv_parity_smoke():
    spec = get_ring("ri4")
    rng = np.random.default_rng(5)
    xd = rng.standard_normal((2, 4, 6, 6))
    outs = []
    for backend in ["numpy", "threaded:2", "blocked"]:
        layer = FastRingConv2d(4, 4, 3, spec, seed=0)
        with use_backend(backend):
            outs.append(layer(Tensor(xd.copy())).data)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_predictor_backend_parity_batched_and_tiled():
    from repro.models.ernet import dn_ernet_pu

    model = dn_ernet_pu(blocks=1, ratio=1, seed=0)
    rng = np.random.default_rng(6)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    x = rng.standard_normal((5, 1, 24, 24))
    base = Predictor(model, batch_size=2, tile=24, backend="numpy")(x)
    for backend in [_threaded_forced(), SplitBackend(threads=1, block=1)]:
        assert np.array_equal(Predictor(model, batch_size=2, tile=24, backend=backend)(x), base)
        # tile smaller than the image => the tiled-with-halo path
        tiled = Predictor(model, batch_size=2, tile=12, backend=backend)(x)
        assert np.array_equal(tiled, base)


def test_predictor_without_backend_uses_ambient(monkeypatch):
    from repro.models.ernet import dn_ernet_pu

    model = dn_ernet_pu(blocks=1, ratio=1, seed=0)
    x = np.random.default_rng(7).standard_normal((2, 1, 16, 16))
    base = Predictor(model, tile=16)(x)
    monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
    assert np.array_equal(Predictor(model, tile=16)(x), base)
    with use_backend("threaded:2"):
        assert np.array_equal(Predictor(model, tile=16)(x), base)


# ----------------------------------------------------------------------
# backward uses the forward-time backend
# ----------------------------------------------------------------------
def test_backward_captures_forward_backend():
    calls = []

    class Spy(SplitBackend):
        def conv2d_grad_input(self, *args, **kwargs):
            calls.append("grad_input")
            return super().conv2d_grad_input(*args, **kwargs)

    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    with use_backend(Spy(threads=1)):
        out = conv2d(x, w, padding=1)
    # graph built under the spy; backward after the context has exited
    (out**2).sum().backward()
    assert calls == ["grad_input"]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliBackendFlag:
    def test_backend_flag_exports_env(self, monkeypatch, capsys):
        from repro.experiments.cli import main

        # setenv first so monkeypatch records (and later restores) the
        # pre-test state even though main() writes os.environ itself.
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert main(["list", "--backend", "threaded:2"]) == 0
        assert os.environ.get(BACKEND_ENV_VAR) == "threaded:2"
        capsys.readouterr()

    def test_bad_backend_flag_is_a_clean_error(self, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["list", "--backend", "gpu"])
        assert BACKEND_ENV_VAR not in os.environ


# ----------------------------------------------------------------------
# EinsumBackend: the deterministic (shape-invariant) substrate
# ----------------------------------------------------------------------
class TestEinsumBackend:
    """EinsumBackend trades BLAS parity for shape-invariance: its outputs
    agree with numpy only to rounding, but never change with the batch
    size or pixel extent they were computed inside — the property the
    tiled bit-identity tests in test_inference.py build on."""

    def test_not_registered(self):
        # Registered backends promise bit-parity with numpy (artifacts
        # are backend-invariant); einsum's rounding differs by design,
        # so it must stay out of the spec-string registry.
        from repro.nn.backend import EinsumBackend

        assert "einsum" not in available_backends()
        with pytest.raises(ValueError):
            make_backend("einsum")
        assert isinstance(get_backend(EinsumBackend()), EinsumBackend)

    def test_close_to_numpy_within_rounding(self):
        from repro.nn.backend import EinsumBackend

        rng = np.random.default_rng(0)
        xd = rng.standard_normal((2, 3, 6, 6))
        wd = rng.standard_normal((4, 3, 3, 3))
        bd = rng.standard_normal(4)
        with use_backend(EinsumBackend()), no_grad():
            out = conv2d(Tensor(xd), Tensor(wd), Tensor(bd), padding=1)
        with use_backend(NumpyBackend()), no_grad():
            ref = conv2d(Tensor(xd), Tensor(wd), Tensor(bd), padding=1)
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-12, atol=1e-13)

    def test_conv_output_is_batch_and_extent_invariant(self):
        """The defining property: slicing the batch, or computing the
        same window inside a wider image, returns identical bits."""
        from repro.nn.backend import EinsumBackend

        backend = EinsumBackend()
        rng = np.random.default_rng(1)
        xd = rng.standard_normal((5, 2, 8, 8))
        wd = rng.standard_normal((3, 2, 3, 3))
        with use_backend(backend), no_grad():
            full = conv2d(Tensor(xd), Tensor(wd)).data
            one = conv2d(Tensor(xd[2:3]), Tensor(wd)).data
            # Same receptive fields, narrower extent (valid conv of a
            # width-6 slab covers output columns 0..3 of the full run).
            slab = conv2d(Tensor(xd[:, :, :, :6].copy()), Tensor(wd)).data
        assert np.array_equal(one, full[2:3])
        assert np.array_equal(slab, full[:, :, :, :4])

    def test_grouped_matches_numpy_within_rounding_and_is_invariant(self):
        from repro.nn.backend import EinsumBackend

        backend = EinsumBackend()
        rng = np.random.default_rng(2)
        xd = rng.standard_normal((3, 4, 2, 5, 5))
        wd = rng.standard_normal((4, 2, 2, 3, 3))
        with use_backend(backend), no_grad():
            full = conv2d_grouped(Tensor(xd), Tensor(wd), padding=1).data
            one = conv2d_grouped(Tensor(xd[1:2]), Tensor(wd), padding=1).data
        assert np.array_equal(one, full[1:2])
        with use_backend(NumpyBackend()), no_grad():
            ref = conv2d_grouped(Tensor(xd), Tensor(wd), padding=1).data
        np.testing.assert_allclose(full, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("grouped", [False, True], ids=["conv2d", "grouped"])
    def test_gradients_match_numpy_within_rounding(self, grouped, stride, padding, batch):
        """The BLAS VJPs of the base class and the einsum overrides
        compute the same contractions; only rounding may differ."""
        from repro.nn.backend import EinsumBackend

        rng = np.random.default_rng(3)
        if grouped:
            xd = rng.standard_normal((batch, 4, 2, 9, 9))
            wd = rng.standard_normal((4, 3, 2, 3, 3))
            bd = rng.standard_normal((4, 3))
        else:
            xd = rng.standard_normal((batch, 3, 9, 9))
            wd = rng.standard_normal((4, 3, 3, 3))
            bd = rng.standard_normal(4)
        ref = _conv_case(NumpyBackend(), xd, wd, bd, stride, padding, grouped)
        got = _conv_case(EinsumBackend(), xd, wd, bd, stride, padding, grouped)
        for name, r, g in zip(("out", "infer", "dx", "dw", "db"), ref, got, strict=True):
            np.testing.assert_allclose(
                g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max(), err_msg=name
            )
