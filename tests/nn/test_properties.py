"""Property-based randomized sweep: gradcheck + cross-backend parity.

Every case index seeds its own rng, draws one op/layer configuration
(shapes, strides, paddings, ring n, gradcheck target) from a family, and
pins two properties at once, in the spirit of the reference autograd
repo's randomized checks:

* **analytic == numeric gradients** via ``gradcheck.check_gradients``;
* **bit-exact cross-backend parity** — forward output and input gradient
  under the forced-parallel threaded and the blocked SplitBackend equal
  the NumpyBackend reference bit for bit.

Cases are fully deterministic (fixed seeds), so the sweep never flakes:
a failing index reproduces with ``-k case127``.  The first
``SMOKE_COUNT`` indices — one per family and a second lap with different
draws — are the ``smoke``-marked fast subset CI runs in every matrix
job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.backend import NumpyBackend, SplitBackend, use_backend
from repro.nn.fastconv import frconv2d
from repro.nn.functional import (
    avg_pool2d,
    conv2d,
    conv2d_grouped,
    pixel_shuffle,
    pixel_unshuffle,
    ring_expand,
)
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import DirectionalReLU2d
from repro.nn.tensor import Tensor
from repro.rings.catalog import get_ring, proposed_pair

CASE_COUNT = 200
SMOKE_COUNT = 20

# Rings covering tuple sizes n = 2 and n = 4, cheap and expensive m.
RING_KEYS = ("c", "ri4", "h")


def _threaded_forced() -> SplitBackend:
    backend = SplitBackend(threads=3)
    backend.MIN_PARALLEL_ELEMENTS = 0  # parallelize even tiny test shapes
    return backend


def _check(build, x: np.ndarray) -> None:
    """Gradcheck ``build`` at ``x``, then cross-backend bit parity."""
    check_gradients(build, x.copy())
    reference: tuple[np.ndarray, np.ndarray] | None = None
    for backend in (NumpyBackend(), _threaded_forced(), SplitBackend(threads=1, block=1)):
        with use_backend(backend):
            t = Tensor(x.copy(), requires_grad=True)
            out = build(t)
            out.backward()
            if reference is None:
                reference = (out.data.copy(), t.grad.copy())
            else:
                assert np.array_equal(out.data, reference[0]), f"{backend} output differs"
                assert np.array_equal(t.grad, reference[1]), f"{backend} gradient differs"


def _projection(rng: np.random.Generator, probe) -> np.ndarray:
    """A fixed random output projection, so the scalar loss exercises
    every output element with a distinct weight (a plain .sum() would let
    permutation/symmetry bugs cancel)."""
    return rng.standard_normal(np.asarray(probe).shape)


def _conv_geometry(rng: np.random.Generator) -> tuple[int, int, int, int, int]:
    kernel = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, 3))
    h = kernel + stride * int(rng.integers(0, 3)) + int(rng.integers(0, 2))
    w = kernel + stride * int(rng.integers(0, 3)) + int(rng.integers(0, 2))
    return kernel, stride, padding, h, w


def _family_conv2d(rng: np.random.Generator) -> None:
    kernel, stride, padding, h, w = _conv_geometry(rng)
    n, ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.standard_normal((n, ci, h, w))
    weight = rng.standard_normal((co, ci, kernel, kernel))
    bias = Tensor(rng.standard_normal(co)) if rng.integers(0, 2) else None
    with use_backend(NumpyBackend()):
        probe = conv2d(Tensor(x), Tensor(weight), bias, stride=stride, padding=padding)
    proj = _projection(rng, probe.data)
    if rng.integers(0, 2):  # gradcheck wrt the input
        _check(
            lambda t: (
                conv2d(t, Tensor(weight), bias, stride=stride, padding=padding)
                * proj
            ).sum(),
            x,
        )
    else:  # gradcheck wrt the weights
        _check(
            lambda t: (
                conv2d(Tensor(x), t, bias, stride=stride, padding=padding) * proj
            ).sum(),
            weight,
        )


def _family_conv2d_grouped(rng: np.random.Generator) -> None:
    kernel, stride, padding, h, w = _conv_geometry(rng)
    n, groups = int(rng.integers(1, 3)), int(rng.integers(2, 5))
    ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    x = rng.standard_normal((n, groups, ci, h, w))
    weight = rng.standard_normal((groups, co, ci, kernel, kernel))
    with use_backend(NumpyBackend()):
        probe = conv2d_grouped(Tensor(x), Tensor(weight), stride=stride, padding=padding)
    proj = _projection(rng, probe.data)
    if rng.integers(0, 2):
        _check(
            lambda t: (
                conv2d_grouped(t, Tensor(weight), stride=stride, padding=padding) * proj
            ).sum(),
            x,
        )
    else:
        _check(
            lambda t: (
                conv2d_grouped(Tensor(x), t, stride=stride, padding=padding) * proj
            ).sum(),
            weight,
        )


def _family_ring_conv(rng: np.random.Generator) -> None:
    """RCONV: ring weights expanded through M, then a real convolution."""
    spec = get_ring(RING_KEYS[int(rng.integers(0, len(RING_KEYS)))])
    n = spec.ring.n
    kernel, stride, padding, h, w = _conv_geometry(rng)
    cit, cot = 1, int(rng.integers(1, 3))
    x = rng.standard_normal((1, cit * n, h, w))
    g = rng.standard_normal((cot, cit, n, kernel, kernel))
    m_tensor = spec.ring.m_tensor
    with use_backend(NumpyBackend()):
        probe = conv2d(
            Tensor(x), ring_expand(Tensor(g), m_tensor), stride=stride, padding=padding
        )
    proj = _projection(rng, probe.data)
    if rng.integers(0, 2):
        _check(
            lambda t: (
                conv2d(t, ring_expand(Tensor(g), m_tensor), stride=stride, padding=padding)
                * proj
            ).sum(),
            x,
        )
    else:
        _check(
            lambda t: (
                conv2d(Tensor(x), ring_expand(t, m_tensor), stride=stride, padding=padding)
                * proj
            ).sum(),
            g,
        )


def _family_frconv(rng: np.random.Generator) -> None:
    """FRCONV: the three-step fast pipeline, trainable end to end."""
    spec = get_ring(RING_KEYS[int(rng.integers(0, len(RING_KEYS)))])
    n = spec.n
    kernel = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    h = kernel + stride * int(rng.integers(0, 2))
    w = kernel + stride * int(rng.integers(0, 2)) + int(rng.integers(0, 2))
    cit, cot = 1, int(rng.integers(1, 3))
    x = rng.standard_normal((1, cit * n, h, w))
    g = rng.standard_normal((cot, cit, n, kernel, kernel))
    bias = Tensor(rng.standard_normal(cot * n)) if rng.integers(0, 2) else None
    with use_backend(NumpyBackend()):
        probe = frconv2d(Tensor(x), Tensor(g), spec, bias=bias, stride=stride, padding=padding)
    proj = _projection(rng, probe.data)
    if rng.integers(0, 2):
        _check(
            lambda t: (
                frconv2d(t, Tensor(g), spec, bias=bias, stride=stride, padding=padding)
                * proj
            ).sum(),
            x,
        )
    else:
        _check(
            lambda t: (
                frconv2d(Tensor(x), t, spec, bias=bias, stride=stride, padding=padding)
                * proj
            ).sum(),
            g,
        )


def _family_avg_pool(rng: np.random.Generator) -> None:
    kernel = int(rng.integers(2, 4))
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    h = kernel * int(rng.integers(1, 3))
    w = kernel * int(rng.integers(1, 3))
    x = rng.standard_normal((n, c, h, w))
    proj = _projection(rng, np.zeros((n, c, h // kernel, w // kernel)))
    _check(lambda t: (avg_pool2d(t, kernel) * proj).sum(), x)


def _family_matmul(rng: np.random.Generator) -> None:
    rows, inner, cols = (int(rng.integers(1, 5)) for _ in range(3))
    x = rng.standard_normal((rows, inner))
    weight = Tensor(rng.standard_normal((cols, inner)))
    bias = Tensor(rng.standard_normal(cols))
    proj = _projection(rng, np.zeros((rows, cols)))
    _check(lambda t: ((t @ weight.transpose(1, 0) + bias) * proj).sum(), x)


def _family_directional_relu(rng: np.random.Generator) -> None:
    _, nonlinearity = proposed_pair(4)
    layer = DirectionalReLU2d(nonlinearity)
    tuples = int(rng.integers(1, 3))
    h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.standard_normal((1, 4 * tuples, h, w))
    proj = _projection(rng, x)
    _check(lambda t: (layer(t) * proj).sum(), x)


def _family_pixel_shuffle(rng: np.random.Generator) -> None:
    factor = int(rng.integers(2, 4))
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    h = factor * int(rng.integers(1, 3))
    w = factor * int(rng.integers(1, 3))
    x = rng.standard_normal((n, c * factor**2, h, w))
    proj = _projection(rng, np.zeros((n, c * factor**2, h, w)))
    _check(
        lambda t: (pixel_unshuffle(pixel_shuffle(t, factor), factor) * proj).sum(), x
    )


def _family_conv_stack(rng: np.random.Generator) -> None:
    """Two chained convs with a ReLU — gradients through composition."""
    c_mid = int(rng.integers(1, 4))
    h, w = int(rng.integers(3, 6)), int(rng.integers(3, 6))
    x = rng.standard_normal((1, 2, h, w))
    w1 = Tensor(rng.standard_normal((c_mid, 2, 3, 3)))
    w2 = Tensor(rng.standard_normal((1, c_mid, 1, 1)))
    proj = _projection(rng, np.zeros((1, 1, h, w)))

    def build(t: Tensor) -> Tensor:
        hidden = conv2d(t, w1, stride=1, padding=1).relu()
        return (conv2d(hidden, w2) * proj).sum()

    _check(build, x)


def _family_grouped_strided_wide(rng: np.random.Generator) -> None:
    """FRCONV-shaped grouped conv: many groups, batch 1 (exercises the
    threaded backend's group-axis fallback spans)."""
    groups = int(rng.integers(4, 9))
    kernel = int(rng.integers(1, 3))
    stride = int(rng.integers(1, 3))
    h = kernel + stride * int(rng.integers(0, 2))
    w = kernel + stride * int(rng.integers(0, 2))
    x = rng.standard_normal((1, groups, 1, h, w))
    weight = rng.standard_normal((groups, 1, 1, kernel, kernel))
    with use_backend(NumpyBackend()):
        probe = conv2d_grouped(Tensor(x), Tensor(weight), stride=stride)
    proj = _projection(rng, probe.data)
    _check(
        lambda t: (conv2d_grouped(t, Tensor(weight), stride=stride) * proj).sum(), x
    )


FAMILIES = (
    _family_conv2d,
    _family_conv2d_grouped,
    _family_ring_conv,
    _family_frconv,
    _family_avg_pool,
    _family_matmul,
    _family_directional_relu,
    _family_pixel_shuffle,
    _family_conv_stack,
    _family_grouped_strided_wide,
)


def _run_case(case: int) -> None:
    rng = np.random.default_rng(0xA11CE + 7919 * case)
    FAMILIES[case % len(FAMILIES)](rng)


@pytest.mark.smoke
@pytest.mark.parametrize("case", range(SMOKE_COUNT), ids=lambda c: f"case{c:03d}")
def test_property_case_smoke(case: int) -> None:
    _run_case(case)


@pytest.mark.parametrize(
    "case", range(SMOKE_COUNT, CASE_COUNT), ids=lambda c: f"case{c:03d}"
)
def test_property_case(case: int) -> None:
    _run_case(case)
