"""Seeded randomized sweep: compiled replay == eager forward, bitwise.

Mirrors the machinery of ``tests/nn/test_properties.py``: every case
index seeds its own rng, draws one model family (conv stacks, ring
convs, the FRCONV fast path, shuffle/pool mixes), a conv geometry, a
kernel backend, and asserts that the traced :class:`ExecutionPlan`
reproduces the eager forward bit for bit — on the traced input, on a
second input, and on a repeated replay (steady-state arena reuse).

Cases are fully deterministic (fixed seeds), so the sweep never flakes:
a failing index reproduces with ``-k case042``.  The first
``SMOKE_COUNT`` indices are the ``smoke``-marked fast subset CI runs in
every matrix job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.backend import NumpyBackend, SplitBackend, use_backend
from repro.nn.compile import build_plan
from repro.nn.fastconv import FastRingConv2d
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    LeakyReLU,
    PixelShuffle,
    PixelUnshuffle,
    ReLU,
    RingConv2d,
    Sequential,
)
from repro.nn.tensor import Tensor, no_grad
from repro.rings.catalog import get_ring

CASE_COUNT = 160
SMOKE_COUNT = 16

# Rings covering tuple sizes n = 2 and n = 4, cheap and expensive m.
RING_KEYS = ("c", "ri4", "h")


def _threaded_forced() -> SplitBackend:
    backend = SplitBackend(threads=2)
    backend.MIN_PARALLEL_ELEMENTS = 0
    return backend


def _backend(rng: np.random.Generator):
    return [
        NumpyBackend,
        _threaded_forced,
        lambda: SplitBackend(threads=1, block=1),
        lambda: SplitBackend(threads=1, block=2),
    ][int(rng.integers(0, 4))]()


def _check(model, x: np.ndarray, backend) -> None:
    model.eval()
    plan = build_plan(model, x, backend=backend)
    for probe in (x, x * -0.5 + 0.25):
        with use_backend(backend), no_grad():
            eager = model(Tensor(probe)).data
        for _ in range(2):
            replayed = plan.run(probe, backend)
            assert replayed.shape == eager.shape
            assert replayed.tobytes() == eager.tobytes()


def _act(rng: np.random.Generator):
    return ReLU() if rng.integers(0, 2) else LeakyReLU(0.1)


def _family_conv_stack(rng: np.random.Generator):
    """Plain conv stacks with random kernels/strides/paddings."""
    depth = int(rng.integers(1, 4))
    channels = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
    h, w = int(rng.integers(6, 12)), int(rng.integers(6, 12))
    x = rng.standard_normal((int(rng.integers(1, 3)), channels[0], h, w))
    layers = []
    for i in range(depth):
        padding = int(rng.integers(0, 3))
        # Keep the kernel inside the running (padded) feature map.
        kernel = min(int(rng.integers(1, 4)), h + 2 * padding, w + 2 * padding)
        stride = int(rng.integers(1, 3))
        layers.append(
            Conv2d(
                channels[i],
                channels[i + 1],
                kernel,
                stride=stride,
                padding=padding,
                bias=bool(rng.integers(0, 2)),
                seed=int(rng.integers(0, 1000)),
            )
        )
        layers.append(_act(rng))
        h = (h + 2 * padding - kernel) // stride + 1
        w = (w + 2 * padding - kernel) // stride + 1
    return Sequential(*layers), x


def _family_ring_conv(rng: np.random.Generator):
    """RCONV layers (ring weights expanded through M)."""
    spec = get_ring(RING_KEYS[int(rng.integers(0, len(RING_KEYS)))])
    n = spec.ring.n
    tuples = int(rng.integers(1, 3))
    model = Sequential(
        RingConv2d(
            n * tuples,
            n * tuples,
            3,
            spec.ring,
            stride=int(rng.integers(1, 3)),
            padding=int(rng.integers(0, 2)),
            seed=int(rng.integers(0, 1000)),
        ),
        _act(rng),
    )
    h, w = int(rng.integers(5, 10)), int(rng.integers(5, 10))
    x = rng.standard_normal((1, n * tuples, h, w))
    return model, x


def _family_frconv(rng: np.random.Generator):
    """The FRCONV fast pipeline (grouped conv + tuple transforms)."""
    spec = get_ring(RING_KEYS[int(rng.integers(0, len(RING_KEYS)))])
    n = spec.n
    tuples = int(rng.integers(1, 3))
    width = n * tuples
    layers = []
    for i in range(int(rng.integers(1, 3))):
        layers.append(
            FastRingConv2d(
                width,
                width,
                int(rng.integers(1, 4)),
                spec,
                stride=int(rng.integers(1, 3)),
                padding=int(rng.integers(0, 2)),
                bias=bool(rng.integers(0, 2)),
                seed=int(rng.integers(0, 1000)),
            )
        )
        layers.append(_act(rng))
    h = int(rng.integers(6, 10))
    x = rng.standard_normal((1, width, h, h))
    return Sequential(*layers), x


def _family_shuffle_pool(rng: np.random.Generator):
    """pixel_unshuffle -> conv -> act -> pixel_shuffle, sometimes pooled."""
    factor = int(rng.integers(2, 4))
    c = int(rng.integers(1, 3))
    mid = c * factor**2
    layers = [
        PixelUnshuffle(factor),
        Conv2d(mid, mid, 3, padding=1, seed=int(rng.integers(0, 1000))),
        _act(rng),
        PixelShuffle(factor),
    ]
    if rng.integers(0, 2):
        layers.append(AvgPool2d(2))
    h = factor * 2 * int(rng.integers(1, 3))
    x = rng.standard_normal((int(rng.integers(1, 3)), c, h, h))
    return Sequential(*layers), x


FAMILIES = (
    _family_conv_stack,
    _family_ring_conv,
    _family_frconv,
    _family_shuffle_pool,
)


def _run_case(case: int) -> None:
    rng = np.random.default_rng(0xA11CE + 7919 * case)
    model, x = FAMILIES[case % len(FAMILIES)](rng)
    _check(model, x, _backend(rng))


@pytest.mark.smoke
@pytest.mark.parametrize("case", range(SMOKE_COUNT), ids=lambda c: f"case{c:03d}")
def test_compiled_property_case_smoke(case: int) -> None:
    _run_case(case)


@pytest.mark.parametrize(
    "case", range(SMOKE_COUNT, CASE_COUNT), ids=lambda c: f"case{c:03d}"
)
def test_compiled_property_case(case: int) -> None:
    _run_case(case)
