"""FRCONV — fast ring convolution through the three-step pipeline.

Implements the paper's eq. (12): transforms are applied once per weight,
input and output ring element; the convolution itself runs as m
component-wise (grouped) convolutions in the transformed domain.  All m
products execute as one :func:`~repro.nn.functional.conv2d_grouped` call
— a single im2col plus one batched GEMM — rather than a Python loop of
per-product convolutions.  That call dispatches through the active
:mod:`repro.nn.backend`, so the same FRCONV graph runs on the serial
numpy path or the split path (thread-tiled or cache-blocked) unchanged
(the paper's point that eq. 12 maps onto different execution
substrates).

``FastRingConv2d`` is numerically identical to :class:`RingConv2d` with
the same ring weights (Section IV-C: "each RCONV layer can be efficiently
implemented by applying FRCONV to its fixed-point model") and is the
software model of the hardware engines in :mod:`repro.hardware.engine`.
In eval mode the layer caches the transformed filter bank ``g~ = Tg g``
(the paper's offline weight transform); the cache is dropped on
``train()`` and on any mutation of the ring weights.
"""

from __future__ import annotations

import threading

import numpy as np

from ..rings.catalog import RingSpec
from .functional import conv2d_grouped
from .init import ring_kaiming_normal
from .module import Module, weight_fingerprint
from .tensor import Parameter, Tensor, is_grad_enabled

__all__ = ["FastRingConv2d", "frconv2d"]


def frconv2d(
    x: Tensor,
    g: Tensor,
    spec: RingSpec,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    g_transformed: Tensor | None = None,
) -> Tensor:
    """Fast ring convolution (paper eq. 12).

    Args:
        x: Features (N, Ci, H, W) with Ci a multiple of the ring's n.
        g: Ring weights (Co_t, Ci_t, n, kh, kw).
        spec: Catalog entry supplying the fast algorithm (Tg, Tx, Tz).
        g_transformed: Optional precomputed ``Tg g`` of shape
            (Co_t, Ci_t, m, kh, kw) — the eval-mode weight cache.  When
            given, the filter transform is skipped (and gradients do not
            flow to ``g``).

    Returns:
        (N, Co, Ho, Wo) — identical to the direct RCONV result.
    """
    algo = spec.fast
    n = spec.n
    batch, ci, height, width = x.shape
    g = g if isinstance(g, Tensor) else Tensor(g)
    cot, cit, _, kh, kw = g.shape
    if ci != cit * n:
        raise ValueError(f"input channels {ci} do not match weights ({cit} {n}-tuples)")

    # Filter transform, applied once per weight element (offline in HW);
    # kept inside the graph so FRCONV is trainable end to end.
    if g_transformed is None:
        g_transformed = g.tuple_transform(algo.tg, axis=2)  # (Co_t, Ci_t, m, kh, kw)
    w_g = g_transformed.transpose(2, 0, 1, 3, 4)  # (m, Co_t, Ci_t, kh, kw)

    # Data transform, once per input ring element.
    x_tuples = x.reshape(batch, cit, n, height, width)
    x_t = x_tuples.tuple_transform(algo.tx, axis=2)  # (N, Ci_t, m, H, W)
    x_g = x_t.transpose(0, 2, 1, 3, 4)  # (N, m, Ci_t, H, W)

    # Component-wise products: all m grouped convolutions in one fused
    # im2col + batched GEMM (no per-product Python loop).
    z_g = conv2d_grouped(x_g, w_g, stride=stride, padding=padding)
    z_t = z_g.transpose(0, 2, 1, 3, 4)  # (N, Co_t, m, Ho, Wo)

    # Reconstruction transform, once per output ring element.
    z = z_t.tuple_transform(algo.tz, axis=2)  # (N, Co_t, n, Ho, Wo)
    out = z.reshape(batch, cot * n, z.shape[3], z.shape[4])
    if bias is not None:
        out = out + bias.reshape(1, cot * n, 1, 1)
    return out


class FastRingConv2d(Module):
    """Drop-in FRCONV layer, parameter-compatible with RingConv2d.

    The parameter is the *untransformed* ring weight ``g`` (so trained
    RCONV weights load directly); all three transforms stay inside the
    autodiff graph, making FRCONV trainable end to end as well.  In eval
    mode (with gradients disabled) the transformed bank ``g~`` is cached
    across forwards instead of being recomputed per call.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        spec: RingSpec,
        stride: int = 1,
        padding: int | None = None,
        bias: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__()
        n = spec.n
        if in_channels % n or out_channels % n:
            raise ValueError("channels must be multiples of the tuple size")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2 if padding is None else padding
        self.spec = spec
        self.g = Parameter(
            ring_kaiming_normal(
                (out_channels // n, in_channels // n, n, kernel_size, kernel_size),
                fan_in=in_channels * kernel_size**2,
                seed=seed,
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._weight_cache: tuple[tuple, np.ndarray] | None = None
        self._cache_lock = threading.Lock()

    def _clear_weight_cache(self) -> None:
        with self._cache_lock:
            self._weight_cache = None

    def _transformed_eval_weight(self) -> np.ndarray:
        """The cached ``g~ = Tg g``, rebuilt when the weights changed.

        Snapshot-read plus locked fill, mirroring
        :meth:`RingConv2d._expanded_eval_weight`: concurrent eval
        forwards sharing this layer transform the bank once, and a
        concurrent cache clear can't tear the check-then-use.
        """
        stamp = weight_fingerprint(self.g.data)
        cached = self._weight_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        with self._cache_lock:
            cached = self._weight_cache
            if cached is None or cached[0] != stamp:
                g_t = self.g.detach().tuple_transform(self.spec.fast.tg, axis=2)
                cached = (stamp, g_t.data)
                self._weight_cache = cached
        return cached[1]

    def forward(self, x: Tensor) -> Tensor:
        g_transformed = None
        if not self.training and not is_grad_enabled():
            g_transformed = Tensor(self._transformed_eval_weight())
        return frconv2d(
            x,
            self.g,
            self.spec,
            bias=self.bias,
            stride=self.stride,
            padding=self.padding,
            g_transformed=g_transformed,
        )

    def load_from_rconv(self, layer) -> None:
        """Copy ring weights from a trained RingConv2d."""
        if layer.g.shape != self.g.shape:
            raise ValueError("shape mismatch between RCONV and FRCONV weights")
        self.g.data[...] = layer.g.data
        if self.bias is not None and layer.bias is not None:
            self.bias.data[...] = layer.bias.data
        self._clear_weight_cache()
