"""Pluggable kernel backends for the nn hot path.

The paper's central performance claim (Section IV-C) is that FRCONV's
grouped component-wise products map onto different execution substrates
with very different cost profiles.  This module is the software seam for
that claim: a :class:`Backend` owns the hot array primitives — ``conv2d``
and ``conv2d_grouped`` (forward, inference and VJP pieces), ``matmul``,
``im2col``/``col2im`` and pooling — and everything above it
(:mod:`repro.nn.functional`, :mod:`repro.nn.fastconv`, the layers and
:class:`repro.nn.inference.Predictor`) dispatches through the *active*
backend instead of calling kernels directly.

Two implementations ship:

* :class:`NumpyBackend` — the reference single-call im2col + GEMM path
  (the seed implementation, moved behind the protocol).
* :class:`SplitBackend` — runs the reference kernels span by span along
  the batch (or, at batch 1, the group) axis, serially or on a thread
  pool, with inference spans written straight into the output.  Work
  is split only along axes that are embarrassingly parallel (each
  output element is still produced by one GEMM over the full reduction
  axis), so results stay **bit-identical**.
  It is registered twice: ``threaded[:N]`` cuts ``N`` thread spans and
  ``blocked[:B]`` runs ``B``-sample inference spans on one thread.

A third, :class:`EinsumBackend`, is importable but deliberately **not**
registered: it trades BLAS speed for shape-invariant determinism (each
output element's reduction is a fixed sequential chain, independent of
how many other elements share the GEMM call), which registered backends
cannot promise — their contract is bit-parity with :class:`NumpyBackend`
so experiment artifacts stay backend-invariant.

Selection precedence (first match wins):

1. the innermost active :func:`use_backend` context on this thread;
2. the ``REPRO_BACKEND`` environment variable (e.g. ``threaded:4``);
3. the process default (:class:`NumpyBackend`).

Backends are addressed by a spec string ``name[:arg]`` — ``numpy``,
``threaded``, ``threaded:8`` (worker count), ``blocked``, ``blocked:4``
(samples per inference span).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "NumpyBackend",
    "SplitBackend",
    "EinsumBackend",
    "available_backends",
    "conv_geometry",
    "current_backend",
    "default_backend",
    "get_backend",
    "make_backend",
    "register_backend",
    "usable_cpu_count",
    "use_backend",
]

BACKEND_ENV_VAR = "REPRO_BACKEND"


def usable_cpu_count() -> int:
    """CPUs this process may run on (affinity-aware, always >= 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def conv_geometry(
    h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[int, int, int, int]:
    """Padded and output spatial extents of a 2-D convolution."""
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    return hp, wp, ho, wo


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Read-only (..., kh, kw, Ho, Wo) view of the sliding windows of a
    pre-padded input; leading dims pass through."""
    strides = xp.strides
    sh, sw = strides[-2], strides[-1]
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(*xp.shape[:-2], kh, kw, ho, wo),
        strides=(*strides[:-2], sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _tap_window(k: int, stride: int, padding: int, out: int, size: int) -> tuple[slice, slice]:
    """(output slice, input slice) of kernel tap ``k`` along one axis:
    the outputs whose tap-``k`` input lies inside ``range(size)`` rather
    than in the padding, and those input positions."""
    lo = max(0, -((k - padding) // stride))
    hi = max(lo, min(out, (size - 1 - k + padding) // stride + 1))
    start = k - padding + stride * lo
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


# Cols budget of one direct-write chunk: half of a 2 MiB L2, so a chunk's
# im2col is still in cache when its GEMM reads it back.
_CHUNK_BYTES = 1 << 20


def _chunks(n: int, groups: int, slice_bytes: int) -> list[tuple[slice, ...]]:
    """Index tuples of chunks over the (N, G) grid of GEMM slices whose
    cols each take ``slice_bytes``: ``(samples,)`` runs of as many whole
    samples as fit in :data:`_CHUNK_BYTES`, else ``(sample, groups)``
    runs of groups within one sample.  Each chunk holds at least one
    slice."""
    if groups == 1 or groups * slice_bytes <= _CHUNK_BYTES:
        step = max(1, _CHUNK_BYTES // (groups * slice_bytes))
        return [(slice(i, i + step),) for i in range(0, n, step)]
    step = max(1, _CHUNK_BYTES // slice_bytes)
    runs = range(0, groups, step)
    return [(slice(i, i + 1), slice(j, j + step)) for i in range(n) for j in runs]


class _ScratchPool:
    """One thread's recycled conv buffers, and the conv geometry that
    views them.

    Padded inputs keep one zero-filled array per (shape, padding) key,
    so their borders are written once; every im2col pads through them.
    The direct-write inference kernel's cols live in one grow-only byte
    buffer that it fills one :func:`_chunks` chunk at a time, so the pool
    pins at most :data:`_CHUNK_BYTES` of cols (one GEMM slice's when a
    single slice is larger), whatever the batch.

    Per conv geometry (input shape, dtype, kh, kw, stride, padding) the
    pool caches everything :meth:`Backend._conv_infer_into` derives from
    those buffers: the padded buffer's interior view and, per chunk, its
    index, window slice, cols view and GEMM-shaped cols view.  Only the
    bytes change between calls of one geometry.  An entry is dropped
    whenever a buffer it views is: the padded cache clearing, or the
    cols buffer growing.  Each key cache is cleared whole when it
    reaches ``KEYS`` entries.
    """

    KEYS = 16

    def __init__(self) -> None:
        self._padded: dict[tuple, np.ndarray] = {}
        self._geometry: dict[tuple, tuple] = {}
        self.cols_bytes = np.empty(0, dtype=np.uint8)

    def padded(self, shape: tuple[int, ...], dtype: np.dtype, padding: int) -> np.ndarray:
        """This key's padded-input array, zero-filled when allocated."""
        key = (shape, dtype.str, padding)
        buf = self._padded.get(key)
        if buf is None:
            if len(self._padded) >= self.KEYS:
                self._padded.clear()
                self._geometry.clear()
            buf = self._padded[key] = np.zeros(shape, dtype=dtype)
        return buf

    def conv(
        self, shape: tuple[int, ...], dtype: np.dtype, kh: int, kw: int, stride: int, padding: int
    ) -> tuple[np.ndarray, tuple]:
        """(interior, chunks) of one conv geometry: the view of the padded
        buffer an input is copied into, and per chunk ``(index, window,
        cols, gemm_cols)``.  Built on first use."""
        key = (shape, dtype, kh, kw, stride, padding)
        entry = self._geometry.get(key)
        if entry is not None:
            return entry
        *lead, ci, h, w = shape
        hp, wp, ho, wo = conv_geometry(h, w, kh, kw, stride, padding)
        xp = self.padded((*lead, ci, hp, wp), dtype, padding)
        windows = _windows(xp, kh, kw, stride, ho, wo)
        k, p = ci * kh * kw, ho * wo
        index = _chunks(lead[0], math.prod(lead[1:]), k * p * dtype.itemsize)
        nbytes = max(windows[i].nbytes for i in index)
        if self.cols_bytes.nbytes < nbytes:
            self.cols_bytes = np.empty(nbytes, dtype=np.uint8)
            self._geometry.clear()
        elif len(self._geometry) >= self.KEYS:
            self._geometry.clear()
        chunks = []
        for i in index:
            window = windows[i]
            cols = self.cols_bytes[: window.nbytes].view(dtype).reshape(window.shape)
            chunks.append((i, window, cols, cols.reshape(*window.shape[: len(lead)], k, p)))
        entry = self._geometry[key] = (
            xp[..., padding : hp - padding, padding : wp - padding],
            tuple(chunks),
        )
        return entry


class Backend:
    """Reference implementation and protocol of the kernel primitives.

    All methods take and return plain numpy arrays — backends know
    nothing about the autodiff :class:`~repro.nn.tensor.Tensor`; the
    graph wiring stays in :mod:`repro.nn.functional`.  Subclasses
    override whichever primitives they can accelerate; anything not
    overridden falls back to this single-call numpy path, which is the
    parity baseline every backend must reproduce bit-for-bit.

    The ``*_infer`` variants are the no-grad fast path: they need not
    retain (or even fully materialize) the im2col matrix, which is what
    lets backends trade memory and parallelism freely during inference.
    """

    name = "numpy"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    # ------------------------------------------------------------------
    # im2col / col2im
    # ------------------------------------------------------------------
    def im2col(
        self, x: np.ndarray, kh: int, kw: int, stride: int, padding: int
    ) -> tuple[np.ndarray, tuple[int, int, int, int]]:
        """Unfold sliding windows into columns.

        The input is padded through :meth:`_padded_scratch`.  ``cols`` is
        always a fresh copy, never a view of that scratch (a 1x1 kernel
        at stride 1 has C-contiguous windows), because the training tape
        keeps it for the weight VJP past this thread's next conv.

        Returns:
            cols of shape (N, C*kh*kw, Ho*Wo) and (Hp, Wp, Ho, Wo).
        """
        n, c, h, w = x.shape
        dims = conv_geometry(h, w, kh, kw, stride, padding)
        ho, wo = dims[2], dims[3]
        windows = _windows(self._padded_scratch(x, padding), kh, kw, stride, ho, wo)
        return windows.copy().reshape(n, c * kh * kw, ho * wo), dims

    def col2im(
        self,
        dcols: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        ho: int,
        wo: int,
    ) -> np.ndarray:
        """Adjoint of im2col: scatter-add column gradients back to the input.

        Each tap (i, j), in that order, adds the part of its window that
        lands inside the input straight into an unpadded result; the
        parts that land in the padding are never computed.  Every input
        cell receives the same adds in the same order as it would in a
        padded buffer, so the bytes are the same, signed zeros included.
        """
        n, c, h, w = x_shape
        dx = np.zeros(x_shape)
        dcols = dcols.reshape(n, c, kh, kw, ho, wo)
        rows = [_tap_window(i, stride, padding, ho, h) for i in range(kh)]
        columns = [_tap_window(j, stride, padding, wo, w) for j in range(kw)]
        for i, (out_rows, in_rows) in enumerate(rows):
            for j, (out_cols, in_cols) in enumerate(columns):
                dx[:, :, in_rows, in_cols] += dcols[:, :, i, j, out_rows, out_cols]
        return dx

    # ------------------------------------------------------------------
    # matmul
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product with numpy broadcasting semantics."""
        return np.matmul(a, b)

    # ------------------------------------------------------------------
    # conv2d
    # ------------------------------------------------------------------
    def conv2d(
        self, x: np.ndarray, w_mat: np.ndarray, kh: int, kw: int, stride: int, padding: int
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int]]:
        """Training-path forward: returns (out, cols, dims).

        ``cols`` is retained by the caller for the weight VJP, so every
        backend must hand back the full im2col matrix here; memory
        tricks belong in :meth:`conv2d_infer`.
        """
        n = x.shape[0]
        co = w_mat.shape[0]
        cols, dims = self.im2col(x, kh, kw, stride, padding)
        ho, wo = dims[2], dims[3]
        out = (w_mat @ cols).reshape(n, co, ho, wo)
        return out, cols, dims

    def conv2d_infer(
        self,
        x: np.ndarray,
        w_mat: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Inference forward: same values as :meth:`conv2d`, cols discarded.

        ``out``, when given, receives the result (the compiled replay
        path's arena buffers); writing into it must not change any bit
        of the result.  This base implementation computes through the
        subclass's :meth:`conv2d` and copies, which preserves the
        subclass's reduction semantics (e.g. :class:`EinsumBackend`).
        The BLAS backends run the cache-blocked direct-write kernel
        :meth:`_conv_infer_into` whenever ``out`` is given, and
        :class:`SplitBackend` also allocates ``out`` and runs it when it
        is not; :class:`NumpyBackend`'s eager ``out=None`` calls still
        come here, through the training forward.  The kernel runs the
        same per-slice GEMMs on the same cols, however it chunks them,
        so the bytes are the same.
        """
        res, _, _ = self.conv2d(x, w_mat, kh, kw, stride, padding)
        if out is None:
            return res
        np.copyto(out, res)
        return out

    def _scratch_pool(self) -> _ScratchPool:
        """This thread's scratch pool: padded inputs for every im2col,
        cols for the direct-write inference kernel."""
        local = getattr(self, "_scratch_local", None)
        if local is None:
            # Benign race: concurrent first calls may each build a
            # threading.local and one wins — scratch carries no state
            # across calls, so the losers only cost an extra allocation.
            local = self._scratch_local = threading.local()
        pool = getattr(local, "pool", None)
        if pool is None:
            pool = local.pool = _ScratchPool()
        return pool

    def _padded_scratch(self, x: np.ndarray, padding: int) -> np.ndarray:
        """``x`` zero-padded on its last two axes into recycled scratch.

        Same values as ``np.pad`` with zero mode; no allocation in
        steady state.  Accepts any leading-dim layout (4-D batched or
        5-D grouped) and strided views — the centre assignment handles
        non-contiguous sources without an extra compaction pass.  The
        scratch key includes ``padding``, so every later hit writes the
        identical centre region and the zero borders stay zero.
        """
        if not padding:
            return x
        h, w = x.shape[-2], x.shape[-1]
        shape = (*x.shape[:-2], h + 2 * padding, w + 2 * padding)
        xp = self._scratch_pool().padded(shape, x.dtype, padding)
        xp[..., padding:-padding, padding:-padding] = x
        return xp

    def _conv_infer_into(
        self,
        x: np.ndarray,
        w: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Cache-blocked inference conv writing straight into ``out``.

        Plain: x (N, Ci, H, W), w (Co, Ci*kh*kw), out (N, Co, Ho, Wo).
        Grouped: x (N, G, Ci, H, W), w (G, Co, Ci*kh*kw), out
        (N, G, Co, Ho, Wo).  The whole input is copied once into the
        interior of the pool's zero-bordered padded buffer (at padding 0
        too, so no cached view ever aliases a caller's ``x``); then each
        :func:`_chunks` chunk of (sample, group) slices copies its
        windows into the pool's recycled cols buffer and runs its GEMMs
        into its slice of ``out`` while those cols are still in cache.
        The views all come from the pool's per-geometry cache
        (:meth:`_ScratchPool.conv`), so a call is one interior copy plus
        one copy and one GEMM per chunk.  numpy's batched matmul runs one
        GEMM per 2-D slice, and every slice keeps the (Co, K) x (K, P)
        dimensions and operand bytes of the training forward, so the
        bits are the same for any chunking.  Only BLAS-parity backends
        may use this; einsum semantics go through the compute-then-copy
        base path.
        """
        interior, chunks = self._scratch_pool().conv(x.shape, x.dtype, kh, kw, stride, padding)
        np.copyto(interior, x)
        out_flat = out.reshape(*out.shape[:-2], out.shape[-2] * out.shape[-1])
        for index, window, cols, gemm_cols in chunks:
            np.copyto(cols, window)
            np.matmul(w[index[1:]], gemm_cols, out=out_flat[index])
        return out

    def conv2d_grad_weight(self, grad_flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """dL/dW_mat from grad (N, Co, P) and cols (N, K, P) -> (Co, K).

        Reduces over batch *and* pixels: one (Co, P) x (P, K) GEMM per
        sample, then a sum over the batch in sample order.  No backend
        splits this call, so every backend runs the same GEMMs and the
        same sum, and the result is identical across them.
        """
        return np.matmul(grad_flat, np.swapaxes(cols, -1, -2)).sum(axis=0)

    def conv2d_grad_input(
        self,
        w_mat: np.ndarray,
        grad_flat: np.ndarray,
        x_shape: tuple[int, int, int, int],
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        ho: int,
        wo: int,
    ) -> np.ndarray:
        """dL/dx: backproject grad (N, Co, P) through the filter and col2im.

        One (K, Co) x (Co, P) GEMM per sample, so a batch span computes
        the same bits as the whole batch.
        """
        dcols = np.matmul(w_mat.T, grad_flat)
        return self.col2im(dcols, x_shape, kh, kw, stride, padding, ho, wo)

    # ------------------------------------------------------------------
    # conv2d_grouped (the FRCONV engine's hot path)
    # ------------------------------------------------------------------
    def conv2d_grouped(
        self,
        x: np.ndarray,
        w_flat: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        padding: int,
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int]]:
        """Grouped training-path forward.

        x is (N, G, Ci, H, W), w_flat is (G, Co, Ci*kh*kw); returns
        (out (N, G, Co, Ho, Wo), cols (N, G, K, P), dims).
        """
        n, groups, ci, h, w = x.shape
        co = w_flat.shape[1]
        cols, dims = self.im2col(x.reshape(n * groups, ci, h, w), kh, kw, stride, padding)
        ho, wo = dims[2], dims[3]
        cols = cols.reshape(n, groups, ci * kh * kw, ho * wo)
        out = (w_flat[None] @ cols).reshape(n, groups, co, ho, wo)
        return out, cols, dims

    def conv2d_grouped_infer(
        self,
        x: np.ndarray,
        w_flat: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Grouped inference forward; ``out`` as in :meth:`conv2d_infer`."""
        res, _, _ = self.conv2d_grouped(x, w_flat, kh, kw, stride, padding)
        if out is None:
            return res
        np.copyto(out, res)
        return out

    def conv2d_grouped_grad_weight(
        self, grad_flat: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """dL/dW from grad (N, G, Co, P) and cols (N, G, K, P) -> (G, Co, K).

        Per group, the same GEMMs and batch sum as :meth:`conv2d_grad_weight`.
        """
        return np.matmul(grad_flat, np.swapaxes(cols, -1, -2)).sum(axis=0)

    def conv2d_grouped_grad_input(
        self,
        w_flat: np.ndarray,
        grad_flat: np.ndarray,
        x_shape: tuple[int, int, int, int, int],
        kh: int,
        kw: int,
        stride: int,
        padding: int,
        ho: int,
        wo: int,
    ) -> np.ndarray:
        n, groups, ci, h, w = x_shape
        dcols = (np.swapaxes(w_flat, -1, -2)[None] @ grad_flat).reshape(
            n * groups, ci * kh * kw, ho * wo
        )
        dx = self.col2im(dcols, (n * groups, ci, h, w), kh, kw, stride, padding, ho, wo)
        return dx.reshape(x_shape)

    # ------------------------------------------------------------------
    # pooling
    # ------------------------------------------------------------------
    def avg_pool2d(self, x: np.ndarray, kernel: int) -> np.ndarray:
        """Non-overlapping average pooling with stride = kernel."""
        n, c, h, w = x.shape
        k = kernel
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def avg_pool2d_grad(self, grad: np.ndarray, kernel: int) -> np.ndarray:
        """VJP of :meth:`avg_pool2d`: spread each cell over its window."""
        k = kernel
        return np.repeat(np.repeat(grad, k, axis=2), k, axis=3) / (k * k)


class NumpyBackend(Backend):
    """The reference single-call numpy/BLAS backend (seed behavior)."""

    name = "numpy"

    def conv2d_infer(self, x, w_mat, kh, kw, stride, padding, out=None):
        if out is None:
            return Backend.conv2d_infer(self, x, w_mat, kh, kw, stride, padding)
        return self._conv_infer_into(x, w_mat, kh, kw, stride, padding, out)

    def conv2d_grouped_infer(self, x, w_flat, kh, kw, stride, padding, out=None):
        if out is None:
            return Backend.conv2d_grouped_infer(self, x, w_flat, kh, kw, stride, padding)
        return self._conv_infer_into(x, w_flat, kh, kw, stride, padding, out)


def _conv_out(
    x: np.ndarray, w: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Fresh output of an inference conv: (N, Co, Ho, Wo) for a (Co, K)
    weight, (N, G, Co, Ho, Wo) for a grouped (G, Co, K) one."""
    _, _, ho, wo = conv_geometry(x.shape[-2], x.shape[-1], kh, kw, stride, padding)
    return np.empty((*x.shape[:-3], w.shape[-2], ho, wo), dtype=np.result_type(x, w))


def _sliced(axis: int, span: tuple[int, int]) -> tuple[slice, ...]:
    """Index selecting ``span`` along ``axis`` (0 = batch, 1 = group)."""
    return (slice(None),) * axis + (slice(*span),)


class SplitBackend(Backend):
    """Runs the hot primitives span by span along the batch (or group) axis.

    One planner cuts the batch into contiguous spans: at most ``block``
    samples per inference span when ``block`` is set, otherwise
    ``threads`` near-equal parts.  At batch 1 the grouped primitives cut
    the group axis instead, so batch-1 FRCONV still splits its m
    products.  One runner executes the spans: a serial loop, or a
    ``threads``-wide pool when the job is big enough to pay for the
    handoff (numpy releases the GIL inside BLAS and large copies).

    Each span runs the *reference* kernels on its slice and writes a
    disjoint slice of a preallocated output.  numpy's batched matmul runs
    one BLAS GEMM per 2-D slice, so every per-span GEMM keeps the
    dimensions it has in the whole-batch call, and outputs and input
    gradients stay **bit-identical** to :class:`NumpyBackend`.  Inference
    spans write straight into ``out`` through the reference direct-write
    kernel, so each worker thread's im2col memory is one chunk.  Training
    primitives split only when ``threads > 1``.  The weight gradient is
    never split: it sums per-sample GEMMs over the batch, and cutting
    the batch would change the order of that sum.

    The registry builds it under two names: ``threaded[:N]`` is
    ``SplitBackend(threads=N)`` and ``blocked[:B]`` is
    ``SplitBackend(threads=1, block=B)``.

    Args:
        threads: Worker threads; defaults to the usable CPU count.
        block: Samples per inference span; None cuts ``threads`` parts.
    """

    name = "split"

    # Below this many output elements a primitive runs serially — thread
    # handoff costs more than the GEMM it would hide.
    MIN_PARALLEL_ELEMENTS = 1 << 14

    def __init__(self, threads: int | None = None, block: int | None = None) -> None:
        if threads is None:
            threads = usable_cpu_count()
        if threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads}")
        if block is not None and block < 1:
            raise ValueError(f"block must be a positive integer, got {block}")
        self.threads = int(threads)
        self.block = None if block is None else int(block)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Set inside pool workers: primitives re-entered from a worker
        # (the reference implementations dispatch virtually, e.g.
        # conv2d_grouped -> self.im2col) must run serially, or they
        # would submit sub-tasks to the very pool whose workers are
        # blocked waiting on them — a starvation deadlock.
        self._in_worker = threading.local()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SplitBackend(threads={self.threads}, block={self.block})"

    # -- span planner and runner ------------------------------------------
    def _parallel(self, work: int) -> bool:
        """Whether a job of ``work`` output elements goes to the pool."""
        return (
            self.threads > 1
            and work >= self.MIN_PARALLEL_ELEMENTS
            and not getattr(self._in_worker, "active", False)
        )

    def _spans(self, n: int, work: int, block: int | None = None) -> list[tuple[int, int]]:
        """Cut range(n) into ``block``-sized spans when ``block`` is given,
        else into one near-equal span per thread when the pool pays off,
        else into one span."""
        if block is not None and n > block:
            return [(i, min(n, i + block)) for i in range(0, n, block)]
        if n <= 1 or not self._parallel(work):
            return [(0, n)]
        bounds = np.linspace(0, n, min(self.threads, n) + 1, dtype=int)
        return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:], strict=True) if a < b]

    def _grouped_spans(
        self, n: int, groups: int, work: int, block: int | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """(axis, spans) for grouped primitives: the batch axis, or the
        group axis when the batch is too short to split."""
        if n > 1 or groups <= 1:
            return 0, self._spans(n, work, block)
        return 1, self._spans(groups, work)

    def _run(
        self, fn: Callable[[tuple[int, int]], None], spans: Sequence[tuple[int, int]], work: int
    ) -> None:
        if len(spans) == 1 or not self._parallel(work):
            for span in spans:
                fn(span)
            return
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.threads, thread_name_prefix="repro-backend"
                    )

        def in_worker(span: tuple[int, int]) -> None:
            self._in_worker.active = True
            try:
                fn(span)
            finally:
                self._in_worker.active = False

        # list() propagates the first worker exception, if any.
        list(self._pool.map(in_worker, spans))

    # -- inference primitives ---------------------------------------------
    def conv2d_infer(self, x, w_mat, kh, kw, stride, padding, out=None):
        n = x.shape[0]
        if out is None:
            out = _conv_out(x, w_mat, kh, kw, stride, padding)

        def fill(span: tuple[int, int]) -> None:
            i0, i1 = span
            self._conv_infer_into(x[i0:i1], w_mat, kh, kw, stride, padding, out[i0:i1])

        self._run(fill, self._spans(n, out.size, self.block), out.size)
        return out

    def conv2d_grouped_infer(self, x, w_flat, kh, kw, stride, padding, out=None):
        n, groups = x.shape[:2]
        if out is None:
            out = _conv_out(x, w_flat, kh, kw, stride, padding)
        axis, spans = self._grouped_spans(n, groups, out.size, self.block)

        def fill(span: tuple[int, int]) -> None:
            s = _sliced(axis, span)
            ws = w_flat if axis == 0 else w_flat[span[0] : span[1]]
            self._conv_infer_into(x[s], ws, kh, kw, stride, padding, out[s])

        self._run(fill, spans, out.size)
        return out

    # -- training primitives (split only when threads > 1) -----------------
    def im2col(self, x, kh, kw, stride, padding):
        n, c, h, w = x.shape
        dims = conv_geometry(h, w, kh, kw, stride, padding)
        work = n * c * kh * kw * dims[2] * dims[3]
        spans = self._spans(n, work)
        if len(spans) == 1:
            return Backend.im2col(self, x, kh, kw, stride, padding)
        cols = np.empty((n, c * kh * kw, dims[2] * dims[3]), dtype=x.dtype)

        def fill(span: tuple[int, int]) -> None:
            i0, i1 = span
            cols[i0:i1] = Backend.im2col(self, x[i0:i1], kh, kw, stride, padding)[0]

        self._run(fill, spans, work)
        return cols, dims

    def col2im(self, dcols, x_shape, kh, kw, stride, padding, ho, wo):
        work = int(np.prod(x_shape))
        spans = self._spans(x_shape[0], work)
        if len(spans) == 1:
            return Backend.col2im(self, dcols, x_shape, kh, kw, stride, padding, ho, wo)
        dx = np.empty(x_shape)

        def fill(span: tuple[int, int]) -> None:
            i0, i1 = span
            dx[i0:i1] = Backend.col2im(
                self, dcols[i0:i1], (i1 - i0, *x_shape[1:]), kh, kw, stride, padding, ho, wo
            )

        self._run(fill, spans, work)
        return dx

    def matmul(self, a, b):
        if a.ndim == 2 and b.ndim == 2:
            # Never split a single 2-D GEMM: BLAS picks its kernel (and
            # accumulation/FMA structure) from the *full* M extent, so a
            # row span can round differently than the same rows inside
            # the whole product — e.g. an M=1 span of a transposed-B
            # product goes down a gemv-like path.  Found by the
            # randomized property sweep; batch-axis splits below are safe
            # because every per-slice GEMM keeps identical dimensions.
            return np.matmul(a, b)
        if a.ndim >= 3 and (b.ndim < 3 or b.shape[:-2] in ((1,), a.shape[:-2])):
            # b is either unbatched/broadcast (shared by every span) or
            # batched exactly like a (sliced alongside it).
            sliced_b = b.ndim == a.ndim and b.shape[:-2] == a.shape[:-2]
            work = int(np.prod(a.shape[:-2])) * a.shape[-2] * b.shape[-1]
            spans = self._spans(a.shape[0], work)
            if len(spans) > 1:
                out = np.empty((*a.shape[:-1], b.shape[-1]), dtype=np.result_type(a, b))

                def fill(span: tuple[int, int]) -> None:
                    i0, i1 = span
                    np.matmul(a[i0:i1], b[i0:i1] if sliced_b else b, out=out[i0:i1])

                self._run(fill, spans, work)
                return out
        return np.matmul(a, b)

    def conv2d(self, x, w_mat, kh, kw, stride, padding):
        n, c, h, w = x.shape
        co = w_mat.shape[0]
        dims = conv_geometry(h, w, kh, kw, stride, padding)
        work = n * co * dims[2] * dims[3]
        spans = self._spans(n, work)
        if len(spans) == 1:
            return Backend.conv2d(self, x, w_mat, kh, kw, stride, padding)
        cols = np.empty((n, c * kh * kw, dims[2] * dims[3]), dtype=x.dtype)
        out = np.empty((n, co, dims[2], dims[3]), dtype=np.result_type(x, w_mat))

        def fill(span: tuple[int, int]) -> None:
            i0, i1 = span
            out[i0:i1], cols[i0:i1], _ = Backend.conv2d(
                self, x[i0:i1], w_mat, kh, kw, stride, padding
            )

        self._run(fill, spans, work)
        return out, cols, dims

    def conv2d_grad_input(self, w_mat, grad_flat, x_shape, kh, kw, stride, padding, ho, wo):
        work = int(np.prod(x_shape))
        spans = self._spans(x_shape[0], work)
        if len(spans) == 1:
            return Backend.conv2d_grad_input(
                self, w_mat, grad_flat, x_shape, kh, kw, stride, padding, ho, wo
            )
        dx = np.empty(x_shape)

        def fill(span: tuple[int, int]) -> None:
            i0, i1 = span
            dx[i0:i1] = Backend.conv2d_grad_input(
                self, w_mat, grad_flat[i0:i1], (i1 - i0, *x_shape[1:]),
                kh, kw, stride, padding, ho, wo,
            )

        self._run(fill, spans, work)
        return dx

    def conv2d_grouped(self, x, w_flat, kh, kw, stride, padding):
        n, groups, ci, h, w = x.shape
        co = w_flat.shape[1]
        dims = conv_geometry(h, w, kh, kw, stride, padding)
        work = n * groups * co * dims[2] * dims[3]
        axis, spans = self._grouped_spans(n, groups, work)
        if len(spans) == 1:
            return Backend.conv2d_grouped(self, x, w_flat, kh, kw, stride, padding)
        cols = np.empty((n, groups, ci * kh * kw, dims[2] * dims[3]), dtype=x.dtype)
        out = np.empty((n, groups, co, dims[2], dims[3]), dtype=np.result_type(x, w_flat))

        def fill(span: tuple[int, int]) -> None:
            s = _sliced(axis, span)
            ws = w_flat if axis == 0 else w_flat[span[0] : span[1]]
            out[s], cols[s], _ = Backend.conv2d_grouped(self, x[s], ws, kh, kw, stride, padding)

        self._run(fill, spans, work)
        return out, cols, dims

    def conv2d_grouped_grad_input(
        self, w_flat, grad_flat, x_shape, kh, kw, stride, padding, ho, wo
    ):
        work = int(np.prod(x_shape))
        axis, spans = self._grouped_spans(x_shape[0], x_shape[1], work)
        if len(spans) == 1:
            return Backend.conv2d_grouped_grad_input(
                self, w_flat, grad_flat, x_shape, kh, kw, stride, padding, ho, wo
            )
        dx = np.empty(x_shape)

        def fill(span: tuple[int, int]) -> None:
            s = _sliced(axis, span)
            ws = w_flat if axis == 0 else w_flat[span[0] : span[1]]
            shape = list(x_shape)
            shape[axis] = span[1] - span[0]
            dx[s] = Backend.conv2d_grouped_grad_input(
                self, ws, grad_flat[s], tuple(shape), kh, kw, stride, padding, ho, wo
            )

        self._run(fill, spans, work)
        return dx


class EinsumBackend(Backend):
    """Deterministic shape-invariant kernels (np.einsum, no BLAS GEMM).

    Every GEMM-shaped primitive, forward and VJP, is overridden with an
    ``np.einsum`` contraction; only im2col/col2im and pooling are shared
    with the BLAS backends.

    BLAS dgemm picks its micro-kernel and accumulation structure from the
    full problem dimensions, so the *bits* of one output element can
    change with the number of columns computed alongside it — which is
    exactly what varies between a tile crop and the whole image, or
    between the bicubic skip on a crop and on the full frame.
    ``np.einsum`` (with the default ``optimize=False``) reduces each
    output element with one fixed sequential chain over its own operands,
    independent of batch size, pixel count, or crop extent.  Under this
    backend, tiled inference is therefore **bit-identical** to
    whole-image inference for any geometry — the reference substrate the
    adversarial tiling-parity tests pin the exactness claim against.

    Deliberately **not** in the spec-string registry: registered backends
    promise bit-parity with :class:`NumpyBackend` (artifact fingerprints
    are backend-invariant), and einsum's rounding differs from BLAS by
    design.  Construct it directly and pass the instance to
    :func:`use_backend` or :class:`~repro.nn.inference.Predictor`.  Much
    slower than the BLAS paths; a verification substrate, not a serving
    one.
    """

    name = "einsum"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim == 1 or b.ndim == 1:
            return np.matmul(a, b)  # vector cases keep numpy semantics
        return np.einsum("...ik,...kj->...ij", a, b)

    def conv2d(self, x, w_mat, kh, kw, stride, padding):
        n = x.shape[0]
        co = w_mat.shape[0]
        cols, dims = self.im2col(x, kh, kw, stride, padding)
        out = np.einsum("ok,nkp->nop", w_mat, cols).reshape(n, co, dims[2], dims[3])
        return out, cols, dims

    def conv2d_grouped(self, x, w_flat, kh, kw, stride, padding):
        n, groups, ci, h, w = x.shape
        co = w_flat.shape[1]
        cols, dims = self.im2col(x.reshape(n * groups, ci, h, w), kh, kw, stride, padding)
        cols = cols.reshape(n, groups, ci * kh * kw, dims[2] * dims[3])
        out = np.einsum("gok,ngkp->ngop", w_flat, cols).reshape(
            n, groups, co, dims[2], dims[3]
        )
        return out, cols, dims

    def conv2d_grad_weight(self, grad_flat, cols):
        return np.einsum("nop,nkp->ok", grad_flat, cols)

    def conv2d_grad_input(self, w_mat, grad_flat, x_shape, kh, kw, stride, padding, ho, wo):
        dcols = np.einsum("ok,nop->nkp", w_mat, grad_flat)
        return self.col2im(dcols, x_shape, kh, kw, stride, padding, ho, wo)

    def conv2d_grouped_grad_weight(self, grad_flat, cols):
        return np.einsum("ngop,ngkp->gok", grad_flat, cols)

    def conv2d_grouped_grad_input(
        self, w_flat, grad_flat, x_shape, kh, kw, stride, padding, ho, wo
    ):
        n, groups, ci, h, w = x_shape
        dcols = np.einsum("gok,ngop->ngkp", w_flat, grad_flat).reshape(
            n * groups, ci * kh * kw, ho * wo
        )
        dx = self.col2im(dcols, (n * groups, ci, h, w), kh, kw, stride, padding, ho, wo)
        return dx.reshape(x_shape)


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[str | None], Backend]] = {}


def register_backend(name: str, factory: Callable[[str | None], Backend]) -> None:
    """Register a backend factory under ``name``.

    ``factory(arg)`` receives the text after ``:`` in a spec string
    (``None`` when absent) and returns a :class:`Backend` instance.
    """
    _REGISTRY[name.lower()] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def make_backend(spec: "Backend | str") -> Backend:
    """Build a backend from a ``name[:arg]`` spec (pass-through for instances)."""
    if isinstance(spec, Backend):
        return spec
    name, sep, arg = str(spec).partition(":")
    name = name.strip().lower()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    try:
        return factory(arg.strip() if sep else None)
    except ValueError as exc:
        raise ValueError(f"bad backend spec {spec!r}: {exc}") from None


register_backend("numpy", lambda arg: NumpyBackend())
register_backend("threaded", lambda arg: SplitBackend(threads=int(arg) if arg else None))
register_backend("blocked", lambda arg: SplitBackend(threads=1, block=int(arg) if arg else 1))


_DEFAULT = NumpyBackend()
_SPEC_INSTANCES: dict[str, Backend] = {}
_SPEC_LOCK = threading.Lock()


def get_backend(spec: "Backend | str") -> Backend:
    """Like :func:`make_backend`, but returns one shared instance per
    spec string — so repeated lookups (the env-var path, Predictors
    constructed per request) reuse the same thread pool / scratch state
    instead of rebuilding them.  Backends are thread-safe, so sharing
    is sound; call :func:`make_backend` when isolation is wanted.
    """
    if isinstance(spec, Backend):
        return spec
    with _SPEC_LOCK:
        backend = _SPEC_INSTANCES.get(spec)
        if backend is None:
            backend = make_backend(spec)
            _SPEC_INSTANCES[spec] = backend
    return backend


class _ActiveStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[Backend] = []


_ACTIVE = _ActiveStack()


def default_backend() -> Backend:
    """The process-wide fallback backend (:class:`NumpyBackend`)."""
    return _DEFAULT


def current_backend() -> Backend:
    """The active backend on this thread.

    Precedence: innermost :func:`use_backend` context > the
    ``REPRO_BACKEND`` environment variable > :func:`default_backend`.
    """
    if _ACTIVE.stack:
        return _ACTIVE.stack[-1]
    spec = os.environ.get(BACKEND_ENV_VAR)
    if spec:
        try:
            return get_backend(spec)
        except ValueError as exc:
            raise ValueError(f"invalid {BACKEND_ENV_VAR}: {exc}") from None
    return _DEFAULT


class use_backend:
    """Thread-locally activate a backend for a ``with`` block.

    Accepts an instance or a spec string::

        with use_backend(SplitBackend(threads=4)):
            predictor(images)
        with use_backend("blocked:2048"):
            model(x)

    Nested contexts shadow outer ones; the context object is reusable
    but not reentrant-safe across threads (each thread keeps its own
    stack, so contexts opened on one thread never leak into another).
    """

    def __init__(self, backend: "Backend | str") -> None:
        self.backend = get_backend(backend)

    def __enter__(self) -> Backend:
        _ACTIVE.stack.append(self.backend)
        return self.backend

    def __exit__(self, *exc) -> None:
        _ACTIVE.stack.pop()
