"""A compact reverse-mode automatic-differentiation engine over numpy.

This is the training substrate substituting for the paper's PyTorch setup
(see DESIGN.md).  It provides a :class:`Tensor` carrying a numpy array, a
gradient buffer and a backward closure; operations build a DAG that
``backward()`` traverses in reverse topological order.

Only the operations needed by the model zoo are implemented, each with a
hand-written vector-Jacobian product.  Convolution lives in
:mod:`repro.nn.functional` and is registered here as a primitive.
"""

from __future__ import annotations

import math
import operator
import threading
from collections.abc import Callable, Iterable

import numpy as np

from . import backend as backend_module

__all__ = ["Tensor", "Parameter", "as_tensor", "concat", "no_grad", "is_grad_enabled"]


class _GradState(threading.local):
    """Per-thread grad-enabled flag.

    Thread-local (not a module global) so concurrent inference workers —
    each inside its own :class:`no_grad` — can never re-enable graph
    construction under a forward running on another thread, and a
    training loop on the main thread is unaffected by serving threads.
    New threads start with gradients enabled, like the main thread.
    """

    def __init__(self) -> None:
        self.enabled = True


_GRAD_STATE = _GradState()


class no_grad:
    """Context manager disabling graph construction (inference mode).

    The flag is per-thread: entering/exiting on one thread leaves every
    other thread's state untouched, so the context is safe under the
    concurrent per-worker forwards of :mod:`repro.serving`.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_STATE.enabled
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Whether new operations record backward closures (on this thread)."""
    return _GRAD_STATE.enabled


class _TraceState(threading.local):
    """Per-thread active compile tracer (see :mod:`repro.nn.compile`).

    Thread-local for the same reason as :class:`_GradState`: a trace in
    one serving worker must never observe forwards running concurrently
    on other threads.
    """

    def __init__(self) -> None:
        self.tracer = None


_TRACE_STATE = _TraceState()


def _active_tracer():
    """The compile tracer active on this thread, or None."""
    return _TRACE_STATE.tracer


def _set_active_tracer(tracer) -> None:
    _TRACE_STATE.tracer = tracer


def _trace_ew(out: "Tensor", op: str, src, operand=None, extra=None) -> "Tensor":
    """Report one elementwise op to the active tracer (if any)."""
    tracer = _TRACE_STATE.tracer
    if tracer is not None:
        tracer.record_ew(op, src, operand, out.data, extra)
    return out


def _trace_op(out: "Tensor", kind: str, inputs: tuple, *params) -> "Tensor":
    """Report one structured op to the active tracer (if any)."""
    tracer = _TRACE_STATE.tracer
    if tracer is not None:
        tracer.record(kind, inputs, out.data, params)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _tuple_product(matmul, mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` (m, n) applied along ``axis`` (>= 0) of ``x``.

    One (m, n) x (n, P) ``matmul`` per leading index over the (*lead, n, P)
    reshape of ``x``, P the product of the trailing axes, reshaped back to
    (*lead, m, *trail).  The reshape is a view of a C-contiguous ``x``
    and the product is C-contiguous, so the only copy is of a strided
    ``x``.  Eager forwards, their VJPs and compiled replay all call this.
    """
    lead, trail = x.shape[:axis], x.shape[axis + 1 :]
    flat = x.reshape(*lead, x.shape[axis], math.prod(trail))
    return matmul(mat, flat).reshape(*lead, mat.shape[0], *trail)


class Tensor:
    """A numpy array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._prev = _prev
        self._backward = _backward

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A graph-free view of this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output; drops the graph when grads are off."""
        tracer = _TRACE_STATE.tracer
        if tracer is not None:
            tracer.note_make(parents, data)
        needs = _GRAD_STATE.enabled and any(p.requires_grad for p in parents)
        if not needs:
            return Tensor(data)
        out = Tensor(data, requires_grad=True, _prev=parents, _backward=backward)
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this node.

        Args:
            grad: Seed gradient; defaults to 1 for scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        out = Tensor._make(self.data + other.data, (self, other), backward)
        return _trace_ew(out, "add", self.data, other.data)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        out = Tensor._make(self.data * other.data, (self, other), backward)
        return _trace_ew(out, "mul", self.data, other.data)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        # The forward product dispatches through the active kernel
        # backend (1-D operands keep plain numpy semantics); the VJPs
        # stay on np.matmul so gradients are backend-invariant by
        # construction.
        out_data = (
            backend_module.current_backend().matmul(self.data, other.data)
            if self.ndim >= 2 and other.ndim >= 2
            else self.data @ other.data
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                )

        out = Tensor._make(out_data, (self, other), backward)
        return _trace_op(out, "matmul", (self.data, other.data))

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        out = Tensor._make(self.data.reshape(shape), (self,), backward)
        return _trace_op(out, "reshape", (self.data,))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.ndim - 1, -1, -1))
        inverse = tuple(int(np.argsort(axes)[i]) for i in range(len(axes)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        out = Tensor._make(self.data.transpose(axes), (self,), backward)
        return _trace_op(out, "transpose", (self.data,), axes)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) axes symmetrically."""
        if padding == 0:
            return self
        widths = [(0, 0)] * (self.ndim - 2) + [(padding, padding)] * 2

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                sl = (Ellipsis, slice(padding, -padding), slice(padding, -padding))
                self._accumulate(grad[sl])

        return Tensor._make(np.pad(self.data, widths), (self,), backward)

    def crop2d(self, margin: int) -> "Tensor":
        """Remove ``margin`` pixels from each side of the spatial axes."""
        if margin == 0:
            return self
        sl = (Ellipsis, slice(margin, -margin), slice(margin, -margin))
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros(original)
                full[sl] = grad
                self._accumulate(full)

        return Tensor._make(self.data[sl], (self,), backward)

    # ------------------------------------------------------------------
    # reductions and elementwise
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, original).copy())

        out = Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)
        return _trace_op(out, "sum", (self.data,), axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        out = Tensor._make(self.data * mask, (self,), backward)
        return _trace_ew(out, "relu", self.data)

    def leaky_relu(self, slope: float = 0.1) -> "Tensor":
        factor = np.where(self.data > 0, 1.0, slope)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * factor)

        out = Tensor._make(self.data * factor, (self,), backward)
        return _trace_ew(out, "leaky_relu", self.data, extra=slope)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def select(self, axis: int, index: int) -> "Tensor":
        """Pick one slice along ``axis`` (the axis is dropped)."""
        sl = [slice(None)] * self.ndim
        sl[axis] = index
        sl_t = tuple(sl)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros(original)
                full[sl_t] = grad
                self._accumulate(full)

        return Tensor._make(self.data[sl_t].copy(), (self,), backward)

    # ------------------------------------------------------------------
    # tuple-axis transforms (ring machinery)
    # ------------------------------------------------------------------
    def tuple_transform(self, mat: np.ndarray, axis: int) -> "Tensor":
        """Apply an (m, n) matrix along one axis: out = mat . x on that axis."""
        mat = np.asarray(mat, dtype=np.float64)
        # Forward through the active kernel backend (like __matmul__), so
        # deterministic substrates catch the ring transforms too; the VJP
        # stays on the @ operator, keeping gradients backend-invariant.
        out = _tuple_product(backend_module.current_backend().matmul, mat, self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_tuple_product(operator.matmul, mat.T, grad, axis))

        result = Tensor._make(out, (self,), backward)
        return _trace_op(result, "tuple_transform", (self.data, mat), axis)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable tensor (requires_grad defaults to True)."""

    __slots__ = ()

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


def as_tensor(value) -> Tensor:
    """Coerce arrays / scalars to a (constant) Tensor."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:], strict=True):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._make(data, tuple(tensors), backward)
    return _trace_op(out, "concat", tuple(t.data for t in tensors), axis)
