"""Trace-once / replay-fast compiled inference (``Predictor.compile()``).

Eager inference rebuilds the full Python op graph on every forward:
each layer re-wraps arrays in :class:`~repro.nn.tensor.Tensor`, redoes
weight-side work (reshapes, transposes, BatchNorm scale/shift algebra)
and allocates fresh intermediates, even though with gradients off the
op *sequence* for a given input shape never changes.  This module
removes that per-request interpreter tax: one eager forward is traced
into a flat :class:`ExecutionPlan`, and subsequent forwards *replay*
the plan — no Tensor/autodiff wrappers, weight-side constants baked in,
elementwise chains fused, intermediates served from a preallocated
per-thread buffer arena (extending the backends' recycled im2col
scratch to the whole forward).

The compiled path is **bit-identical to eager by construction and by
proof**: every replay kernel mirrors the exact numpy expression (and
Backend dispatch) of its eager counterpart, fusion only changes *where*
results are written, never the arithmetic — and :func:`build_plan`
verifies each freshly built plan by replaying it against two eager
forwards (the traced input and a perturbed probe) before it is ever
served, so a model whose forward escapes the traceable op set fails at
compile time instead of silently drifting.

ExecutionPlan format
====================

**Values.**  Every array the traced forward touches is a *value* with an
integer id.  Values come in four kinds:

* ``input`` — the single plan argument, bound per run;
* ``const`` — an array that does not depend on the input (weights, the
  layers' cached eval banks, BatchNorm scale/shift, transform matrices).
  Constants are captured *by reference* at trace time, which is what
  bakes per-call weight-side work out of the hot path;
* ``op`` — the output of an :class:`OpRecord`;
* ``view`` — an op output that numpy returned as a view of its input
  (reshape/transpose); it aliases the producing value's storage
  and costs nothing to rebuild per run.

**Op records.**  The plan body is a flat tuple of :class:`OpRecord`,
executed in order.  Each record holds:

* ``kind`` — the kernel name (``conv2d``, ``conv2d_grouped``,
  ``matmul``, ``tuple_transform``, ``sum``, ``avg_pool``,
  ``pixel_shuffle``, ``pixel_unshuffle``, ``reshape``, ``transpose``,
  ``concat``, ``call`` or ``ew``).  Tensor ops that no model of
  :mod:`repro.models` applies to traced data (``select``, ``pad2d``,
  ``crop2d``, division, negation, powers, ``abs``, ``exp``, ``log``)
  have no replay kernel; tracing one raises :class:`TraceError`;
* ``inputs`` — value ids of the kernel operands, in kernel order (for
  ``conv2d`` this is ``(x, w_mat[, bias])`` with the weight matrix and
  broadcast-shaped bias captured as constants);
* ``output`` — the value id the kernel defines;
* ``params`` — static attributes (stride/padding, axes, factors, the
  callable for ``call``);
* ``steps`` — the fused elementwise epilogue: a tuple of
  ``(op, operand_value_id | None, extra | None)`` applied *in place* to
  the kernel output (bias adds, activations, residual adds, BatchNorm
  scale/shift).  A standalone ``ew`` record is the same chain applied
  out of place from ``inputs[0]``.  The dReLU mask never becomes a
  value — it lives in recycled per-thread bool scratch;
* ``slot`` — the arena buffer index the output is written into, or
  ``-1`` when the kernel allocates (or views) its result.

**Buffer-slot lifetimes.**  Each non-const, non-view op output owns a
*storage*; views share their base value's storage.  A storage is live
from the record defining it to the last record reading any value
aliasing it.  Slots are assigned by a linear scan: a storage may reuse
a slot only when the previous owner's live range ended *strictly
before* the defining record (so no kernel ever reads and writes
overlapping memory), and only slots with identical (shape, dtype) are
reused.  The plan output and anything sharing its storage are excluded
from the arena — callers keep each ``run()`` result, so it must be
freshly allocated.  Buffers are materialized lazily **per thread**
(plans are shared by cloned serving predictors), so concurrent replays
never share scratch.

**Per-call work.**  A ``conv2d`` / ``conv2d_grouped`` record calls the
backend's ``*_infer(..., out=slot)``, whose direct-write kernel takes
every view it needs (the padded input's interior, the window slices,
the cols) from the calling thread's scratch pool, cached per conv
geometry; a replayed conv is one interior copy plus one copy and one
GEMM per L2-sized chunk.  A ``tuple_transform`` record is one
(m, n) x (n, P) GEMM over the contiguous (*lead, n, P) reshape of its
input, the same helper eager calls, so its output is C-contiguous and
a following reshape (FRCONV's recombination) is a view, not a copy.

**Invalidation rules.**  A plan is valid for exactly one input shape
and one weight state.  :class:`~repro.nn.inference.CompiledPredictor`
keys its lazy cache on the full input shape and stamps every entry with
:func:`model_stamp` — the per-parameter
:func:`~repro.nn.module.weight_fingerprint` (array identity plus a
content hash: catches a rebound parameter and any in-place mutation,
the same mechanism invalidating the layers' eval weight caches) plus
the module tree's ``_state_version`` counters (bumped by ``train()`` /
``load_state_dict()``: catches mode flips and non-parameter state such
as BatchNorm running statistics).  A stale
stamp rebuilds the plan on the next forward.  Mutating non-parameter
buffers directly (e.g. assigning ``bn.running_mean``) bypasses both
signals — call ``model.train(False)`` (or any state-dict load) after
such surgery to bump the version.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from . import backend as backend_module
from .module import Module, weight_fingerprint
from .tensor import Tensor, _tuple_product, is_grad_enabled, no_grad

__all__ = [
    "CompileError",
    "ExecutionPlan",
    "OpRecord",
    "TraceError",
    "Tracer",
    "build_plan",
    "model_stamp",
    "traced_call",
]


class TraceError(RuntimeError):
    """The traced forward used an operation the tracer cannot record."""


class CompileError(RuntimeError):
    """A built plan failed its bit-identity verification against eager."""


# Value kinds -----------------------------------------------------------
_INPUT, _CONST, _OP, _VIEW = "input", "const", "op", "view"

#: Op kinds whose eager result may be a numpy view of the first operand.
_VIEW_KINDS = frozenset({"reshape", "transpose"})

#: Op kinds whose replay kernel can write into a preallocated buffer.
_SLOT_KINDS = frozenset(
    {"conv2d", "conv2d_grouped", "ew", "pixel_shuffle", "pixel_unshuffle", "reshape"}
)

#: Elementwise step ops that commute bitwise (IEEE add/mul are
#: commutative), so the tracked operand may take the running position.
_COMMUTATIVE = frozenset({"add", "mul"})


class OpRecord:
    """One step of an :class:`ExecutionPlan` (see the module docstring).

    Attributes:
        kind: Kernel name.
        inputs: Value ids of the kernel operands, in kernel order.
        output: Value id defined by this record.
        params: Static kernel attributes (strides, axes, factors, ...).
        steps: Fused elementwise epilogue applied in place to the
            output; ``(op, operand_value_id | None, extra | None)``.
        slot: Arena buffer index for the output, or -1 (fresh/view).
    """

    __slots__ = ("kind", "inputs", "output", "params", "steps", "slot", "_fn")

    def __init__(
        self,
        kind: str,
        inputs: tuple[int, ...],
        output: int,
        params: tuple = (),
        steps: tuple = (),
    ) -> None:
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.params = params
        self.steps = steps
        self.slot = -1
        self._fn = None

    def uses(self):
        """Every value id this record reads (operands + step operands)."""
        yield from self.inputs
        for _, operand, _ in self.steps:
            if operand is not None:
                yield operand

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" steps={[s[0] for s in self.steps]}" if self.steps else ""
        return f"OpRecord({self.kind} {self.inputs}->{self.output}{extra})"


# ----------------------------------------------------------------------
# Replay kernels
#
# Every kernel mirrors the *exact* numpy expression of its eager
# counterpart in tensor.py / functional.py — same ufuncs, same Backend
# dispatch, same reduction structure — so replay is bit-identical to
# eager on every backend.  Writing through ``out=`` only changes where
# a result lands, never its arithmetic.
# ----------------------------------------------------------------------
def _ew_add(a, b, dst, extra, scratch):
    return np.add(a, b, out=dst)


def _ew_mul(a, b, dst, extra, scratch):
    return np.multiply(a, b, out=dst)


def _ew_relu(a, b, dst, extra, scratch):
    # Eager relu is ``x * (x > 0)`` — NOT np.maximum, whose -0.0/NaN
    # behavior differs bitwise.  The bool mask is recycled scratch, the
    # one allocation eager makes per relu that replay folds out.
    mask = scratch(a.shape, np.bool_)
    np.greater(a, 0, out=mask)
    return np.multiply(a, mask, out=dst)


def _ew_leaky_relu(a, b, dst, extra, scratch):
    factor = np.where(a > 0, 1.0, extra)
    return np.multiply(a, factor, out=dst)


_EW_OPS = {
    "add": _ew_add,
    "mul": _ew_mul,
    "relu": _ew_relu,
    "leaky_relu": _ew_leaky_relu,
}


def _apply_steps(steps, out, env, scratch):
    """Run a fused epilogue in place on ``out`` (elementwise ops only)."""
    for op, operand, extra in steps:
        out = _EW_OPS[op](out, None if operand is None else env[operand], out, extra, scratch)
    return out


def _run_ew(rec, env, dst, backend, scratch):
    run = env[rec.inputs[0]]
    for op, operand, extra in rec.steps:
        run = _EW_OPS[op](run, None if operand is None else env[operand], dst, extra, scratch)
    return run


def _run_conv2d(rec, env, dst, backend, scratch):
    kh, kw, stride, padding = rec.params
    out = backend.conv2d_infer(
        env[rec.inputs[0]], env[rec.inputs[1]], kh, kw, stride, padding, out=dst
    )
    if len(rec.inputs) == 3:  # bias, captured pre-broadcast as (1, Co, 1, 1)
        out = np.add(out, env[rec.inputs[2]], out=out)
    return out


def _run_conv2d_grouped(rec, env, dst, backend, scratch):
    kh, kw, stride, padding = rec.params
    out = backend.conv2d_grouped_infer(
        env[rec.inputs[0]], env[rec.inputs[1]], kh, kw, stride, padding, out=dst
    )
    if len(rec.inputs) == 3:
        out = np.add(out, env[rec.inputs[2]], out=out)
    return out


def _run_matmul(rec, env, dst, backend, scratch):
    a, b = env[rec.inputs[0]], env[rec.inputs[1]]
    if a.ndim >= 2 and b.ndim >= 2:
        return backend.matmul(a, b)
    return a @ b


def _run_tuple_transform(rec, env, dst, backend, scratch):
    return _tuple_product(backend.matmul, env[rec.inputs[1]], env[rec.inputs[0]], rec.params[0])


def _run_sum(rec, env, dst, backend, scratch):
    axis, keepdims = rec.params
    return env[rec.inputs[0]].sum(axis=axis, keepdims=keepdims)


def _run_avg_pool(rec, env, dst, backend, scratch):
    return backend.avg_pool2d(env[rec.inputs[0]], rec.params[0])


def _run_pixel_shuffle(rec, env, dst, backend, scratch):
    src = env[rec.inputs[0]]
    n, c, h, w = src.shape
    r = rec.params[0]
    co = c // (r * r)
    moved = src.reshape(n, co, r, r, h, w).transpose(0, 1, 4, 2, 5, 3)
    np.copyto(dst.reshape(moved.shape), moved)
    return dst


def _run_pixel_unshuffle(rec, env, dst, backend, scratch):
    src = env[rec.inputs[0]]
    n, c, h, w = src.shape
    r = rec.params[0]
    ho, wo = h // r, w // r
    moved = src.reshape(n, c, ho, r, wo, r).transpose(0, 1, 3, 5, 2, 4)
    np.copyto(dst.reshape(moved.shape), moved)
    return dst


def _run_reshape_view(rec, env, dst, backend, scratch):
    return env[rec.inputs[0]].reshape(rec.params[0])


def _run_reshape_copy(rec, env, dst, backend, scratch):
    # Eager reshape-of-a-strided-array copies in C order; copying the
    # source into a C-contiguous buffer viewed at the source shape is
    # the same element traversal.
    src = env[rec.inputs[0]]
    np.copyto(dst.reshape(src.shape), src)
    return dst


def _run_transpose(rec, env, dst, backend, scratch):
    return env[rec.inputs[0]].transpose(rec.params[0])


def _run_concat(rec, env, dst, backend, scratch):
    return np.concatenate([env[v] for v in rec.inputs], axis=rec.params[0])


def _run_call(rec, env, dst, backend, scratch):
    fn, args = rec.params
    return np.asarray(fn(env[rec.inputs[0]], *args), dtype=np.float64)


_KERNELS = {
    "ew": _run_ew,
    "reshape": _run_reshape_copy,  # view records rebound in Tracer._lower
    "conv2d": _run_conv2d,
    "conv2d_grouped": _run_conv2d_grouped,
    "matmul": _run_matmul,
    "tuple_transform": _run_tuple_transform,
    "sum": _run_sum,
    "avg_pool": _run_avg_pool,
    "pixel_shuffle": _run_pixel_shuffle,
    "pixel_unshuffle": _run_pixel_unshuffle,
    "transpose": _run_transpose,
    "concat": _run_concat,
    "call": _run_call,
}


class ExecutionPlan:
    """A replayable flat op sequence for one (model, input-shape) pair.

    Built by :class:`Tracer` / :func:`build_plan`; see the module
    docstring for the record format, buffer-slot lifetimes and
    invalidation rules.  Plans are immutable after construction and safe
    to share across threads: the only mutable state, the buffer arena,
    is thread-local.
    """

    def __init__(
        self,
        records: list[OpRecord],
        n_values: int,
        input_vid: int,
        output_vid: int,
        consts: dict[int, np.ndarray],
        slots: list[tuple[tuple[int, ...], np.dtype]],
        input_shape: tuple[int, ...],
        shapes: dict[int, tuple[int, ...]],
        output_needs_copy: bool,
    ) -> None:
        self.records = tuple(records)
        self.n_values = n_values
        self.input_vid = input_vid
        self.output_vid = output_vid
        self.consts = consts
        self.slots = tuple(slots)
        self.input_shape = input_shape
        self.shapes = shapes
        self.output_needs_copy = output_needs_copy
        env: list = [None] * n_values
        for vid, arr in consts.items():
            env[vid] = arr
        self._env_base = env
        self._local = threading.local()
        for rec in self.records:
            rec._fn = _KERNELS[rec.kind]

    # ------------------------------------------------------------------
    def _buffers(self) -> list[np.ndarray]:
        bufs = getattr(self._local, "bufs", None)
        if bufs is None:
            bufs = self._local.bufs = [np.empty(shape, dtype) for shape, dtype in self.slots]
        return bufs

    def _scratch(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Recycled per-thread scratch (relu masks), one per (shape, dtype)."""
        pool = getattr(self._local, "scratch", None)
        if pool is None:
            pool = self._local.scratch = {}
        key = (shape, np.dtype(dtype).str)
        buf = pool.get(key)
        if buf is None:
            buf = pool[key] = np.empty(shape, dtype=dtype)
        return buf

    # ------------------------------------------------------------------
    def run(self, x: np.ndarray, backend: backend_module.Backend) -> np.ndarray:
        """Replay the plan on ``x`` (must match the traced shape)."""
        if x.shape != self.input_shape:
            raise ValueError(
                f"plan was traced for input shape {self.input_shape}, got {x.shape}"
            )
        bufs = self._buffers()
        scratch = self._scratch
        env = self._env_base.copy()
        env[self.input_vid] = x
        for rec in self.records:
            slot = rec.slot
            if slot >= 0:
                dst = bufs[slot]
            elif rec.kind in _SLOT_KINDS:
                # Slot-capable kernel excluded from the arena: its
                # storage reaches the plan output, which the caller
                # keeps, so it gets a fresh buffer every run.
                dst = np.empty(self.shapes[rec.output])
            else:
                dst = None
            out = rec._fn(rec, env, dst, backend, scratch)
            if rec.steps and rec.kind != "ew":
                out = _apply_steps(rec.steps, out, env, scratch)
            env[rec.output] = out
        out = env[self.output_vid]
        return out.copy() if self.output_needs_copy else np.asarray(out)


class Tracer:
    """Records one eager forward into an :class:`ExecutionPlan`.

    Usage (what :func:`build_plan` does)::

        tracer = Tracer()
        with no_grad(), tracer:
            x = Tensor(arr)
            tracer.track_input(x.data)
            out = model(x)
        plan = tracer.finish(out.data)

    While active (thread-locally), the op hooks in
    :mod:`repro.nn.tensor` and :mod:`repro.nn.functional` report every
    operation touching *tracked* arrays — arrays derived from the
    input.  Anything else an op consumes is interned as a plan
    constant.  ``Tensor._make`` additionally reports every graph node
    built from tracked data, so an op with no hook (one this module has
    no replay kernel for) raises :class:`TraceError` instead of being
    silently baked into the plan as a constant.
    """

    def __init__(self) -> None:
        self.records: list[OpRecord] = []
        self.arrays: list[np.ndarray] = []  # strong refs: keeps ids stable
        self.kinds: list[str] = []
        self.alias_of: list[int | None] = []
        self._tracked: dict[int, int] = {}
        self._consts: dict[int, int] = {}
        self._pending: tuple[int, str] | None = None
        self.input_vid: int | None = None

    # -- context management --------------------------------------------
    def __enter__(self) -> "Tracer":
        from . import tensor as tensor_module

        if tensor_module._active_tracer() is not None:
            raise TraceError("tracers do not nest")
        if is_grad_enabled():
            raise TraceError("tracing requires no_grad() (plans are inference-only)")
        tensor_module._set_active_tracer(self)
        return self

    def __exit__(self, *exc) -> None:
        from . import tensor as tensor_module

        tensor_module._set_active_tracer(None)

    # -- value bookkeeping ---------------------------------------------
    def _new_value(self, arr: np.ndarray, kind: str, alias: int | None = None) -> int:
        vid = len(self.arrays)
        self.arrays.append(arr)
        self.kinds.append(kind)
        self.alias_of.append(alias)
        return vid

    def track_input(self, arr: np.ndarray) -> int:
        """Mark ``arr`` as the plan input; everything derived from it is traced."""
        if self.input_vid is not None:
            raise TraceError("a plan has exactly one input")
        self.input_vid = self._new_value(arr, _INPUT)
        self._tracked[id(arr)] = self.input_vid
        return self.input_vid

    def _is_tracked(self, arr) -> bool:
        return id(arr) in self._tracked

    def _ref(self, arr) -> int:
        """The value id for an operand: tracked value or interned constant."""
        vid = self._tracked.get(id(arr))
        if vid is not None:
            return vid
        vid = self._consts.get(id(arr))
        if vid is None:
            arr = np.asarray(arr)
            vid = self._consts[id(arr)] = self._new_value(arr, _CONST)
        return vid

    # -- hooks (called from tensor.py / functional.py) ------------------
    def note_make(self, parents, data: np.ndarray) -> None:
        """Called by ``Tensor._make`` for every graph node built while
        tracing.  Sets a pending expectation the matching op hook must
        clear; a node over tracked data with no hook is an unsupported
        op and fails the trace."""
        if not any(id(p.data) in self._tracked for p in parents):
            return
        if self._pending is not None:
            raise TraceError(self._pending[1])
        shapes = tuple(p.shape for p in parents)
        self._pending = (
            id(data),
            f"an operation (inputs {shapes} -> output {data.shape}) consumed traced "
            "data without a trace hook; it is not supported by Predictor.compile()",
        )

    def _settle_pending(self, out: np.ndarray) -> None:
        if self._pending is not None:
            if self._pending[0] != id(out):
                raise TraceError(self._pending[1])
            self._pending = None

    def record(self, kind: str, inputs, out: np.ndarray, params: tuple = ()) -> None:
        """Record one non-elementwise op (no-op when nothing is tracked)."""
        self._settle_pending(out)
        if not any(self._is_tracked(a) for a in inputs):
            return
        in_vids = tuple(self._ref(a) for a in inputs)
        alias = None
        if kind in _VIEW_KINDS and np.shares_memory(out, inputs[0]):
            alias = in_vids[0]
        vid = self._new_value(out, _VIEW if alias is not None else _OP, alias)
        self._tracked[id(out)] = vid
        self.records.append(OpRecord(kind, in_vids, vid, tuple(params)))

    def record_ew(self, op: str, src, operand, out: np.ndarray, extra=None) -> None:
        """Record one elementwise op as a single-step ``ew`` chain.

        The running (first) position must hold a tracked array; the
        operands of the two-operand ops are swapped to arrange that (IEEE
        add/mul are bitwise commutative).
        """
        self._settle_pending(out)
        src_tracked = self._is_tracked(src)
        if not src_tracked and (operand is None or not self._is_tracked(operand)):
            return
        if not src_tracked:
            if op not in _COMMUTATIVE:  # pragma: no cover - unary ops have no second operand
                raise TraceError(f"elementwise op {op!r} with untracked running operand")
            src, operand = operand, src
        in_vids = (self._ref(src),)
        step_operand = None
        if operand is not None:
            step_operand = self._ref(operand)
            in_vids += (step_operand,)
        vid = self._new_value(out, _OP)
        self._tracked[id(out)] = vid
        self.records.append(
            OpRecord("ew", in_vids, vid, steps=((op, step_operand, extra),))
        )

    # -- plan construction ---------------------------------------------
    def finish(self, out_arr: np.ndarray) -> ExecutionPlan:
        """Close the trace and lower it into an :class:`ExecutionPlan`."""
        if self._pending is not None:
            raise TraceError(self._pending[1])
        if self.input_vid is None:
            raise TraceError("no input was tracked")
        out_vid = self._tracked.get(id(out_arr))
        if out_vid is None:
            raise TraceError(
                "the model output does not depend on the traced input through "
                "recorded ops (did the forward route data around the Tensor layer?)"
            )
        records = self._eliminate_dead(self.records, out_vid)
        records = self._fuse(records, out_vid)
        return self._lower(records, out_vid)

    def _eliminate_dead(self, records: list[OpRecord], out_vid: int) -> list[OpRecord]:
        needed = {out_vid}
        live: list[OpRecord] = []
        for rec in reversed(records):
            if rec.output in needed:
                needed.update(rec.uses())
                live.append(rec)
        live.reverse()
        return live

    def _fuse(self, records: list[OpRecord], out_vid: int) -> list[OpRecord]:
        """Merge elementwise records into their producer's epilogue.

        An ``ew`` record folds into the immediately preceding record
        when that record produced its running operand (or, for bitwise-
        commutative add/mul, its second operand), that value has no
        other consumer, shapes match (in-place needs no broadcast grow)
        and the producer's output is not a view (in-place through a
        view would clobber the base storage).
        """
        uses: dict[int, int] = {out_vid: 1}
        for rec in records:
            for v in rec.uses():
                uses[v] = uses.get(v, 0) + 1
        fused: list[OpRecord] = []
        for rec in records:
            prev = fused[-1] if fused else None
            if (
                prev is not None
                and rec.kind == "ew"
                and len(rec.steps) == 1
                and self.alias_of[prev.output] is None
                and uses.get(prev.output, 0) == 1
                and self.arrays[rec.output].shape == self.arrays[prev.output].shape
            ):
                op, operand, extra = rec.steps[0]
                if rec.inputs[0] == prev.output:
                    prev.steps += ((op, operand, extra),)
                    prev.output = rec.output
                    continue
                if op in _COMMUTATIVE and operand == prev.output:
                    # Swap the running position onto the chain (bitwise
                    # safe for IEEE add/mul).
                    prev.steps += ((op, rec.inputs[0], extra),)
                    prev.output = rec.output
                    continue
            fused.append(rec)
        return fused

    def _lower(self, records: list[OpRecord], out_vid: int) -> ExecutionPlan:
        n_values = len(self.arrays)
        storage = list(range(n_values))
        for vid in range(n_values):
            base = self.alias_of[vid]
            if base is not None:
                storage[vid] = storage[base]

        end = len(records)  # sentinel: live past the last record
        last_use: dict[int, int] = {storage[out_vid]: end}
        for i, rec in enumerate(records):
            for v in rec.uses():
                s = storage[v]
                last_use[s] = max(last_use.get(s, i), i) if s != storage[out_vid] else end

        out_storage = storage[out_vid]
        in_storage = storage[self.input_vid]
        slots: list[tuple[tuple[int, ...], np.dtype]] = []
        free: dict[tuple, list[int]] = {}
        releases: list[tuple[int, tuple, int]] = []  # (last_use, key, slot)
        for i, rec in enumerate(records):
            if rec.kind not in _SLOT_KINDS or self.alias_of[rec.output] is not None:
                continue
            s = storage[rec.output]
            if s == out_storage:
                continue  # caller keeps the result: fresh buffer per run
            for item in [r for r in releases if r[0] < i]:
                releases.remove(item)
                free.setdefault(item[1], []).append(item[2])
            arr = self.arrays[rec.output]
            key = (arr.shape, np.dtype(arr.dtype).str)
            pool = free.get(key)
            slot = pool.pop() if pool else None
            if slot is None:
                slot = len(slots)
                slots.append((arr.shape, arr.dtype))
            rec.slot = slot
            releases.append((last_use.get(s, i), key, slot))

        consts = {
            vid: self.arrays[vid] for vid in range(n_values) if self.kinds[vid] == _CONST
        }
        shapes = {rec.output: self.arrays[rec.output].shape for rec in records}
        # A reshape record whose trace output was a view replays as a
        # view; rebind its kernel via params so run() stays branch-free.
        for rec in records:
            if rec.kind == "reshape":
                rec.params = (self.arrays[rec.output].shape,)
        plan = ExecutionPlan(
            records=records,
            n_values=n_values,
            input_vid=self.input_vid,
            output_vid=out_vid,
            consts=consts,
            slots=slots,
            input_shape=self.arrays[self.input_vid].shape,
            shapes=shapes,
            output_needs_copy=out_storage == in_storage,
        )
        for rec in plan.records:
            if rec.kind == "reshape" and self.alias_of[rec.output] is not None:
                rec._fn = _run_reshape_view
            elif rec.kind == "reshape":
                rec._fn = _run_reshape_copy
        return plan


def traced_call(fn, x: Tensor, *args) -> Tensor:
    """Run a raw-numpy function as one opaque, replayable op.

    For forward paths that must leave the Tensor layer (ERNet's bicubic
    global skip): ``fn(x.data, *args)`` runs eagerly and returns a
    constant Tensor exactly as before, but while a trace is active it is
    additionally recorded as a ``call`` record holding ``fn`` by
    reference — so the plan replays it instead of constant-folding the
    result of one particular input.  ``fn`` must be deterministic and
    depend only on its arguments.
    """
    from . import tensor as tensor_module

    out = Tensor(fn(x.data, *args))
    tracer = tensor_module._active_tracer()
    if tracer is not None:
        tracer.record("call", (x.data,), out.data, (fn, tuple(args)))
    return out


def _model_walk(model: Module) -> tuple[tuple, tuple]:
    """The (modules, parameters) traversal :func:`model_stamp` hashes.

    Split out so per-predict callers (:class:`CompiledPredictor`) can
    compute it once and amortize the tree walk; the module *tree* is
    fixed after construction in this codebase (only weights and
    ``_state_version`` counters mutate), which is the same structural
    assumption the layers' eval weight caches already make.
    """
    return (
        tuple(model.modules()),
        tuple(p for _, p in model.named_parameters()),
    )


def model_stamp(model: Module, _walk: tuple[tuple, tuple] | None = None) -> tuple:
    """The plan-invalidation stamp for a model (see the module docstring).

    Combines every parameter's content
    :func:`~repro.nn.module.weight_fingerprint` — the same signal that
    invalidates the layers' eval weight caches, so compiled plans and
    cached weight banks go stale together — with the module tree's
    ``_state_version`` counters (``train()`` / ``load_state_dict()``),
    which cover non-parameter state like BatchNorm running statistics.
    """
    modules, params = _walk if _walk is not None else _model_walk(model)
    version = sum(getattr(m, "_state_version", 0) for m in modules)
    return (version, tuple(weight_fingerprint(p.data) for p in params))


def build_plan(
    model: Module,
    arr: np.ndarray,
    backend: backend_module.Backend | None = None,
    verify: bool = True,
) -> ExecutionPlan:
    """Trace ``model`` on ``arr`` and return a verified :class:`ExecutionPlan`.

    The model must be in eval mode.  When ``verify`` is on (always, in
    :class:`~repro.nn.inference.CompiledPredictor`), the fresh plan is
    replayed on the traced input *and* on a deterministically perturbed
    probe, and both must match the eager forward bit for bit — this
    catches forwards that smuggle input-dependent data around the traced
    op set (which would otherwise be constant-folded), so an unsupported
    model fails at compile time, never at serving time.
    """
    if model.training:
        raise TraceError("build_plan needs an eval-mode model (call model.eval())")
    arr = np.asarray(arr, dtype=np.float64)
    activate = (
        backend_module.use_backend(backend) if backend is not None else contextlib.nullcontext()
    )
    tracer = Tracer()
    with activate, no_grad():
        run_backend = backend_module.current_backend() if backend is None else backend
        with tracer:
            x = Tensor(arr)
            tracer.track_input(x.data)
            expected = model(x).data
        plan = tracer.finish(expected)
        if verify:
            _verify_plan(plan, model, arr, expected, run_backend)
    return plan


def _verify_plan(plan, model, arr, expected, backend) -> None:
    replayed = plan.run(arr, backend)
    if replayed.shape != expected.shape or replayed.tobytes() != expected.tobytes():
        raise CompileError(
            "compiled replay does not reproduce the traced eager forward bit for bit"
        )
    # Dyadic perturbation (exact in float64, flips signs/zeros) catches
    # input-dependent data that escaped tracing and was baked in as a
    # constant — it matches on the traced input by construction, so only
    # a second input can expose it.
    probe = arr * 1.0625 + 0.03125
    with no_grad():
        eager = model(Tensor(probe)).data
    replayed = plan.run(probe, backend)
    if replayed.shape != eager.shape or replayed.tobytes() != eager.tobytes():
        raise CompileError(
            "compiled replay diverges from eager on a perturbed probe input; the "
            "model's forward depends on the input through ops the tracer cannot "
            "see (e.g. raw .data access), so it cannot be compiled"
        )
