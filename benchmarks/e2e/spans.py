"""Spans recorded from outside the program, for the ``--trace 1`` run.

The harness wraps the public functions at each layer boundary in its own
process — patched where the caller looks the name up, e.g.
``repro.train.parallel.tree_reduce`` rather than
``repro.comms.reduce.tree_reduce`` — and records one span per call:
name, start, end, parent span and request id.  Spans stay in memory, in
compact columns, and are written to JSON when the run ends.  Nothing
inside ``src/`` changes, so spawned worker processes are not traced:
their compute shows up only as waiting on the parent side.

A span's self time is its duration minus the part of it that its child
spans cover (:func:`self_times`); the per-layer metrics are built from
self times so that the parts add up to the whole.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import importlib
import itertools
import json
import math
import threading
import time
from array import array
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.nn.backend import conv_geometry

from measure import BACKEND_COPIES, BACKEND_KERNELS, percentile

#: Root span names of the timed harness operations (set-up excluded).
MEASURED_OPS = ("op.base", "op.alt")


@dataclasses.dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span
    req: int  # -1 when no request owns the span
    work: float  # computed FLOPs, bytes or pixels, by span kind

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Thread-safe in-memory span store plus the patch/restore bookkeeping."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cols = {
            "sid": array("q"),
            "name": array("i"),
            "start_ns": array("q"),
            "end_ns": array("q"),
            "parent": array("q"),
            "req": array("q"),
            "work": array("d"),
        }
        self._patches: list[tuple[object, str, object, bool]] = []
        self._paused = 0
        self.fired: collections.Counter[str] = collections.Counter()

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            return nid

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, req: int | None) -> tuple[int, int, int, int]:
        stack = self._stack()
        parent, parent_req = stack[-1] if stack else (-1, -1)
        sid = next(self._ids)
        req = parent_req if req is None else req
        stack.append((sid, req))
        return sid, parent, req, time.perf_counter_ns()

    def _close(self, token: tuple[int, int, int, int], end: int, nid: int, work: float) -> None:
        sid, parent, req, start = token
        self._stack().pop()
        cols = self._cols
        with self._lock:
            cols["sid"].append(sid)
            cols["name"].append(nid)
            cols["start_ns"].append(start)
            cols["end_ns"].append(end)
            cols["parent"].append(parent)
            cols["req"].append(req)
            cols["work"].append(work)

    @contextlib.contextmanager
    def span(self, name: str, req: int | None = None):
        """Record the ``with`` body as one span (a harness-level operation)."""
        nid = self._name_id(name)
        token = self._open(req)
        try:
            yield
        finally:
            self._close(token, time.perf_counter_ns(), nid, 0.0)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing, in any thread, while the body runs.

        Workloads pause around their untimed reference computations so
        that the layer metrics describe the measured paths only.
        """
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        work: Callable[..., float] | None = None,
        outermost: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``work(*args, **kwargs)`` computes the span's work figure from
        the call's arguments, after the end time is taken.  With
        ``outermost`` only calls not nested in another call of the same
        wrapper are recorded (the root ``Module.__call__`` of a forward,
        not every sub-module).
        """
        owned = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if owned else getattr(owner, attr)
        nid = self._name_id(name)
        depth = threading.local()
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder._paused:
                return original(*args, **kwargs)
            if outermost:
                level = getattr(depth, "level", 0)
                depth.level = level + 1
                if level:
                    try:
                        return original(*args, **kwargs)
                    finally:
                        depth.level = level
            recorder.fired[name] += 1
            token = recorder._open(None)
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                recorder._close(token, end, nid, work(*args, **kwargs) if work else 0.0)
                if outermost:
                    depth.level = 0

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attr, original, owned or not isinstance(owner, type)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, put_back = self._patches.pop()
            if put_back:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the name was inherited, not owned

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Snapshot of every closed span."""
        with self._lock:
            cols = {key: list(col) for key, col in self._cols.items()}
            names = list(self._names)
        return [
            Span(sid, names[nid], start, end, parent, req, work)
            for sid, nid, start, end, parent, req, work in zip(
                cols["sid"], cols["name"], cols["start_ns"], cols["end_ns"],
                cols["parent"], cols["req"], cols["work"], strict=True,
            )
        ]

    def dump(self, path) -> None:
        """Write the spans as columnar JSON (one list per field)."""
        with self._lock:
            payload = {key: col.tolist() for key, col in self._cols.items()}
            payload["names"] = list(self._names)
        with open(path, "w") as handle:
            json.dump(payload, handle)


class NullRecorder:
    """Stand-in for untraced runs: harness spans cost one call."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, req: int | None = None):
        return self._NULL

    def paused(self):
        return self._NULL


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    out = {}
    for span in spans:
        covered, cursor = 0, span.start_ns
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.duration_ns - covered
    return out


def root_names(spans: Sequence[Span]) -> dict[int, str]:
    """Span id -> name of its outermost ancestor (itself for a root)."""
    by_id = {span.sid: span for span in spans}
    roots: dict[int, str] = {}
    for span in spans:
        chain, node = [], span
        while node.sid not in roots and node.parent >= 0 and node.parent in by_id:
            chain.append(node.sid)
            node = by_id[node.parent]
        name = roots.get(node.sid, node.name)
        roots[node.sid] = name
        for sid in chain:
            roots[sid] = name
    return roots


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------
# Work figures are computed from argument shapes, not measured.  An
# ``*_infer`` call without ``out`` delegates to the training-path kernel
# (whose own span carries the FLOPs), so it carries none itself.
def _conv_flops(self, x, w_mat, kh, kw, stride, padding):
    n, c, h, w = x.shape
    _, _, ho, wo = conv_geometry(h, w, kh, kw, stride, padding)
    return 2.0 * n * w_mat.shape[0] * c * kh * kw * ho * wo


def _conv_infer_flops(self, x, w_mat, kh, kw, stride, padding, out=None):
    return 0.0 if out is None else _conv_flops(self, x, w_mat, kh, kw, stride, padding)


def _grouped_flops(self, x, w_flat, kh, kw, stride, padding):
    n, groups, _, h, w = x.shape
    _, _, ho, wo = conv_geometry(h, w, kh, kw, stride, padding)
    return 2.0 * n * groups * w_flat.shape[1] * w_flat.shape[2] * ho * wo


def _grouped_infer_flops(self, x, w_flat, kh, kw, stride, padding, out=None):
    return 0.0 if out is None else _grouped_flops(self, x, w_flat, kh, kw, stride, padding)


def _grad_weight_flops(self, grad_flat, cols):
    return 2.0 * grad_flat.size * cols.shape[-2]


def _grad_input_flops(self, w_mat, grad_flat, *rest):
    return 2.0 * grad_flat.size * w_mat.shape[-1]


def _matmul_flops(self, a, b):
    m = a.shape[-2] if a.ndim >= 2 else 1
    n = b.shape[-1] if b.ndim >= 2 else 1
    lead_a, lead_b = a.shape[:-2], b.shape[:-2]
    depth = max(len(lead_a), len(lead_b))
    lead_a = (1,) * (depth - len(lead_a)) + lead_a
    lead_b = (1,) * (depth - len(lead_b)) + lead_b
    # Broadcast dims are equal or 1, so the larger is the result's.
    batch = math.prod(max(da, db) for da, db in zip(lead_a, lead_b, strict=True))
    return 2.0 * batch * m * a.shape[-1] * n


def _im2col_bytes(self, x, kh, kw, stride, padding):
    n, c, h, w = x.shape
    _, _, ho, wo = conv_geometry(h, w, kh, kw, stride, padding)
    return float(x.itemsize * n * c * kh * kw * ho * wo)


def _col2im_bytes(self, dcols, *rest):
    return float(dcols.nbytes)


def _predict_pixels(self, inputs):
    shape = np.shape(getattr(inputs, "data", inputs))
    return float(shape[0] * shape[-2] * shape[-1] * self.plan.scale**2)


def _forward_pixels(self, x, *rest):
    shape = np.shape(getattr(x, "data", x))
    return float(shape[0] * shape[-2] * shape[-1]) if len(shape) == 4 else 0.0


def _put_bytes(self, slot, offset, array_):
    return float(np.asarray(array_).nbytes)


def _get_bytes(self, slot, offset, shape, dtype=np.float64):
    return float(math.prod(shape) * np.dtype(dtype).itemsize)


_KERNEL_WORK = {
    "conv2d": _conv_flops,
    "conv2d_infer": _conv_infer_flops,
    "conv2d_grouped": _grouped_flops,
    "conv2d_grouped_infer": _grouped_infer_flops,
    "conv2d_grad_weight": _grad_weight_flops,
    "conv2d_grad_input": _grad_input_flops,
    "matmul": _matmul_flops,
    "im2col": _im2col_bytes,
    "col2im": _col2im_bytes,
}

ALL = ("dn-small", "frconv-64", "serve-open", "train-dn")
_INFER = ("dn-small", "frconv-64", "serve-open")

#: Workloads on which each kernel must fire (the traced-run guard).
_KERNEL_WORKLOADS = {
    "conv2d": ("dn-small", "serve-open", "train-dn"),
    "conv2d_infer": ("dn-small", "serve-open"),
    "conv2d_grouped": ("frconv-64",),
    "conv2d_grouped_infer": ("frconv-64",),
    "conv2d_grad_weight": ("train-dn",),
    "conv2d_grad_input": ("train-dn",),
    "matmul": ALL,
    "im2col": ALL,
    "col2im": ("train-dn",),
}


@dataclasses.dataclass(frozen=True)
class Wrapper:
    """One patched name: where it lives, its span name, where it must fire."""

    span: str
    owner: Callable[[], object]
    attr: str
    workloads: tuple[str, ...]
    work: Callable[..., float] | None = None
    outermost: bool = False


def _backend_owner(kernel: str) -> Callable[[], object]:
    def owner():
        from repro.nn.backend import NumpyBackend

        # The class that defines the method the default backend resolves.
        return next(cls for cls in NumpyBackend.__mro__ if kernel in cls.__dict__)

    return owner


def _module(path: str, attr: str | None = None) -> Callable[[], object]:
    def owner():
        module = importlib.import_module(path)
        return getattr(module, attr) if attr else module

    return owner


LAYER_WRAPPERS: tuple[Wrapper, ...] = (
    *(
        Wrapper(
            f"nn.backend.{kernel}",
            _backend_owner(kernel),
            kernel,
            _KERNEL_WORKLOADS[kernel],
            _KERNEL_WORK[kernel],
        )
        for kernel in (*BACKEND_KERNELS, *BACKEND_COPIES)
    ),
    Wrapper(
        "nn.compile.build_plan",
        _module("repro.nn.inference"),
        "build_plan",
        ("dn-small", "frconv-64"),
    ),
    Wrapper(
        "nn.compile.plan_run",
        _module("repro.nn.compile", "ExecutionPlan"),
        "run",
        ("dn-small", "frconv-64"),
        _forward_pixels,
    ),
    Wrapper(
        "nn.module.eager_forward",
        _module("repro.nn.module", "Module"),
        "__call__",
        ALL,
        _forward_pixels,
        outermost=True,
    ),
    Wrapper(
        "nn.inference.predict",
        _module("repro.nn.inference", "Predictor"),
        "predict",
        _INFER,
        _predict_pixels,
    ),
    Wrapper(
        "serving.server.submit",
        _module("repro.serving.server", "InferenceServer"),
        "submit",
        ("serve-open",),
    ),
    Wrapper(
        "serving.cluster.submit",
        _module("repro.serving.cluster", "ShardedInferenceServer"),
        "submit",
        ("serve-open",),
    ),
    Wrapper(
        "comms.shm.put_array",
        _module("repro.comms.shm", "ShmRing"),
        "put_array",
        ("serve-open", "train-dn"),
        _put_bytes,
    ),
    Wrapper(
        "comms.shm.get_array",
        _module("repro.comms.shm", "ShmRing"),
        "get_array",
        ("serve-open", "train-dn"),
        _get_bytes,
    ),
    *(
        Wrapper(f"comms.reduce.{name}", _module("repro.train.parallel"), name, ("train-dn",))
        for name in ("tree_reduce", "flatten_arrays", "unflatten_into")
    ),
    Wrapper(
        "train.engine.backward",
        _module("repro.nn.tensor", "Tensor"),
        "backward",
        ("train-dn",),
    ),
    Wrapper(
        "train.engine.clip",
        _module("repro.train.engine"),
        "clip_grad_norm",
        ("train-dn",),
    ),
    Wrapper(
        "train.engine.optimizer",
        _module("repro.nn.optim", "Adam"),
        "step",
        ("train-dn",),
    ),
    Wrapper(
        "train.engine.checkpoint_save",
        _module("repro.train.engine", "TrainEngine"),
        "save_checkpoint",
        ("train-dn",),
    ),
)


def install(recorder: SpanRecorder, wrappers: Iterable[Wrapper] = LAYER_WRAPPERS) -> None:
    """Patch every layer boundary in this process."""
    for wrapper in wrappers:
        recorder.wrap(
            wrapper.owner(), wrapper.attr, wrapper.span, wrapper.work, wrapper.outermost
        )


def unfired(
    recorder: SpanRecorder, workload: str, wrappers: Iterable[Wrapper] = LAYER_WRAPPERS
) -> list[str]:
    """Wrappers assigned to ``workload`` that never fired.

    A wrapper that never fires usually means the patched name is no
    longer the one its caller looks up; the traced run fails on it
    instead of reporting zeros.
    """
    return [
        wrapper.span
        for wrapper in wrappers
        if workload in wrapper.workloads and recorder.fired[wrapper.span] == 0
    ]


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------
def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def span_metrics(spans: Sequence[Span], steps: dict[str, int]) -> dict[str, float]:
    """The span-derived per-layer metrics.

    ``steps`` maps a harness operation name (``op.base``/``op.alt``) to
    the optimizer steps it ran, for the per-step training figures; it is
    empty outside ``train-dn``.  Harness operation spans are the roots
    named ``op.*``; their self time is what no layer span accounts for.
    Per-call figures (``self_ms``, ``gflop``, ``ms``) are means over the
    calls, so they do not grow with the run length.
    """
    selfs = self_times(spans)
    roots = root_names(spans)
    groups: dict[str, list[Span]] = collections.defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    ms = 1e-6
    out: dict[str, float] = {}

    for kernel in (*BACKEND_KERNELS, *BACKEND_COPIES):
        group = groups.get(f"nn.backend.{kernel}", [])
        # Work and rate over the calls that did the work themselves.
        working = [s for s in group if s.work]
        work = sum(s.work for s in working)
        work_ns = sum(selfs[s.sid] for s in working)
        unit, rate = ("gbytes", "gbps") if kernel in BACKEND_COPIES else ("gflop", "gflops")
        out[f"nn.backend.{kernel}.calls"] = float(len(group))
        self_ns = sum(selfs[s.sid] for s in group)
        out[f"nn.backend.{kernel}.self_ms"] = _mean(self_ns * ms, len(group))
        out[f"nn.backend.{kernel}.{unit}"] = _mean(work / 1e9, len(working))
        out[f"nn.backend.{kernel}.{rate}"] = work / work_ns if work_ns else 0.0

    builds = groups.get("nn.compile.build_plan", [])
    runs = groups.get("nn.compile.plan_run", [])
    forwards = groups.get("nn.module.eager_forward", [])
    out["nn.compile.build_plan.calls"] = float(len(builds))
    out["nn.compile.build_plan.ms"] = _mean(sum(s.duration_ns for s in builds) * ms, len(builds))
    out["nn.compile.plan_run.calls"] = float(len(runs))
    out["nn.compile.plan_run.self_ms"] = _mean(sum(selfs[s.sid] for s in runs) * ms, len(runs))
    out["nn.module.eager_forward.calls"] = float(len(forwards))
    out["nn.module.eager_forward.self_ms"] = _mean(
        sum(selfs[s.sid] for s in forwards) * ms, len(forwards)
    )

    predicts = groups.get("nn.inference.predict", [])
    predict_ids = {s.sid for s in predicts}
    under = [s for s in (*runs, *forwards) if s.parent in predict_ids]
    out["nn.inference.predict.self_ms"] = _mean(
        sum(selfs[s.sid] for s in predicts) * ms, len(predicts)
    )
    out["nn.inference.forwards_per_call"] = _mean(len(under), len(predicts))
    computed = sum(s.work for s in under)
    out["nn.inference.useful_pixel_frac"] = (
        sum(s.work for s in predicts) / computed if computed else 0.0
    )

    for op in ("put_array", "get_array"):
        group = groups.get(f"comms.shm.{op}", [])
        out[f"comms.shm.{op}.calls"] = float(len(group))
        out[f"comms.shm.{op}.mb"] = _mean(sum(s.work for s in group) / 1e6, len(group))
        out[f"comms.shm.{op}.ms"] = _mean(sum(s.duration_ns for s in group) * ms, len(group))
    for op in ("tree_reduce", "flatten_arrays", "unflatten_into"):
        group = groups.get(f"comms.reduce.{op}", [])
        out[f"comms.reduce.{op}.calls"] = float(len(group))
        out[f"comms.reduce.{op}.ms"] = _mean(sum(s.duration_ns for s in group) * ms, len(group))

    base_steps = steps.get("op.base", 0)
    for metric, name in (
        ("forward", "nn.module.eager_forward"),
        ("backward", "train.engine.backward"),
        ("clip", "train.engine.clip"),
        ("optimizer", "train.engine.optimizer"),
    ):
        total = sum(s.duration_ns for s in groups.get(name, []) if roots[s.sid] == "op.base")
        out[f"train.engine.{metric}_ms_per_step"] = _mean(total * ms, base_steps)
    saves = groups.get("train.engine.checkpoint_save", [])
    out["train.engine.checkpoint.save_ms"] = _mean(
        sum(s.duration_ns for s in saves) * ms, len(saves)
    )
    alt_wait = sum(selfs[s.sid] for s in spans if s.parent < 0 and s.name == "op.alt")
    out["train.parallel.worker_wait_ms_per_step"] = _mean(alt_wait * ms, steps.get("op.alt", 0))

    ops = [s for s in spans if s.parent < 0 and s.name in MEASURED_OPS]
    op_ns = sum(s.duration_ns for s in ops)
    out["trace.unattributed_frac"] = sum(selfs[s.sid] for s in ops) / op_ns if op_ns else 0.0

    # Admission cost of the open-loop rungs only: there submits never
    # wait for queue space, unlike the backpressured saturation phase.
    for kind, name in (("server", "serving.server.submit"), ("cluster", "serving.cluster.submit")):
        group = [s.duration_ns * ms for s in groups.get(name, []) if roots[s.sid] in MEASURED_OPS]
        out[f"serving.{kind}.submit_ms_p99"] = percentile(group, 99) if group else 0.0
    return out
