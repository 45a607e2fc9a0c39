"""Batched, tiled inference pipeline over trained restoration models.

:class:`Predictor` turns a model into a service-shaped callable: inputs
are chunked into fixed-size mini-batches, and images larger than the
configured tile are cut into overlapping crops with a *halo* of real
context, so peak memory is bounded by ``batch_size * (tile + 2*halo)^2``
regardless of image size.

The tile grid is balanced (:meth:`TilingPlan.grid`): ``tile`` is the
*maximum* tile edge, and each axis is cut into the fewest tiles it
allows, all of one edge (rounded up onto the divisor grid).  A 64-px
edge at tile 48 becomes two 32-px tiles read through 38-px crops
(halo 3), not a 48-px tile plus a 16-px remainder that would still pay
for a full 54-px crop — so less halo is recomputed, and never more
crops or larger crops than the tile bound allows.

Tiling is exact, not approximate.  Each crop window is clamped inside
the image (never zero-filled), so wherever a crop edge is not the true
image border, every retained output pixel sits at least ``halo`` pixels
away from it; with ``halo`` covering the model's receptive-field radius
every retained output pixel sees exactly the operands whole-image
inference would give it.  At true image borders the crop ends exactly
where the image does, so the model's own padding behavior (zero padding
in convs, border replication in the bicubic skip) applies unchanged.

Two distinct reproducibility guarantees follow, and the tests pin both:

* **Batching is bit-exact on every backend.**  Splitting work along the
  batch axis (chunking by ``batch_size``, coalescing requests in
  :mod:`repro.serving`, grouping tile crops) runs the very same
  per-slice GEMMs, so results never depend on what else shared a batch.
* **Tiling is bit-exact on shape-invariant kernels.**  Under
  :class:`~repro.nn.backend.EinsumBackend` the tiled result equals
  whole-image inference bit for bit.  BLAS backends compute the same
  reduction operands but may reassociate them differently when the GEMM
  extent changes with the crop, so there tiled-vs-whole agreement is
  "exact up to floating-point reassociation" (observed ≤ a few ulp).
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading

import numpy as np

from .backend import Backend, current_backend, get_backend, use_backend
from .compile import ExecutionPlan, _model_walk, build_plan, model_stamp
from .module import Module
from .tensor import Tensor, no_grad

__all__ = ["DEFAULT_TILE", "TilingPlan", "Predictor", "CompiledPredictor", "plan_for_model"]

#: Default tile edge (input pixels) for derived tiling plans.  Shared by
#: :func:`plan_for_model` and :class:`Predictor` so the two cannot
#: drift; the autotuner treats it as the baseline geometry.
DEFAULT_TILE = 48

#: Sentinel distinguishing "tuned lookup not attempted yet" from "looked
#: up and missed" in the per-shape runtime cache.
_TUNED_UNRESOLVED = object()


@dataclasses.dataclass(frozen=True)
class TilingPlan:
    """Geometry of tiled inference.

    Attributes:
        tile: Maximum edge of one output tile, in input pixels (see
            :meth:`grid` for the balanced edges actually used).
        halo: Context margin read around each tile, in input pixels.
            Must cover the model's receptive-field radius for the tiled
            output to equal whole-image inference.
        scale: Output/input spatial ratio (4 for x4 super-resolution).
        divisor: Input sizes the model accepts must be multiples of this
            (e.g. 2 for a pixel-unshuffle head); tile, halo and crop
            offsets are kept on this grid so tuple phases never shift.
    """

    tile: int
    halo: int
    scale: int = 1
    divisor: int = 1

    def __post_init__(self) -> None:
        if self.tile <= 0 or self.halo < 0:
            raise ValueError("tile must be positive and halo non-negative")
        if self.tile % self.divisor or self.halo % self.divisor:
            raise ValueError("tile and halo must be multiples of the divisor")

    @property
    def crop(self) -> int:
        """Largest input crop edge fed to the model per tile."""
        return self.tile + 2 * self.halo

    def grid(self, h: int, w: int) -> tuple[int, int, int, int]:
        """Balanced tile geometry ``(tile_h, tile_w, crop_h, crop_w)`` for
        an ``h x w`` input (both on the divisor grid).

        Per axis: the fewest tiles ``tile`` allows, ``k = ceil(extent /
        tile)``, all of one edge ``round_up(ceil(extent / k), divisor)``
        (only the last may come up short), each read through a crop of
        ``min(extent, edge + 2*halo)``.  Equal edges keep a short
        remainder tile from paying for a full-size crop: 64 px at tile 48
        is two 32-px tiles, not 48 + 16.
        """
        th, tw = self._edge(h), self._edge(w)
        return th, tw, min(h, th + 2 * self.halo), min(w, tw + 2 * self.halo)

    def _edge(self, extent: int) -> int:
        tiles = -(-extent // self.tile)
        return _round_up(-(-extent // tiles), self.divisor)


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def plan_for_model(model: Module, tile: int = DEFAULT_TILE) -> TilingPlan:
    """Derive a sound :class:`TilingPlan` for a model.

    ERNet models (recognized by their ``config.task``) get exact plans:
    the receptive-field radius of a stack of same-padded convolutions is
    the sum of their paddings, scaled by the resolution the stack runs
    at (the denoising net convolves behind a pixel-unshuffle by 2), and
    the x4-SR net adds the Keys bicubic kernel's support of 2 low-res
    pixels for its global skip.  Other models fall back to a stride-1
    conv-stack estimate (sum of conv paddings).
    """
    if tile < 1:
        raise ValueError(f"tile must be a positive pixel count, got {tile}")
    paddings = sum(
        int(getattr(module, "padding", 0))
        for module in model.modules()
        if hasattr(module, "kernel_size")
    )
    task = getattr(getattr(model, "config", None), "task", None)
    if task == "denoise":
        divisor = 2
        halo = _round_up(2 * paddings, divisor)
        scale = 1
    elif task == "sr4":
        divisor = 1
        halo = paddings + 2
        scale = 4
    else:
        divisor = 1
        halo = paddings
        scale = 1
    return TilingPlan(
        tile=max(_round_up(tile, divisor), divisor), halo=halo, scale=scale, divisor=divisor
    )


class Predictor:
    """Memory-bounded batched/tiled inference front-end.

    Args:
        model: Trained model mapping (N, C, H, W) to (N, C', s*H, s*W).
        batch_size: Images (or tile crops) per forward pass.
        plan: Tiling geometry; derived via :func:`plan_for_model` when
            omitted.
        tile: Convenience override for the derived plan's tile size.
        backend: Kernel backend (instance or ``name[:arg]`` spec string)
            activated around every forward pass.  When omitted, forwards
            run on whatever backend is ambient at call time (the
            ``use_backend`` context / ``REPRO_BACKEND`` precedence of
            :mod:`repro.nn.backend`).
        tuned: Consult the :mod:`repro.tune` cache per input shape and
            serve through the cached winning schedule (backend spec,
            tile, micro-batch) when an applicable entry exists; fall
            back to this predictor's own configuration on a miss.  When
            omitted, follows the ``REPRO_TUNED`` environment flag.
            Tuned results are bit-identical to untuned — cached winners
            pass a byte-equality parity guard before they are stored.
    """

    def __init__(
        self,
        model: Module,
        batch_size: int = 8,
        plan: TilingPlan | None = None,
        tile: int | None = None,
        backend: Backend | str | None = None,
        tuned: bool | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.batch_size = batch_size
        self.plan = plan if plan is not None else plan_for_model(
            model, tile=tile if tile is not None else DEFAULT_TILE
        )
        # get_backend: spec strings resolve to one shared instance, so
        # per-request Predictors reuse thread pools instead of spawning
        # new ones.
        self.backend = get_backend(backend) if backend is not None else None
        if tuned is None:
            from ..tune.cache import tuned_enabled  # circular at module scope

            tuned = tuned_enabled()
        self.tuned = tuned
        # Per-shape resolved tuned delegates, shared across clones (like
        # the compiled plan cache) so a worker fleet resolves and warms
        # each shape once.  Values: a delegate Predictor, or None for a
        # cache miss (serve self's own configuration).
        self._tuned_runtimes: dict[tuple[int, ...], "Predictor | None"] = {}
        self._tuned_lock = threading.Lock()
        self._tuned_signature: dict | None = None

    @classmethod
    def from_checkpoint(
        cls,
        path,
        batch_size: int = 8,
        plan: TilingPlan | None = None,
        tile: int | None = None,
        backend: "Backend | str | None" = None,
    ) -> "Predictor":
        """Serve a trained checkpoint without re-running an experiment.

        The checkpoint must carry a model spec (``python -m repro train``
        and the experiment weight cache write one); the architecture is
        rebuilt, the saved weights loaded, and the model set to eval.
        Raises :class:`repro.train.CheckpointError` for missing/corrupt
        files or specs that cannot be rebuilt.
        """
        # Deferred import: repro.train depends on repro.nn, not vice versa.
        from ..train.checkpoint import Checkpoint

        model = Checkpoint.load(path).build_model()
        return cls(model, batch_size=batch_size, plan=plan, tile=tile, backend=backend)

    def clone(self, batch_size: int | None = None) -> "Predictor":
        """A new Predictor sharing this one's model, plan and backend.

        The clone is cheap — model weights (and their eval-mode caches)
        are shared, not copied — which is what a serving worker pool
        needs: one Predictor per worker thread, one model in memory.
        Sharing is safe because eval forwards only read the weights and
        the layers' weight-cache fills are lock-protected.
        """
        twin = Predictor(
            self.model,
            batch_size=batch_size if batch_size is not None else self.batch_size,
            plan=self.plan,
            backend=self.backend,
            tuned=self.tuned,
        )
        twin._adopt_tuned_state(self)
        return twin

    def compile(self) -> "CompiledPredictor":
        """A predictor serving this model via trace-once plan replay.

        The returned :class:`CompiledPredictor` shares this predictor's
        model, tiling plan, batch size and backend; its forwards replay
        lazily built, bit-identical :class:`~repro.nn.compile.ExecutionPlan`
        objects instead of re-running the eager Tensor graph.  See
        :mod:`repro.nn.compile` for the plan format and invalidation
        rules.
        """
        return CompiledPredictor(
            self.model,
            batch_size=self.batch_size,
            plan=self.plan,
            backend=self.backend,
            tuned=self.tuned,
        )

    # ------------------------------------------------------------------
    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.predict(inputs)

    def predict(self, inputs) -> np.ndarray:
        """Run inference over a stack of images (N, C, H, W)."""
        inputs = np.asarray(getattr(inputs, "data", inputs), dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) inputs, got shape {inputs.shape}")
        n, _, h, w = inputs.shape
        d = self.plan.divisor
        if h % d or w % d:
            raise ValueError(f"spatial size {h}x{w} not divisible by {d}")
        if self.model.training:
            # Switch once; eval() clears the layers' weight caches, so
            # calling it on every predict would defeat them.
            self.model.eval()
        runner = (self._tuned_predictor(inputs.shape[1:]) if self.tuned else None) or self
        if h <= runner.plan.tile and w <= runner.plan.tile:
            return runner._predict_batched(inputs)
        return runner._predict_tiled(inputs)

    def predict_image(self, image: np.ndarray) -> np.ndarray:
        """Convenience wrapper for a single (C, H, W) image."""
        return self.predict(np.asarray(image)[None])[0]

    # ------------------------------------------------------------------
    # autotuning
    # ------------------------------------------------------------------
    def tune(self, shape: tuple[int, ...], **options) -> "object":
        """Search and cache the best schedule for one request shape.

        Runs :func:`repro.tune.tune_model` for this predictor's model at
        its configured batch ceiling, persists the winning entry, and
        drops any already-resolved tuned delegates so the fresh entry
        takes effect immediately.  ``options`` forward to ``tune_model``
        (``seed``, ``trials``, ``warmup``, ``cache``, ``store``).
        Returns the stored :class:`~repro.tune.cache.TuningEntry`.
        """
        from ..tune import tune_model

        entry = tune_model(self.model, tuple(shape), self.batch_size, **options)
        with self._tuned_lock:
            self._tuned_runtimes.clear()
        return entry

    def _adopt_tuned_state(self, other: "Predictor") -> None:
        """Share ``other``'s resolved-delegate cache (for clones)."""
        self._tuned_lock = other._tuned_lock
        with self._tuned_lock:
            self._tuned_runtimes = other._tuned_runtimes
            self._tuned_signature = other._tuned_signature

    def _tuned_predictor(self, shape: tuple[int, ...]) -> "Predictor | None":
        """The resolved tuned delegate for a (C, H, W) shape, or None.

        None means "no applicable cache entry" (miss, host/backends
        changed, or the winner *is* the default): serve this predictor's
        own configuration.  Resolution happens once per shape; lookups
        key on the batch *bucket* of this predictor's configured
        ``batch_size`` — the same key the serving flush threshold uses —
        never on the size of one particular input stack.
        """
        key = tuple(int(x) for x in shape)
        delegate = self._tuned_runtimes.get(key, _TUNED_UNRESOLVED)
        if delegate is not _TUNED_UNRESOLVED:
            return delegate
        with self._tuned_lock:
            delegate = self._tuned_runtimes.get(key, _TUNED_UNRESOLVED)
            if delegate is _TUNED_UNRESOLVED:
                from ..tune import lookup, model_signature

                if self._tuned_signature is None:
                    self._tuned_signature = model_signature(self.model)
                entry = lookup(
                    self.model, key, self.batch_size, signature=self._tuned_signature
                )
                if entry is None or entry.winner == entry.default:
                    delegate = None
                else:
                    delegate = type(self)(
                        self.model,
                        batch_size=entry.winner.batch_size,
                        tile=entry.winner.tile,
                        backend=entry.winner.backend,
                        tuned=False,  # delegates never re-consult the cache
                    )
                self._tuned_runtimes[key] = delegate
        return delegate

    # ------------------------------------------------------------------
    def _forward(self, arr: np.ndarray) -> np.ndarray:
        activate = (
            use_backend(self.backend) if self.backend is not None else contextlib.nullcontext()
        )
        with activate, no_grad():
            return self.model(Tensor(arr)).data

    def _predict_batched(self, inputs: np.ndarray) -> np.ndarray:
        chunks = [
            self._forward(inputs[i : i + self.batch_size])
            for i in range(0, inputs.shape[0], self.batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def _predict_tiled(self, inputs: np.ndarray) -> np.ndarray:
        plan = self.plan
        s = plan.scale
        n, _, h, w = inputs.shape
        # All quantities stay on the divisor grid because h, w, tile and
        # halo are on it.
        th, tw, crop_h, crop_w = plan.grid(h, w)
        # One job per (image, tile) pair; crops share a shape, so jobs
        # batch across tile positions as well as images — a single large
        # image still fills batch_size-crop forwards.
        jobs = [
            (i, y0, x0, min(max(y0 - plan.halo, 0), h - crop_h), min(max(x0 - plan.halo, 0), w - crop_w))
            for i in range(n)
            for y0 in range(0, h, th)
            for x0 in range(0, w, tw)
        ]
        out: np.ndarray | None = None
        for start in range(0, len(jobs), self.batch_size):
            chunk = jobs[start : start + self.batch_size]
            crops = np.stack(
                [inputs[i, :, cy : cy + crop_h, cx : cx + crop_w] for i, _, _, cy, cx in chunk]
            )
            preds = self._forward(crops)
            if out is None:
                out = np.empty((n, preds.shape[1], h * s, w * s), dtype=preds.dtype)
            for pred, (i, y0, x0, cy, cx) in zip(preds, chunk, strict=True):
                ty, tx = min(th, h - y0), min(tw, w - x0)
                oy, ox = y0 - cy, x0 - cx
                out[i, :, s * y0 : s * (y0 + ty), s * x0 : s * (x0 + tx)] = pred[
                    :, s * oy : s * (oy + ty), s * ox : s * (ox + tx)
                ]
        assert out is not None
        return out


class CompiledPredictor(Predictor):
    """A :class:`Predictor` whose forwards replay compiled execution plans.

    Built by :meth:`Predictor.compile`.  The first forward per input
    shape traces the model into an
    :class:`~repro.nn.compile.ExecutionPlan` (and verifies it bit-exact
    against eager, see :func:`~repro.nn.compile.build_plan`); later
    forwards replay the cached plan with zero Tensor/graph allocation.
    Plans are keyed on the full input shape — batched prediction and
    tiled large-image prediction each warm their own bucket (full
    chunks, the remainder chunk, tile-crop stacks) and then replay.

    Every cached plan is stamped with
    :func:`~repro.nn.compile.model_stamp`; weight mutations,
    ``load_state_dict`` and ``train()``/``eval()`` transitions change
    the stamp and transparently rebuild the plan on the next forward —
    the same invalidation discipline as the layers' eval weight caches.

    Clones (one per serving worker) share the plan cache and its build
    lock, so a fleet of workers compiles each shape once; replay itself
    is lock-free and thread-safe (arena buffers are per-thread).
    """

    def __init__(
        self,
        model: Module,
        batch_size: int = 8,
        plan: TilingPlan | None = None,
        tile: int | None = None,
        backend: Backend | str | None = None,
        tuned: bool | None = None,
    ) -> None:
        super().__init__(
            model, batch_size=batch_size, plan=plan, tile=tile, backend=backend, tuned=tuned
        )
        self._plans: dict[tuple[int, ...], tuple[tuple, ExecutionPlan]] = {}
        self._compile_lock = threading.Lock()
        self._walk: tuple[tuple, tuple] | None = None  # lazy _model_walk cache

    def compile(self) -> "CompiledPredictor":
        """Already compiled; returns self (idempotent)."""
        return self

    def clone(self, batch_size: int | None = None) -> "CompiledPredictor":
        """A compiled clone sharing model, tiling plan, backend *and*
        the compiled-plan cache (plans are thread-safe to share)."""
        twin = CompiledPredictor(
            self.model,
            batch_size=batch_size if batch_size is not None else self.batch_size,
            plan=self.plan,
            backend=self.backend,
            tuned=self.tuned,
        )
        twin._plans = self._plans
        twin._compile_lock = self._compile_lock
        # Tuned delegates (each a CompiledPredictor with its own plan
        # cache) are shared too, so a worker fleet traces each tuned
        # shape once.
        twin._adopt_tuned_state(self)
        return twin

    def _plan_for(self, arr: np.ndarray) -> ExecutionPlan:
        """The cached plan for this input shape, (re)built when the
        shape is new or the model stamp went stale."""
        if self.model.training:
            self.model.eval()
        walk = self._walk
        if walk is None:
            walk = self._walk = _model_walk(self.model)
        stamp = model_stamp(self.model, _walk=walk)
        entry = self._plans.get(arr.shape)
        if entry is None or entry[0] != stamp:
            with self._compile_lock:
                entry = self._plans.get(arr.shape)
                if entry is None or entry[0] != stamp:
                    built = build_plan(self.model, arr, backend=self.backend)
                    entry = (model_stamp(self.model, _walk=walk), built)
                    self._plans[arr.shape] = entry
        return entry[1]

    def _forward(self, arr: np.ndarray) -> np.ndarray:
        backend = self.backend if self.backend is not None else current_backend()
        return self._plan_for(arr).run(arr, backend)
