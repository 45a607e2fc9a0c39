"""Data-parallel training with a deterministic-order gradient all-reduce.

:class:`ParallelTrainEngine` is the multi-process sibling of
:class:`~repro.train.engine.TrainEngine`: ``jobs`` spawned workers
(one :class:`repro.comms.WorkerPool`) each compute gradients for a
share of every batch, and the parent combines them, clips, and steps
the one authoritative optimizer.  Everything around the gradient —
callbacks, history, scheduler, checkpoints, resume — is inherited
unchanged, so checkpoints are the ordinary
:mod:`repro.train.checkpoint` bundles and a run checkpointed under
``--jobs 2`` resumes bit-for-bit under ``--jobs 4`` (or serially).

**Grain decomposition: the determinism invariant.**  Float addition is
not associative, so "shard the batch N ways and sum the shard
gradients" would give N-dependent bytes: a GEMM over 8 samples is not
bitwise the sum of two GEMMs over 4.  The engine therefore fixes the
decomposition *independently of the worker count*: every batch is cut
into **grains** of ``grain`` consecutive samples, each grain's gradient
is computed separately (scaled by its share ``n_g / batch`` of the
batch-mean loss), and the per-grain gradients are combined by
:func:`repro.comms.tree_reduce` — a fixed pairwise summation over
ascending grain index.  Workers are assigned contiguous grain ranges,
but the reduction never sees that assignment: the bytes out are a pure
function of (weights, batch, grain), which is why ``--jobs 1`` (run
in-process, no workers) and ``--jobs N`` produce byte-identical
checkpoints for every ``N``.  The flip side: the grain size *is* part
of the numerics — change ``grain`` and you get a (deterministically)
different trajectory, just as changing ``batch_size`` would — and the
grain-sharded gradient is a *different rounding* of the same batch
gradient than :class:`TrainEngine`'s single full-batch backward, so the
serial reference for bit-identity is this engine at ``jobs=1``, not the
classic engine.

**Transport.**  Tensors never cross a pipe: one
:class:`repro.comms.shm.ShmRing` segment carries (slot 0) the flattened
weight broadcast, (slot 1) the batch inputs+targets, and (slot ``2+g``)
grain ``g``'s flattened gradient vector.  Queues carry only tiny step
descriptors and per-grain scalar losses.  Weights are re-broadcast
every step, so callbacks that mutate parameters on the parent (pruning
masks, fake-quantization) compose exactly as they do serially.

**Failure semantics.**  The first ``fit`` blocks until every worker
has built its replica (the pool's ready handshake), so a factory that
fails raises from that ``fit``.  A worker that dies mid-epoch (crash,
OOM, ``inject_worker_crash``), or a step that hangs past
``_STEP_TIMEOUT_S``, makes ``fit`` raise :class:`RuntimeError`
immediately — gradients from a partial step are never applied, and
there is no silent respawn: training state is stateful (unlike the
serving cluster's idempotent requests), so the only safe resume is from
the last checkpoint.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

import numpy as np

from ..comms.pool import WorkerDied, WorkerPool
from ..comms.reduce import flatten_arrays, tree_reduce, unflatten_into
from ..comms.shm import RingClient, ShmRing
from ..nn.module import Module
from ..nn.optim import LRScheduler, Optimizer
from ..nn.tensor import Tensor
from ..nn.trainer import TrainConfig
from .callbacks import Callback
from .engine import TrainEngine

__all__ = ["ParallelTrainEngine", "DEFAULT_GRAIN"]

#: Samples per gradient grain — the unit of work sharded across ranks.
#: Part of the numerics (like batch_size), NOT a tuning knob that may
#: silently differ between a run and its resume.
DEFAULT_GRAIN = 2

_WEIGHTS_SLOT = 0
_BATCH_SLOT = 1
_GRAD_SLOT0 = 2
#: Upper bound on one step's worker round trip before ``fit`` fails loudly.
_STEP_TIMEOUT_S = 120.0


def _grain_bounds(n: int, grain: int) -> list[tuple[int, int]]:
    """Cut ``n`` samples into consecutive grains of ``grain`` samples.

    The final grain keeps the remainder, so a partial batch decomposes
    the same way regardless of who processes it.
    """
    return [(start, min(start + grain, n)) for start in range(0, n, grain)]


def _grain_assignment(count: int, jobs: int) -> list[list[int]]:
    """Contiguous, balanced grain indices per rank (ranks may be idle)."""
    base, extra = divmod(count, jobs)
    out: list[list[int]] = []
    start = 0
    for rank in range(jobs):
        size = base + (1 if rank < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


def _scaled_grain_grad(
    model: Module,
    params: list,
    loss_fn: Callable,
    inputs: np.ndarray,
    targets: np.ndarray,
    scale: float,
) -> tuple[np.ndarray, float]:
    """One grain's contribution: flat gradient scaled by its batch share.

    ``zero_grad → forward → loss → backward`` on the grain alone, then
    the flattened gradient times ``scale`` (= ``n_grain / batch``, the
    chain-rule weight of this grain's mean loss inside the batch-mean
    loss).  Shared verbatim by the in-process ``jobs=1`` path and the
    spawn workers — the core of the any-worker-count bit-identity
    guarantee.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn(model(Tensor(inputs)), targets)
    loss.backward()
    flat = flatten_arrays([p.grad for p in params], like=[p.data for p in params])
    return flat * scale, float(loss.data)


def _combine_scalar_losses(
    raw_losses: Sequence[float], bounds: Sequence[tuple[int, int]], n: int
) -> float:
    """Batch-mean loss from per-grain mean losses, in fixed tree order."""
    scaled = [
        raw * ((stop - start) / n)
        for raw, (start, stop) in zip(raw_losses, bounds, strict=True)
    ]
    return float(tree_reduce(scaled))


def _grad_setup(
    rank: int,
    jobs: int,
    grain: int,
    ring_name: str,
    slots: int,
    slot_bytes: int,
    factory: Callable[[], Module],
    loss_fn: Callable,
) -> Callable[[tuple], tuple[int, list[tuple[int, float]]]]:
    """Build one gradient worker's replica; return its step handler.

    Runs in the spawned worker.  The startup pickle carries only the
    factory and the loss function — weights arrive through shared
    memory every step, so the replica never drifts from the parent.
    The handler computes this rank's grains of one step, writes their
    gradients to the ring and answers ``(step_id, [(grain, loss)])``.
    """
    client = RingClient(ring_name, slots, slot_bytes)
    model = factory()
    model.train()
    params = model.parameters()
    psize = int(sum(p.data.size for p in params))

    def handle(task: tuple) -> tuple[int, list[tuple[int, float]]]:
        step_id, n, x_shape, y_shape = task
        weights = client.get_array(_WEIGHTS_SLOT, 0, (psize,))
        unflatten_into(weights, [p.data for p in params])
        bounds = _grain_bounds(n, grain)
        mine = _grain_assignment(len(bounds), jobs)[rank]
        x_tail = tuple(x_shape[1:])
        y_tail = tuple(y_shape[1:])
        x_stride = int(np.prod(x_tail, dtype=np.int64)) * 8
        y_stride = int(np.prod(y_tail, dtype=np.int64)) * 8
        y_base = int(np.prod(x_shape, dtype=np.int64)) * 8
        losses = []
        for g in mine:
            start, stop = bounds[g]
            xs = client.get_array(_BATCH_SLOT, start * x_stride, (stop - start, *x_tail))
            ys = client.get_array(
                _BATCH_SLOT, y_base + start * y_stride, (stop - start, *y_tail)
            )
            vec, raw = _scaled_grain_grad(model, params, loss_fn, xs, ys, (stop - start) / n)
            client.put_array(_GRAD_SLOT0 + g, 0, vec)
            losses.append((g, raw))
        return step_id, losses

    return handle


class ParallelTrainEngine(TrainEngine):
    """Checkpointable trainer whose batch gradient is computed data-parallel.

    Args:
        model: The authoritative network, trained in place on the
            parent (workers hold throwaway replicas).
        config: Shared recipe (:class:`~repro.nn.trainer.TrainConfig`);
            must be picklable (the default MSE recipe is).
        optimizer / scheduler / callbacks: As for
            :class:`~repro.train.engine.TrainEngine`; all run on the
            parent only.
        jobs: Worker process count.  ``jobs=1`` runs the identical
            grain-sharded numerics in-process with no workers — the
            serial reference every ``jobs=N`` run is byte-identical to.
        grain: Samples per gradient grain (default
            :data:`DEFAULT_GRAIN`).  Part of the numerics: runs (and
            resumes) must agree on it, like they must on batch size.
        model_factory: Picklable zero-argument callable building the
            architecture in each worker (weights are broadcast every
            step, so only the architecture matters).  Required when
            ``jobs > 1``.

    Workers and the shared-memory ring are created lazily at the first
    batch (sized from it; that ``fit`` waits for the workers to be
    ready) and live until :meth:`close`; the engine is a
    context manager.  Later batches must fit the first batch's
    transport sizing — true for any fixed-``batch_size`` loader, whose
    later batches are only ever equal or smaller.
    """

    def __init__(
        self,
        model: Module,
        config: TrainConfig,
        optimizer: Optimizer | None = None,
        scheduler: LRScheduler | None = None,
        callbacks: Sequence[Callback] = (),
        *,
        jobs: int = 1,
        grain: int = DEFAULT_GRAIN,
        model_factory: Callable[[], Module] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if grain < 1:
            raise ValueError("grain must be >= 1")
        if jobs > 1 and model_factory is None:
            raise ValueError(
                "jobs > 1 needs a picklable model_factory so spawn workers can "
                "rebuild the architecture (weights are broadcast via shared "
                "memory each step)"
            )
        super().__init__(
            model, config, optimizer=optimizer, scheduler=scheduler, callbacks=callbacks
        )
        self.jobs = jobs
        self.grain = grain
        self._factory = model_factory
        self._psize = int(sum(p.data.size for p in self.params))
        self._ring: ShmRing | None = None
        self._pool: WorkerPool | None = None
        self._steps = 0
        self._closed = False

    # ------------------------------------------------------------------
    # transport lifecycle
    # ------------------------------------------------------------------
    def _ensure_transport(self, x: np.ndarray, y: np.ndarray) -> None:
        """Create the ring and spawn workers, sized from the first batch."""
        grains = len(_grain_bounds(len(x), self.grain))
        batch_bytes = x.nbytes + y.nbytes
        if self._ring is not None:
            if (
                batch_bytes > self._ring.slot_bytes
                or _GRAD_SLOT0 + grains > self._ring.slots
            ):
                raise ValueError(
                    f"batch of {len(x)} samples ({batch_bytes} bytes, {grains} "
                    f"grains) exceeds the transport ring sized at the first "
                    f"step; construct a fresh engine for larger batches"
                )
            return
        slot_bytes = max(self._psize * 8, batch_bytes, 8)
        self._ring = ShmRing(slots=_GRAD_SLOT0 + grains, slot_bytes=slot_bytes)
        args = (
            self.jobs,
            self.grain,
            self._ring.name,
            self._ring.slots,
            self._ring.slot_bytes,
            self._factory,
            self.config.loss_fn,
        )
        try:
            self._pool = WorkerPool("repro-train", self.jobs, _grad_setup, args)
        except BaseException:
            self._ring.destroy()
            self._ring = None
            raise

    def inject_worker_crash(self, rank: int = 0) -> None:
        """Fault injection: make worker ``rank`` die at its next dequeue.

        Queued behind any step already dispatched, so the parent
        observes exactly what a mid-epoch segfault looks like — and
        must fail the ``fit`` loudly rather than apply a partial
        gradient.
        """
        if self._pool is None:
            raise RuntimeError("no workers running (fit has not started)")
        self._pool.crash(rank)

    def close(self) -> None:
        """Stop the workers and unlink the shared-memory segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._ring is not None:
            self._ring.destroy()
            self._ring = None

    def __enter__(self) -> "ParallelTrainEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the data-parallel batch gradient
    # ------------------------------------------------------------------
    def _batch_gradients(self, inputs, targets) -> float:
        """Grain-sharded batch gradient, all-reduced in fixed tree order."""
        if self._closed:
            raise RuntimeError("engine is closed")
        x = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(targets, dtype=np.float64))
        n = len(x)
        bounds = _grain_bounds(n, self.grain)
        if self.jobs == 1:
            grads, raw_losses = [], []
            for start, stop in bounds:
                vec, raw = _scaled_grain_grad(
                    self.model,
                    self.params,
                    self.config.loss_fn,
                    x[start:stop],
                    y[start:stop],
                    (stop - start) / n,
                )
                grads.append(vec)
                raw_losses.append(raw)
        else:
            grads, raw_losses = self._dispatch_step(x, y, bounds)
        flat = tree_reduce(grads)
        for p in self.params:
            p.grad = np.empty_like(p.data)
        unflatten_into(flat, [p.grad for p in self.params])
        return _combine_scalar_losses(raw_losses, bounds, n)

    def _dispatch_step(
        self, x: np.ndarray, y: np.ndarray, bounds: list[tuple[int, int]]
    ) -> tuple[list[np.ndarray], list[float]]:
        """Broadcast weights + batch, farm grains out, collect in order."""
        self._ensure_transport(x, y)
        assert self._ring is not None
        n = len(x)
        assignment = _grain_assignment(len(bounds), self.jobs)
        working = [rank for rank in range(self.jobs) if assignment[rank]]
        self._steps += 1
        step_id = self._steps
        # Payloads before descriptors: the queue is the memory barrier.
        weights = flatten_arrays(
            [p.data for p in self.params], like=[p.data for p in self.params]
        )
        self._ring.put_array(_WEIGHTS_SLOT, 0, weights)
        self._ring.put_array(_BATCH_SLOT, 0, x)
        self._ring.put_array(_BATCH_SLOT, x.nbytes, y)
        for rank in working:
            self._pool.send(rank, (step_id, n, x.shape, y.shape))
        deadline = time.monotonic() + _STEP_TIMEOUT_S
        raw_by_grain: dict[int, float] = {}
        for rank in working:
            try:
                got_step, losses = self._pool.receive(rank, deadline)
            except WorkerDied as exc:
                raise RuntimeError(
                    f"data-parallel worker {rank} died mid-epoch (exit code "
                    f"{exc.exitcode}); partial gradients are never "
                    f"applied — resume from the last checkpoint"
                ) from None
            except TimeoutError:
                raise RuntimeError(
                    f"data-parallel step timed out after {_STEP_TIMEOUT_S:.0f}s "
                    f"waiting on rank {rank}"
                ) from None
            if got_step != step_id:
                raise RuntimeError(
                    f"worker {rank} answered step {got_step}, expected "
                    f"{step_id}: transport protocol out of sync"
                )
            raw_by_grain.update(losses)
        grads = [
            self._ring.get_array(_GRAD_SLOT0 + g, 0, (self._psize,))
            for g in range(len(bounds))
        ]
        raw_losses = [raw_by_grain[g] for g in range(len(bounds))]
        return grads, raw_losses
