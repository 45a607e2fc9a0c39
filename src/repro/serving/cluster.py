"""Process-sharded inference serving with shared-memory tensor transport.

:class:`ShardedInferenceServer` is the multi-core sibling of the
thread-based :class:`~repro.serving.server.InferenceServer`: a pool of
**spawned worker processes** (:class:`repro.comms.WorkerPool`), each
hosting its own :class:`~repro.nn.inference.Predictor` — or
:class:`~repro.nn.inference.CompiledPredictor` — replica of one model,
so GEMM-bound requests run on separate interpreters instead of
contending for one GIL.  Admission, shape-bucketed micro-batching,
futures, shutdown and stats are the serving core both servers share;
only where a batch runs differs.

**Startup.**  Construction returns once every worker has built its
replica and answered the pool's ready handshake, so the first request
never waits for a spawn, and a factory that fails raises from the
constructor (with the shared-memory segment already unlinked).

**Transport.**  Request and response arrays never cross a pipe: submit
writes each request into a :class:`~repro.comms.shm.ShmRing` slot.  One
router thread per rank claims a micro-batch of up to ``batch_size``
same-shape requests already queued (it never waits for stragglers) and
does one synchronous round trip with its rank's process: the slot list
goes out over that rank's task queue, the worker predicts the stacked
batch, writes each response into its slot *after* the request payload,
and answers on the rank's own response queue.  Slots are sized and
counted so "a request was admitted" and "a slot is free" are the same
event.

**Shape-affine routing.**  The first request of a given (C, H, W)
shape pins that shape to a replica group of ``replicas_per_shape``
ranks (those with the fewest shapes pinned); only the group's router
threads claim that shape.  Compiled execution plans are per-shape, so
affinity keeps a shape's traffic on workers that have already paid
that shape's trace cost instead of re-tracing it on all ``procs``
workers.

**Admission control.**  ``overload`` picks what happens when
``queue_depth`` requests are admitted and unresolved: ``"block"``
applies backpressure like the thread server, ``"reject"`` raises
:class:`~repro.serving.server.ServerOverloaded` immediately, and
``"degrade"`` first serves new requests through a cheaper fallback
predictor (eager, coarser tiling — no plan builds, less halo overlap)
once ``degrade_at`` requests are unresolved, then rejects at the full
``queue_depth``.  Under open-loop overload the server therefore sheds
or cheapens load with a bounded p99 instead of letting the queue
collapse.  Degraded requests batch apart from normal ones, and degraded
service keeps bit-identity for any request that fits one tile (the
batched path does not depend on tile size); only larger-than-tile
requests may differ from the serial reference by float reassociation
on BLAS backends.

**Crash recovery.**  A router thread watches its own process while it
waits for a reply.  When the process dies, the thread has the pool
respawn the rank — abandoning both of its queues, so a half-written
reply can never be read; the same rank keeps its shape affinity — and
re-sends the same batch, up to ``max_retries`` times.  The
request payloads in the slots outlive the crash (responses are written
after them), so the re-sent batch computes on byte-identical input and
no accepted request is ever dropped.

Every served output is produced by the same ``Predictor.predict`` call
a serial reference would make, on the exact request bytes the client
submitted (float64 all the way through shared memory), so sharded
serving is bit-identical to serial inference — the tests pin this for
mixed-shape 100-request concurrent runs, including across an injected
worker crash.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from concurrent.futures import Future
from typing import Any

import numpy as np

from ..comms.pool import WorkerDied, WorkerPool
from ..comms.shm import RingClient, ShmRing
from ..nn.inference import DEFAULT_TILE, Predictor
from ..nn.module import Module
from .server import (
    OVERLOAD_POLICIES,
    ServerClosed,
    ServerStats,
    _as_image,
    _Request,
    _Server,
)

__all__ = [
    "ShardedInferenceServer",
    "ClusterStats",
    "WorkerCrashed",
    "OVERLOAD_POLICIES",
]

#: The sharded server's stats are the one :class:`ServerStats` schema.
ClusterStats = ServerStats


class WorkerCrashed(RuntimeError):
    """Raised to a client whose request ran out of crash-retry budget."""


def _shard_setup(
    _rank: int,
    ring_name: str,
    slots: int,
    slot_bytes: int,
    factory: Callable[[], Module],
    state: Mapping[str, np.ndarray] | None,
    options: dict[str, Any],
) -> Callable[[tuple], tuple[int, ...]]:
    """Build one shard worker's model replica; return its batch handler.

    Runs in the spawned worker: factory + optional broadcast state_dict
    (the one startup pickle — request tensors themselves only ever
    travel through shared memory).  The handler serves one
    ``(slots, shape, degraded)`` batch and answers the output shape.
    """
    client = RingClient(ring_name, slots, slot_bytes)
    model = factory()
    if state is not None:
        model.load_state_dict(dict(state))
    model.eval()
    base = Predictor(
        model,
        batch_size=options["batch_size"],
        tile=options["tile"],
        backend=options["backend"],
        tuned=options.get("tuned", False),
    )
    predictor = base.compile() if options["compiled"] else base
    # The degraded fallback stays untuned by design: it exists to shed
    # load cheaply and predictably, not to consult caches.
    degraded = Predictor(
        model,
        batch_size=options["batch_size"],
        tile=options["degraded_tile"],
        backend=options["backend"],
        tuned=False,
    )

    def handle(task: tuple) -> tuple[int, ...]:
        batch_slots, shape, serve_degraded = task
        images = np.stack([client.get_array(slot, 0, shape) for slot in batch_slots])
        outputs = (degraded if serve_degraded else predictor).predict(images)
        offset = client.response_offset(shape)
        if offset + outputs[0].nbytes > slot_bytes:
            raise ValueError(
                f"response of {outputs[0].nbytes} bytes does not fit slot "
                f"({slot_bytes} bytes, request {offset} bytes); raise slot_bytes"
            )
        for slot, output in zip(batch_slots, outputs, strict=True):
            client.put_array(slot, offset, output)
        return outputs.shape[1:]

    return handle


class ShardedInferenceServer(_Server):
    """Multi-process sharded inference with shared-memory transport.

    Args:
        model_factory: Picklable zero-argument callable building the
            model in each worker (e.g. ``functools.partial(
            make_bench_model, seed)``).  Every worker must build the
            *same* weights for replicas to be interchangeable; pass
            ``state_dict`` to broadcast trained weights when the
            factory alone does not pin them.
        state_dict: Optional weights loaded into each worker's model
            after construction (pickled once at startup).
        procs: Worker process count (the shard count).
        replicas_per_shape: Size of the replica group a request shape
            is pinned to; larger groups trade plan-cache locality for
            load spreading.
        queue_depth: Maximum admitted, unresolved requests — also the
            shared-memory slot count.
        slot_bytes: Capacity of one transport slot; must hold one
            request plus its response (float64).
        overload: ``"block"`` / ``"reject"`` / ``"degrade"`` — see the
            module docstring.
        degrade_at: Unresolved level where ``"degrade"`` starts serving
            through the fallback predictor (default ``queue_depth//2``).
        max_retries: How often a batch is re-sent after its worker
            process died.
        batch_size: Micro-batch flush threshold, and the forward batch
            size of each worker's Predictor.
        tile / backend / compiled: Forwarded to each worker's
            :class:`~repro.nn.inference.Predictor`.  ``backend`` must be
            a spec string (backends carry thread pools and locks, which
            do not pickle).
        degraded_tile: Tile size of the degraded-mode predictor
            (default: twice the normal tile — coarser tiling, less halo
            recompute, and always eager).
        slo_ms: Latency objective used for the attainment statistic.
        tuned: Worker Predictors consult the :mod:`repro.tune` cache per
            request shape (spawned workers inherit ``REPRO_TUNING_DIR``
            through the environment); the degraded fallback stays
            untuned.  Cache misses serve the configured defaults; bytes
            are identical either way.  When omitted, follows the
            ``REPRO_TUNED`` environment flag in each worker process.

    Construction returns once every worker is ready (a factory that
    raises in a worker raises :class:`RuntimeError` here).  The server
    then serves at once and is a context manager; leaving the ``with``
    block drains admitted requests, stops the workers and unlinks the
    shared-memory segment.  An aborting :meth:`close` also fails a
    claimed batch whose process has not answered yet.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        *,
        state_dict: Mapping[str, np.ndarray] | None = None,
        procs: int = 2,
        replicas_per_shape: int = 1,
        queue_depth: int = 32,
        slot_bytes: int = 1 << 20,
        overload: str = "block",
        degrade_at: int | None = None,
        max_retries: int = 2,
        batch_size: int = 8,
        tile: int | None = None,
        backend: str | None = None,
        compiled: bool = False,
        degraded_tile: int | None = None,
        slo_ms: float = 100.0,
        tuned: bool | None = None,
    ) -> None:
        if procs <= 0:
            raise ValueError("procs must be positive")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if replicas_per_shape <= 0:
            raise ValueError("replicas_per_shape must be positive")
        if overload not in OVERLOAD_POLICIES:
            raise ValueError(f"overload must be one of {OVERLOAD_POLICIES}, got {overload!r}")
        if backend is not None and not isinstance(backend, str):
            raise ValueError(
                "cluster workers take a backend spec string (e.g. 'threaded:2'); "
                "Backend instances hold thread pools and do not cross processes"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.procs = procs
        self.replicas_per_shape = min(replicas_per_shape, procs)
        self.max_retries = max_retries
        if tuned is None:
            from ..tune.cache import tuned_enabled

            tuned = tuned_enabled()
        self.tuned = tuned
        options = {
            "batch_size": batch_size,
            "tile": tile,
            "backend": backend,
            "compiled": compiled,
            "tuned": tuned,
            "degraded_tile": (
                degraded_tile
                if degraded_tile is not None
                else 2 * (tile if tile is not None else DEFAULT_TILE)
            ),
        }
        state = dict(state_dict) if state_dict is not None else None
        self._ring = ShmRing(slots=queue_depth, slot_bytes=slot_bytes)
        try:
            self._pool = WorkerPool(
                "repro-shard",
                procs,
                _shard_setup,
                (self._ring.name, queue_depth, slot_bytes, model_factory, state, options),
            )
        except BaseException:
            self._ring.destroy()
            raise
        self._shapes_pinned = [0] * procs
        self._affinity: dict[tuple[int, ...], list[int]] = {}
        super().__init__(
            ranks=procs,
            batch_limit=batch_size,
            max_wait_s=0.0,
            queue_depth=queue_depth,
            overload=overload,
            degrade_at=degrade_at if degrade_at is not None else max(1, queue_depth // 2),
            slo_ms=slo_ms,
        )

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, timeout: float | None = None) -> Future:
        """Enqueue one (C, H, W) image; returns a future for its output.

        Admission follows the ``overload`` policy; a ``"block"`` submit
        raises :class:`~repro.serving.server.ServerOverloaded` only if
        ``timeout`` elapses with the cluster still full.
        """
        image = _as_image(image)
        if 2 * image.nbytes > self._ring.slot_bytes:
            raise ValueError(
                f"request of {image.nbytes} bytes cannot share a "
                f"{self._ring.slot_bytes}-byte slot with its response; raise slot_bytes"
            )
        request = _Request(image.shape)
        with self._lock:
            self._enqueue_locked(request, timeout)
            request.slot = self._ring.acquire(timeout=0.0)
            # Admission == slot availability by construction (slots ==
            # queue_depth == max unresolved), so this cannot be None.
            assert request.slot is not None
            self._ring.put_array(request.slot, 0, image)
            request.ranks = self._route_locked(image.shape)
        return request.future

    def workers_alive(self) -> int:
        """Live worker processes (a dead one respawns at its next batch)."""
        with self._lock:
            return self._pool.alive()

    def inject_worker_crash(self, rank: int = 0) -> None:
        """Fault injection: make worker ``rank`` die at its next dequeue.

        The crash descriptor queues behind any batch already sent to
        that worker, so the next batch the rank sends lands on a dying
        process: recovery must re-send it, never drop it.
        """
        with self._lock:
            if self._closing:
                raise ServerClosed("server is shutting down")
            self._pool.crash(rank)

    def _route_locked(self, shape: tuple[int, ...]) -> list[int]:
        """Shape-affine routing: pin a shape to a replica group once."""
        group = self._affinity.get(shape)
        if group is None:
            by_load = sorted(range(self.procs), key=lambda rank: (self._shapes_pinned[rank], rank))
            group = by_load[: self.replicas_per_shape]
            self._affinity[shape] = group
            for rank in group:
                self._shapes_pinned[rank] += 1
        return group

    # ------------------------------------------------------------------
    # router side
    # ------------------------------------------------------------------
    def _run_batch(self, rank: int, batch: list[_Request]) -> list[np.ndarray]:
        first = batch[0]
        task = ([request.slot for request in batch], first.shape, first.degraded)
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._stats.count("retried", len(batch))
            self._pool.send(rank, task)
            try:
                shape = self._pool.receive(rank, cancelled=lambda: self._aborting)
                break
            except WorkerDied:
                with self._lock:
                    self._pool.respawn(rank)
                self._stats.count("respawns")
            except InterruptedError:
                raise ServerClosed("server closed") from None
        else:
            raise WorkerCrashed(
                f"worker crashed {self.max_retries + 1} times serving this request"
            )
        offset = self._ring.response_offset(first.shape)
        return [self._ring.get_array(request.slot, offset, shape) for request in batch]

    def _retire_locked(self, request: _Request) -> None:
        super()._retire_locked(request)
        self._ring.release(request.slot)

    def _shutdown(self) -> None:
        """Stop the worker processes and unlink shared memory."""
        self._pool.close()
        self._ring.destroy()
