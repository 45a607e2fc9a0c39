"""In-process concurrent inference service with dynamic micro-batching.

:class:`InferenceServer` sits between many client threads and a pool of
:class:`~repro.nn.inference.Predictor` workers.  Clients submit single
images and get a future back; a bounded queue applies backpressure
(block, or reject when configured); workers coalesce queued requests
into dense micro-batches — flushing when ``max_batch`` requests of one
shape are ready or when the oldest has waited ``max_wait_ms`` — and run
them through a per-worker Predictor sharing one model.

Heterogeneous request sizes are handled by *shape bucketing*: a worker
batches only requests whose (C, H, W) match, so every micro-batch stays
one dense array; mixed-shape traffic simply forms per-shape batches.

Because batching work along the batch axis runs the very same per-slice
GEMMs (see :mod:`repro.nn.inference`), a served result is bit-identical
to calling the Predictor serially on that request alone — micro-batching
changes throughput, never bits.  The tests pin this under 100+
concurrent clients.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from ..nn.backend import Backend
from ..nn.inference import Predictor, TilingPlan
from ..nn.module import Module

__all__ = [
    "InferenceServer",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
]


class ServerClosed(RuntimeError):
    """Raised by submissions to (and pending work cancelled by) a closed server."""


class ServerOverloaded(RuntimeError):
    """Raised when the bounded queue is full and the server rejects."""


class _Request:
    __slots__ = ("image", "shape", "future", "enqueued_at")

    def __init__(self, image: np.ndarray) -> None:
        self.image = image
        self.shape = image.shape
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """Aggregate snapshot of a server's request/batch accounting.

    The latency schema (p50/p95/p99 + ``slo_attainment`` against
    ``slo_ms``) is shared with the process-sharded server's
    :class:`~repro.serving.cluster.ClusterStats`, so thread- and
    process-based serving report comparably.  Both follow one rule: the
    latency fields and ``slo_attainment`` cover successful requests
    only; a failed request counts in ``requests`` and ``failed`` and
    never in the latency window.
    """

    requests: int
    batches: int
    rejected: int
    failed: int
    mean_batch_size: float
    max_batch_size: int
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    latency_ms_max: float
    slo_ms: float
    slo_attainment: float
    batch_ms_mean: float
    wall_s: float
    throughput_rps: float

    def format(self) -> str:
        return (
            f"{self.requests} requests in {self.batches} batches "
            f"(mean {self.mean_batch_size:.2f}, max {self.max_batch_size}); "
            f"{self.throughput_rps:.1f} req/s; latency ms "
            f"mean {self.latency_ms_mean:.2f} p50 {self.latency_ms_p50:.2f} "
            f"p95 {self.latency_ms_p95:.2f} p99 {self.latency_ms_p99:.2f} "
            f"max {self.latency_ms_max:.2f}; "
            f"SLO {self.slo_ms:.0f}ms attainment {self.slo_attainment:.3f}"
        )


class _StatsAccumulator:
    """Thread-safe request/batch counters behind :meth:`InferenceServer.stats`.

    Batch accounting is kept as running aggregates (count/sum/max), so a
    long-lived server's memory stays flat; only the latency buffer —
    needed for percentiles — holds samples: a sliding window of the most
    recent MAX_SAMPLES, so percentiles keep tracking current behavior
    instead of freezing on the first samples ever taken.
    """

    MAX_SAMPLES = 100_000

    def __init__(self, slo_ms: float = 100.0) -> None:
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.slo_ms = slo_ms
        self._latencies: deque[float] = deque(maxlen=self.MAX_SAMPLES)
        self._batches = 0
        self._batch_size_max = 0
        self._batch_seconds_sum = 0.0
        self.requests = 0
        self.rejected = 0
        self.failed = 0

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_batch(
        self, size: int, seconds: float, latencies: list[float], failed: bool
    ) -> None:
        with self._lock:
            self.requests += size
            self._batches += 1
            self._batch_size_max = max(self._batch_size_max, size)
            self._batch_seconds_sum += seconds
            if failed:
                self.failed += size
            else:
                self._latencies.extend(latencies)  # maxlen evicts the oldest

    def snapshot(self) -> ServerStats:
        with self._lock:
            lat_ms = np.sort(np.asarray(self._latencies)) * 1e3
            batches = self._batches
            batch_size_max = self._batch_size_max
            batch_seconds_sum = self._batch_seconds_sum
            requests, rejected, failed = self.requests, self.rejected, self.failed
            wall = time.perf_counter() - self._started
        have_lat = len(lat_ms) > 0
        return ServerStats(
            requests=requests,
            batches=batches,
            rejected=rejected,
            failed=failed,
            mean_batch_size=requests / batches if batches else float("nan"),
            max_batch_size=batch_size_max,
            latency_ms_mean=float(lat_ms.mean()) if have_lat else float("nan"),
            latency_ms_p50=float(np.percentile(lat_ms, 50)) if have_lat else float("nan"),
            latency_ms_p95=float(np.percentile(lat_ms, 95)) if have_lat else float("nan"),
            latency_ms_p99=float(np.percentile(lat_ms, 99)) if have_lat else float("nan"),
            latency_ms_max=float(lat_ms[-1]) if have_lat else float("nan"),
            slo_ms=self.slo_ms,
            slo_attainment=float((lat_ms <= self.slo_ms).mean()) if have_lat else float("nan"),
            batch_ms_mean=batch_seconds_sum / batches * 1e3 if batches else float("nan"),
            wall_s=wall,
            throughput_rps=requests / wall if wall > 0 else float("nan"),
        )


class InferenceServer:
    """Concurrent single-image inference with dynamic micro-batching.

    Args:
        model: Trained model; switched to eval mode once, up front, so
            worker threads share read-only weights (and lock-protected
            eval weight caches).
        workers: Worker threads, each with its own cheap Predictor clone.
        max_batch: Micro-batch flush threshold (and the per-worker
            Predictor's forward batch size).
        max_wait_ms: How long a worker holds an under-full batch open for
            same-shape stragglers before flushing.  0 flushes immediately
            (pure per-request dispatch).
        queue_depth: Bound on queued (not yet batched) requests — the
            backpressure knob.
        reject_when_full: When True, a submit against a full queue raises
            :class:`ServerOverloaded` instead of blocking.
        backend: Kernel backend (instance or spec string) pinned to every
            worker's forwards, via the Predictor.
        plan / tile / batch_size: Forwarded to the prototype
            :class:`~repro.nn.inference.Predictor`.
        slo_ms: Latency objective used for the ``slo_attainment``
            statistic (reporting only; never changes scheduling).
        compiled: Serve through :meth:`Predictor.compile` — workers share
            one execution-plan cache (plans build once per request shape
            under the compile lock, then replay lock-free).  Replay is
            bit-identical to eager, so this changes latency, never bytes.
        tuned: Consult the :mod:`repro.tune` cache per shape bucket —
            worker Predictors serve through the cached winning schedule,
            and the micro-batch *flush threshold* follows the winner's
            tuned batch size per shape (so batches flush exactly at the
            size the tuned forward wants).  Cache misses fall back to
            ``max_batch`` and the untuned configuration; served bytes
            are identical either way.  When omitted, follows the
            ``REPRO_TUNED`` environment flag.

    The server starts serving on construction and is a context manager;
    leaving the ``with`` block drains the queue and joins the workers.
    """

    def __init__(
        self,
        model: Module,
        *,
        workers: int = 2,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        queue_depth: int = 64,
        reject_when_full: bool = False,
        backend: Backend | str | None = None,
        plan: TilingPlan | None = None,
        tile: int | None = None,
        compiled: bool = False,
        slo_ms: float = 100.0,
        tuned: bool | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        model.eval()  # once, before any worker runs: no eval/forward race
        if tuned is None:
            from ..tune.cache import tuned_enabled

            tuned = tuned_enabled()
        prototype = Predictor(
            model, batch_size=max_batch, plan=plan, tile=tile, backend=backend, tuned=tuned
        )
        if compiled:
            # Clones of a CompiledPredictor share its plan cache, so the
            # trace cost is paid once per shape across all workers.
            prototype = prototype.compile()
        self.compiled = compiled
        self.tuned = tuned
        self._model = model
        # Per-shape tuned flush thresholds (resolved lazily, under the
        # server lock, once per shape).  Keyed like the Predictor's
        # delegate cache: the shape bucket plus the configured max_batch.
        self._flush_thresholds: dict[tuple[int, ...], int] = {}
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1e3
        self.queue_depth = queue_depth
        self.reject_when_full = reject_when_full
        self._stats = _StatsAccumulator(slo_ms=slo_ms)
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._has_space = threading.Condition(self._lock)
        self._pending: deque[_Request] = deque()
        self._closing = False
        self._drain = True
        self._waiting_idle = 0  # workers blocked waiting for any request
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(prototype.clone() if i else prototype,),
                name=f"repro-serving-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "InferenceServer":
        """Serve a trained checkpoint directly (see
        :meth:`Predictor.from_checkpoint` for the spec requirements);
        ``kwargs`` are the regular constructor options."""
        from ..train.checkpoint import Checkpoint

        return cls(Checkpoint.load(path).build_model(), **kwargs)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, timeout: float | None = None) -> Future:
        """Enqueue one (C, H, W) image; returns a future for its output.

        Blocks while the queue is full (backpressure) unless the server
        was built with ``reject_when_full`` — then it raises
        :class:`ServerOverloaded` immediately; a blocking submit raises
        it only if ``timeout`` elapses without space.
        """
        image = np.asarray(getattr(image, "data", image), dtype=np.float64)
        if image.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
        request = _Request(image)
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            while len(self._pending) >= self.queue_depth:
                if self._closing:
                    raise ServerClosed("server is shutting down")
                if self.reject_when_full:
                    self._stats.record_rejected()
                    raise ServerOverloaded(
                        f"queue full ({self.queue_depth} pending requests)"
                    )
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    self._stats.record_rejected()
                    raise ServerOverloaded(
                        f"no queue space within {timeout:.3f}s "
                        f"({self.queue_depth} pending requests)"
                    )
                self._has_space.wait(remaining)
            if self._closing:
                raise ServerClosed("server is shutting down")
            request.enqueued_at = time.perf_counter()
            self._pending.append(request)
            # notify_all, not notify: a worker holding an under-full
            # batch open for stragglers also waits on this condition, and
            # a single notify could land on it for a request of another
            # shape — leaving an idle worker asleep until some deadline.
            self._has_work.notify_all()
        return request.future

    def predict(self, image: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Blocking convenience: submit one image and wait for its output.

        ``timeout`` bounds the whole call — queueing (backpressure wait)
        *and* serving — not just the result wait.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        future = self.submit(image, timeout=timeout)
        remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
        try:
            return future.result(remaining)
        except FutureTimeoutError:
            # Shed the abandoned work if it is still queued (the caller
            # drops its only reference on timeout; without this, retry
            # loops under overload would pile up zombie requests that
            # workers still compute).
            future.cancel()
            raise

    def pending(self) -> int:
        """Requests queued but not yet claimed by a worker."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> ServerStats:
        """Aggregate latency/throughput snapshot since construction."""
        return self._stats.snapshot()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and join the workers.

        Args:
            drain: Serve the queued requests first (default); when False,
                fail them with :class:`ServerClosed` instead.
            timeout: Per-worker join timeout.
        """
        with self._lock:
            self._closing = True
            self._drain = drain
            if not drain:
                while self._pending:
                    request = self._pending.popleft()
                    # False when the client already cancelled the future;
                    # setting an exception on it would raise.
                    if request.future.set_running_or_notify_cancel():
                        request.future.set_exception(ServerClosed("server closed"))
            self._has_work.notify_all()
            self._has_space.notify_all()
        for thread in self._workers:
            thread.join(timeout)

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _flush_threshold(self, shape: tuple[int, ...]) -> int:
        """The micro-batch flush size for one shape bucket.

        ``max_batch`` untuned; with ``tuned=True`` the cached winner's
        batch size for this shape (clamped to ``max_batch`` — the queue
        contract is that no batch ever exceeds it).  Resolved once per
        shape; called with the server lock held, so the one-time cache
        read happens at most once per shape per server.
        """
        if not self.tuned:
            return self.max_batch
        threshold = self._flush_thresholds.get(shape)
        if threshold is None:
            from ..tune import lookup

            entry = lookup(self._model, shape, self.max_batch)
            threshold = (
                min(entry.winner.batch_size, self.max_batch)
                if entry is not None
                else self.max_batch
            )
            self._flush_thresholds[shape] = threshold
        return threshold

    def _take_batch(self) -> list[_Request] | None:
        """Claim the next shape-bucketed micro-batch (None: shut down).

        Called without the lock held.  Takes the oldest request, gathers
        queued requests of the same shape, and — if still under-full —
        waits out the oldest request's ``max_wait_ms`` budget for
        same-shape stragglers.  Other shapes stay queued for idle
        workers; when no worker is idle, the under-full batch flushes
        immediately instead, so one straggling bucket never blocks
        other-shape traffic for the wait budget.
        """
        with self._lock:
            while not self._pending:
                if self._closing:
                    return None
                self._waiting_idle += 1
                try:
                    self._has_work.wait()
                finally:
                    self._waiting_idle -= 1
            batch = [self._pending.popleft()]
            shape = batch[0].shape
            flush_at = self._flush_threshold(shape)
            deadline = batch[0].enqueued_at + self.max_wait_s
            while True:
                index = 0
                while len(batch) < flush_at and index < len(self._pending):
                    if self._pending[index].shape == shape:
                        batch.append(self._pending[index])
                        del self._pending[index]
                    else:
                        index += 1
                self._has_space.notify_all()
                if len(batch) >= flush_at or self._closing:
                    break
                if self._pending and self._waiting_idle == 0:
                    # Whatever is still queued is another shape (all
                    # same-shape requests were just scooped) and every
                    # other worker is busy — holding this batch open for
                    # stragglers would leave those requests unservable
                    # for up to max_wait_ms.  Flush under-full instead.
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                # Wakes on new arrivals; re-scan for same-shape requests.
                self._has_work.wait(remaining)
            return batch

    def _worker_loop(self, predictor: Predictor) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            # Transition every claimed future to RUNNING; a client may
            # have cancelled while its request was queued, in which case
            # this returns False and the request is dropped here — a
            # later set_result on it would raise InvalidStateError and
            # kill the worker, hanging the rest of the batch.
            batch = [
                request
                for request in batch
                if request.future.set_running_or_notify_cancel()
            ]
            if not batch:
                continue
            started = time.perf_counter()
            error: BaseException | None = None
            try:
                outputs = predictor.predict(
                    np.stack([request.image for request in batch])
                )
            except BaseException as exc:  # propagate to the waiting clients
                error = exc
            finished = time.perf_counter()
            for position, request in enumerate(batch):
                if error is not None:
                    request.future.set_exception(error)
                else:
                    # Copy: outputs[position] is a view into the stacked
                    # batch result, and handing it out would let one
                    # retained response pin all its batchmates' memory.
                    request.future.set_result(outputs[position].copy())
            self._stats.record_batch(
                size=len(batch),
                seconds=finished - started,
                latencies=[finished - request.enqueued_at for request in batch],
                failed=error is not None,
            )
