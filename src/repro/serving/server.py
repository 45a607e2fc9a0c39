"""The serving core, and the in-process server with dynamic micro-batching.

:class:`InferenceServer` sits between many client threads and a pool of
:class:`~repro.nn.inference.Predictor` workers.  Clients submit single
images and get a future back; admission bounds the requests admitted
and not yet resolved by ``queue_depth`` (block, or reject when
configured); workers coalesce queued requests into dense micro-batches
— flushing when ``max_batch`` requests of one shape are ready or when
the oldest has waited ``max_wait_ms`` — and run them through a
per-worker Predictor sharing one model.

Heterogeneous request sizes are handled by *shape bucketing*: a worker
batches only requests whose (C, H, W) match, so every micro-batch stays
one dense array; mixed-shape traffic simply forms per-shape batches.

Because batching work along the batch axis runs the very same per-slice
GEMMs (see :mod:`repro.nn.inference`), a served result is bit-identical
to calling the Predictor serially on that request alone — micro-batching
changes throughput, never bits.  The tests pin this under 100+
concurrent clients.

Everything but *where a batch runs* lives in the private :class:`_Server`
core, shared with :class:`~repro.serving.cluster.ShardedInferenceServer`.
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

#: What admission does when ``queue_depth`` requests are unresolved (see
#: :class:`~repro.serving.cluster.ShardedInferenceServer`).
OVERLOAD_POLICIES = ("block", "reject", "degrade")


class ServerClosed(RuntimeError):
    """Raised by submissions to (and pending work cancelled by) a closed server."""


class ServerOverloaded(RuntimeError):
    """Raised when the server is full and admission rejects."""


class _Request:
    __slots__ = ("shape", "image", "slot", "ranks", "degraded", "future", "enqueued_at")

    def __init__(self, shape: tuple[int, ...], image: np.ndarray | None = None) -> None:
        self.shape = shape
        self.image = image
        self.slot = -1
        self.ranks: list[int] | None = None  # worker ranks allowed to claim it
        self.degraded = False
        self.future: Future = Future()


def _as_image(image) -> np.ndarray:
    image = np.asarray(getattr(image, "data", image), dtype=np.float64)
    if image.ndim != 3:
        raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
    return image


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """Aggregate snapshot of a server's request/batch accounting.

    One schema for thread- and process-based serving.  The latency
    fields and ``slo_attainment`` cover successful requests only; a
    failed request counts in ``requests`` and ``failed`` and never in
    the latency window.  ``wall_s`` runs from the first submit that
    reached admission (0.0, with ``throughput_rps`` NaN, before one).
    ``degraded``, ``retried`` and ``respawns`` stay 0 on the thread
    server.
    """

    requests: int
    batches: int
    rejected: int
    degraded: int
    failed: int
    retried: int
    respawns: int
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
        """One-line human rendering of the snapshot."""
        return (
            f"{self.requests} requests in {self.batches} batches "
            f"(mean {self.mean_batch_size:.2f}, max {self.max_batch_size}); "
            f"{self.rejected} rejected, {self.degraded} degraded, "
            f"{self.retried} retried, {self.respawns} respawns; "
            f"{self.throughput_rps:.1f} req/s; latency ms "
            f"mean {self.latency_ms_mean:.2f} p50 {self.latency_ms_p50:.2f} "
            f"p95 {self.latency_ms_p95:.2f} p99 {self.latency_ms_p99:.2f} "
            f"max {self.latency_ms_max:.2f}; "
            f"SLO {self.slo_ms:.0f}ms attainment {self.slo_attainment:.3f}"
        )


class _Stats:
    """Thread-safe request/batch counters behind :meth:`_Server.stats`.

    Batch accounting is kept as running aggregates (count/sum/max), so a
    long-lived server's memory stays flat; only the latency buffer —
    needed for percentiles — holds samples: a sliding window of the most
    recent MAX_SAMPLES, so percentiles keep tracking current behavior
    instead of freezing on the first samples ever taken.
    """

    MAX_SAMPLES = 100_000

    def __init__(self, slo_ms: float) -> None:
        self._lock = threading.Lock()
        self._started: float | None = None
        self.slo_ms = slo_ms
        self._latencies: deque[float] = deque(maxlen=self.MAX_SAMPLES)
        self._batch_size_max = 0
        self._batch_seconds_sum = 0.0
        self.counts = dict.fromkeys(
            ("requests", "batches", "rejected", "degraded", "failed", "retried", "respawns"), 0
        )

    def start(self) -> None:
        """Start the wall clock (first call only): idle time before the
        first request, worker spawn included, is not serving time."""
        with self._lock:
            if self._started is None:
                self._started = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def record_batch(
        self, size: int, seconds: float, latencies: list[float], failed: bool
    ) -> None:
        with self._lock:
            self.counts["requests"] += size
            self.counts["batches"] += 1
            self._batch_size_max = max(self._batch_size_max, size)
            self._batch_seconds_sum += seconds
            if failed:
                self.counts["failed"] += size
            else:
                self._latencies.extend(latencies)  # maxlen evicts the oldest

    def snapshot(self) -> ServerStats:
        with self._lock:
            lat_ms = np.sort(np.asarray(self._latencies)) * 1e3
            batch_size_max = self._batch_size_max
            batch_seconds_sum = self._batch_seconds_sum
            counts = dict(self.counts)
            wall = 0.0 if self._started is None else time.perf_counter() - self._started
        have_lat = len(lat_ms) > 0
        requests, batches = counts["requests"], counts["batches"]
        return ServerStats(
            **counts,
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


class _Server:
    """Admission, shape-bucketed batching, futures, shutdown and stats.

    One worker thread per rank claims micro-batches from the shared
    pending deque and hands each to :meth:`_run_batch`.  Subclasses set
    up their executors, then call ``super().__init__``, which starts
    the threads; each keeps its own ``submit`` around
    :meth:`_enqueue_locked`.
    """

    def __init__(
        self,
        *,
        ranks: int,
        batch_limit: int,
        max_wait_s: float,
        queue_depth: int,
        overload: str,
        degrade_at: int,
        slo_ms: float,
    ) -> None:
        self.queue_depth = queue_depth
        self.overload = overload
        self.degrade_at = degrade_at
        self.max_wait_s = max_wait_s
        self._batch_limit = batch_limit
        self._stats = _Stats(slo_ms=slo_ms)
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._has_space = threading.Condition(self._lock)
        self._pending: deque[_Request] = deque()
        self._unresolved = 0  # admitted and not yet resolved
        self._closing = False
        self._aborting = False
        self._waiting_idle = 0  # workers blocked waiting for any request
        self._threads = [
            threading.Thread(
                target=self._serve, args=(rank,), name=f"{type(self).__name__}-{rank}", daemon=True
            )
            for rank in range(ranks)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def _enqueue_locked(self, request: _Request, timeout: float | None) -> None:
        """Admit ``request`` under the overload policy, then queue it.

        ``block`` waits for an unresolved request to resolve, raising
        :class:`ServerOverloaded` only once ``timeout`` elapses;
        ``reject`` raises at once; ``degrade`` also rejects when full,
        and marks the request degraded from ``degrade_at`` unresolved.
        Workers see the request once the caller releases the lock.
        """
        if self._closing:
            raise ServerClosed("server is shutting down")
        self._stats.start()
        deadline = None if timeout is None else time.perf_counter() + timeout
        while self._unresolved >= self.queue_depth:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if self.overload == "block" and (remaining is None or remaining > 0):
                self._has_space.wait(remaining)
                if self._closing:
                    raise ServerClosed("server is shutting down")
                continue
            self._stats.count("rejected")
            waited = f" within {timeout:.3f}s" if self.overload == "block" else ""
            raise ServerOverloaded(
                f"no admission{waited} ({self.queue_depth} requests unresolved)"
            )
        request.degraded = self.overload == "degrade" and self._unresolved >= self.degrade_at
        if request.degraded:
            self._stats.count("degraded")
        self._unresolved += 1
        request.enqueued_at = time.perf_counter()
        self._pending.append(request)
        # notify_all, not notify: a worker holding an under-full batch
        # open for stragglers also waits on this condition, and a single
        # notify could land on it for a request of another shape —
        # leaving an idle worker asleep until some deadline.
        self._has_work.notify_all()

    def predict(self, image: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Blocking convenience: submit one image and wait for its output.

        ``timeout`` bounds the whole call — admission *and* serving —
        not just the result wait.
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
            # workers still compute).  A no-op once claimed.
            future.cancel()
            raise

    def pending(self) -> int:
        """Requests queued, not yet claimed by a worker."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> ServerStats:
        """Aggregate latency/throughput/overload snapshot."""
        return self._stats.snapshot()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and join the workers.

        Args:
            drain: Serve the queued requests first (default); when False,
                fail them with :class:`ServerClosed` instead.
            timeout: Per-worker-thread join timeout.
        """
        aborted: list[_Request] = []
        with self._lock:
            if self._closing:
                return
            self._closing = True
            if not drain:
                self._aborting = True
                aborted = list(self._pending)
                self._pending.clear()
                for request in aborted:
                    self._retire_locked(request)
            self._has_work.notify_all()
            self._has_space.notify_all()
        for request in aborted:
            # False when the client already cancelled the future;
            # setting an exception on it would raise.
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(ServerClosed("server closed"))
        for thread in self._threads:
            thread.join(timeout)
        self._shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _flush_threshold(self, shape: tuple[int, ...]) -> int:
        """The micro-batch flush size for one shape bucket (lock held)."""
        return self._batch_limit

    def _take_batch(self, rank: int) -> list[_Request] | None:
        """Claim the next shape-bucketed micro-batch (None: shut down).

        Called without the lock held.  Takes the oldest request this
        rank may serve, gathers queued requests of the same (shape,
        degraded) bucket, and — if still under-full — waits out the
        oldest request's ``max_wait_s`` budget for stragglers.  Other
        buckets stay queued for idle workers; when no worker is idle,
        the under-full batch flushes immediately instead, so one
        straggling bucket never blocks other traffic for the wait
        budget.
        """
        with self._lock:
            while True:
                first = next(
                    (r for r in self._pending if r.ranks is None or rank in r.ranks), None
                )
                if first is not None:
                    break
                if self._closing:
                    return None
                self._waiting_idle += 1
                try:
                    self._has_work.wait()
                finally:
                    self._waiting_idle -= 1
            self._pending.remove(first)
            batch = [first]
            key = (first.shape, first.degraded)
            flush_at = self._flush_threshold(first.shape)
            deadline = first.enqueued_at + self.max_wait_s
            while True:
                index = 0
                while len(batch) < flush_at and index < len(self._pending):
                    request = self._pending[index]
                    if (request.shape, request.degraded) == key:
                        batch.append(request)
                        del self._pending[index]
                    else:
                        index += 1
                if len(batch) >= flush_at or self._closing:
                    break
                if self._pending and self._waiting_idle == 0:
                    # Whatever is still queued is another bucket (all of
                    # this one was just scooped) and every other worker
                    # is busy — holding this batch open for stragglers
                    # would leave those requests unservable for up to
                    # max_wait_s.  Flush under-full instead.
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                # Wakes on new arrivals; re-scan for same-bucket requests.
                self._has_work.wait(remaining)
            return batch

    def _serve(self, rank: int) -> None:
        while True:
            batch = self._take_batch(rank)
            if batch is None:
                return
            # Transition every claimed future to RUNNING; a client may
            # have cancelled while its request was queued, in which case
            # this returns False and the request is dropped here — a
            # later set_result on it would raise InvalidStateError and
            # kill the worker, hanging the rest of the batch.
            live = [r for r in batch if r.future.set_running_or_notify_cancel()]
            outputs: list[np.ndarray] = []
            error: BaseException | None = None
            started = time.perf_counter()
            if live:
                try:
                    outputs = self._run_batch(rank, live)
                except BaseException as exc:  # propagate to the waiting clients
                    error = exc
                finished = time.perf_counter()
                self._stats.record_batch(
                    size=len(live),
                    seconds=finished - started,
                    latencies=[finished - request.enqueued_at for request in live],
                    failed=error is not None,
                )
            with self._lock:
                for request in batch:
                    self._retire_locked(request)
                self._has_space.notify_all()
            for position, request in enumerate(live):
                if error is not None:
                    request.future.set_exception(error)
                else:
                    request.future.set_result(outputs[position])

    def _retire_locked(self, request: _Request) -> None:
        """Free ``request``'s admission share; it resolves right after."""
        self._unresolved -= 1

    def _run_batch(self, rank: int, batch: list[_Request]) -> list[np.ndarray]:
        """Compute one output per request of a same-bucket batch."""
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Release executor resources once the worker threads are joined."""


class InferenceServer(_Server):
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
        queue_depth: Bound on admitted, unresolved requests — the
            backpressure knob.
        reject_when_full: When True, a submit against a full server
            raises :class:`ServerOverloaded` instead of blocking.
        backend: Kernel backend (instance or spec string) pinned to every
            worker's forwards, via the Predictor.
        plan / tile: Forwarded to the prototype
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
        self.reject_when_full = reject_when_full
        self._predictors = [prototype.clone() if i else prototype for i in range(workers)]
        super().__init__(
            ranks=workers,
            batch_limit=max_batch,
            max_wait_s=max_wait_ms / 1e3,
            queue_depth=queue_depth,
            overload="reject" if reject_when_full else "block",
            degrade_at=queue_depth,
            slo_ms=slo_ms,
        )

    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "InferenceServer":
        """Serve a trained checkpoint directly (see
        :meth:`Predictor.from_checkpoint` for the spec requirements);
        ``kwargs`` are the regular constructor options."""
        from ..train.checkpoint import Checkpoint

        return cls(Checkpoint.load(path).build_model(), **kwargs)

    def submit(self, image: np.ndarray, timeout: float | None = None) -> Future:
        """Enqueue one (C, H, W) image; returns a future for its output.

        Blocks while ``queue_depth`` requests are unresolved
        (backpressure) unless the server was built with
        ``reject_when_full`` — then it raises :class:`ServerOverloaded`
        immediately; a blocking submit raises it only if ``timeout``
        elapses without space.
        """
        image = _as_image(image)
        request = _Request(image.shape, image)
        with self._lock:
            self._enqueue_locked(request, timeout)
        return request.future

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

    def _run_batch(self, rank: int, batch: list[_Request]) -> list[np.ndarray]:
        outputs = self._predictors[rank].predict(np.stack([r.image for r in batch]))
        # Copy: each row is a view into the stacked batch result, and
        # handing it out would let one retained response pin all its
        # batchmates' memory.
        return [row.copy() for row in outputs]
