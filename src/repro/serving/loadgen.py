"""Deterministic closed- and open-loop load generation against a server.

A *closed loop* keeps a fixed number of concurrent clients, each with at
most one request in flight: a client submits, waits for its result, then
submits its next image.  Offered load therefore adapts to service rate —
the standard way to measure "throughput at N concurrent users" without
open-loop queue blowup.

An *open loop* instead replays a pre-drawn Poisson arrival trace
(:func:`make_poisson_trace` + :func:`run_open_loop`): requests arrive at
their scheduled times whether or not earlier ones finished, so offered
load does **not** adapt — this is the regime that exposes overload
behavior (rejections, degraded service, tail latency), and latency is
measured from the scheduled arrival, so queueing delay counts against
the SLO.

Everything is seeded: a workload or trace is a pure function of its
``(seed, ...)`` arguments, so two runs — or a served run and a serial
reference — see byte-identical inputs, which is what lets the benches
assert byte-identical outputs.  Both loops work against anything with
the ``submit``/``predict`` future protocol — the in-process
:class:`~repro.serving.server.InferenceServer` and the process-sharded
:class:`~repro.serving.cluster.ShardedInferenceServer` alike.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from ..nn.inference import Predictor
from .cluster import ShardedInferenceServer
from .server import InferenceServer, ServerOverloaded

__all__ = [
    "Workload",
    "LoadResult",
    "ArrivalTrace",
    "OpenLoopResult",
    "make_workload",
    "make_poisson_trace",
    "run_closed_loop",
    "run_open_loop",
    "serial_reference",
]


@dataclasses.dataclass(frozen=True)
class Workload:
    """Per-client image sequences; ``images[c][k]`` is client c's k-th request."""

    images: tuple[tuple[np.ndarray, ...], ...]

    @property
    def clients(self) -> int:
        return len(self.images)

    @property
    def total_requests(self) -> int:
        return sum(len(sequence) for sequence in self.images)


def make_workload(
    clients: int,
    requests_per_client: int,
    shapes: tuple[int, int, int] | list[tuple[int, int, int]],
    seed: int = 0,
) -> Workload:
    """Seeded workload; with several shapes, clients cycle through them
    (client c uses shape ``shapes[c % len(shapes)]``) so shape buckets
    interleave in the queue."""
    if isinstance(shapes, tuple) and len(shapes) == 3 and isinstance(shapes[0], int):
        shapes = [shapes]
    rng = np.random.default_rng(seed)
    images = tuple(
        tuple(
            rng.standard_normal(shapes[client % len(shapes)])
            for _ in range(requests_per_client)
        )
        for client in range(clients)
    )
    return Workload(images=images)


@dataclasses.dataclass(frozen=True)
class LoadResult:
    """Outcome of one closed-loop run.

    Carries the same latency schema (p50/p95/p99 + SLO attainment) as
    :class:`~repro.serving.server.ServerStats`, the one stats snapshot
    of both :class:`~repro.serving.server.InferenceServer` and
    :class:`~repro.serving.cluster.ShardedInferenceServer`, so thread-
    and process-served runs report comparably.
    """

    outputs: tuple[tuple[np.ndarray, ...], ...]  # outputs[c][k]
    duration_s: float
    requests: int
    throughput_rps: float
    latency_ms_mean: float
    latency_ms_p95: float
    latency_ms_p50: float = float("nan")
    latency_ms_p99: float = float("nan")
    slo_ms: float = 100.0
    slo_attainment: float = float("nan")

    def bit_identical_to(self, reference: "LoadResult | tuple") -> bool:
        """True when every output array matches ``reference`` bit for bit."""
        other = reference.outputs if isinstance(reference, LoadResult) else reference
        if len(self.outputs) != len(other):
            return False
        return all(
            len(my_seq) == len(their_seq)
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(my_seq, their_seq, strict=True)
            )
            for my_seq, their_seq in zip(self.outputs, other, strict=True)
        )


def _collect(
    latencies: list[float],
    duration: float,
    outputs,
    requests: int,
    slo_ms: float = 100.0,
) -> LoadResult:
    lat_ms = np.sort(np.asarray(latencies)) * 1e3
    have = len(lat_ms) > 0
    return LoadResult(
        outputs=outputs,
        duration_s=duration,
        requests=requests,
        throughput_rps=requests / duration if duration > 0 else float("nan"),
        latency_ms_mean=float(lat_ms.mean()) if have else float("nan"),
        latency_ms_p95=float(np.percentile(lat_ms, 95)) if have else float("nan"),
        latency_ms_p50=float(np.percentile(lat_ms, 50)) if have else float("nan"),
        latency_ms_p99=float(np.percentile(lat_ms, 99)) if have else float("nan"),
        slo_ms=slo_ms,
        slo_attainment=float((lat_ms <= slo_ms).mean()) if have else float("nan"),
    )


def run_closed_loop(
    server: InferenceServer | ShardedInferenceServer, workload: Workload
) -> LoadResult:
    """Drive ``server`` with one thread per client, closed-loop."""
    clients = workload.clients
    outputs: list[list[np.ndarray | None]] = [
        [None] * len(sequence) for sequence in workload.images
    ]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException | None] = [None] * clients
    barrier = threading.Barrier(clients + 1)

    def client_loop(client: int) -> None:
        try:
            barrier.wait()
            for k, image in enumerate(workload.images[client]):
                started = time.perf_counter()
                outputs[client][k] = server.predict(image)
                latencies[client].append(time.perf_counter() - started)
        except BaseException as exc:  # surfaced to the caller below
            errors[client] = exc

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"loadgen-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started
    for error in errors:
        if error is not None:
            raise error
    return _collect(
        [latency for per_client in latencies for latency in per_client],
        duration,
        tuple(tuple(per_client) for per_client in outputs),  # type: ignore[arg-type]
        workload.total_requests,
    )


def serial_reference(predictor: Predictor, workload: Workload) -> LoadResult:
    """The bit-identity baseline: every request alone, one after another.

    Same per-request work a server performs, minus concurrency and
    micro-batching — both the correctness reference (served outputs must
    match these arrays exactly) and the throughput baseline the serving
    speedup is measured against.
    """
    latencies: list[float] = []
    outputs = []
    started = time.perf_counter()
    for sequence in workload.images:
        per_client = []
        for image in sequence:
            t0 = time.perf_counter()
            per_client.append(predictor.predict(image[None])[0])
            latencies.append(time.perf_counter() - t0)
        outputs.append(tuple(per_client))
    duration = time.perf_counter() - started
    return _collect(latencies, duration, tuple(outputs), workload.total_requests)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ArrivalTrace:
    """A pre-drawn open-loop request schedule.

    ``arrivals_s[i]`` is when ``images[i]`` is offered, in seconds from
    trace start; the trace is fully materialized before any request is
    sent, so replaying it is deterministic and two servers can be
    compared on byte-identical offered load.
    """

    images: tuple[np.ndarray, ...]
    arrivals_s: tuple[float, ...]
    rate_rps: float

    @property
    def requests(self) -> int:
        """Offered request count."""
        return len(self.images)


def make_poisson_trace(
    rate_rps: float,
    requests: int,
    shapes: tuple[int, int, int] | list[tuple[int, int, int]],
    seed: int = 0,
) -> ArrivalTrace:
    """Seeded Poisson arrivals: exponential inter-arrival gaps at
    ``rate_rps``, request ``i`` shaped ``shapes[i % len(shapes)]`` so
    shape buckets interleave in arrival order."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if requests <= 0:
        raise ValueError("requests must be positive")
    if isinstance(shapes, tuple) and len(shapes) == 3 and isinstance(shapes[0], int):
        shapes = [shapes]
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=requests)
    arrivals = np.cumsum(gaps)
    images = tuple(
        rng.standard_normal(shapes[i % len(shapes)]) for i in range(requests)
    )
    return ArrivalTrace(
        images=images,
        arrivals_s=tuple(float(t) for t in arrivals),
        rate_rps=rate_rps,
    )


@dataclasses.dataclass(frozen=True)
class OpenLoopResult:
    """Outcome of replaying one :class:`ArrivalTrace` against a server.

    ``outputs[i]`` is request i's result array, or ``None`` when it was
    rejected at admission or failed in service.  Latency is measured
    from the request's *scheduled arrival* (not the submit call), so a
    dispatcher running behind schedule shows up as latency, exactly as
    a queue would.  ``slo_attainment`` is the share of *offered*
    requests completed within ``slo_ms``: rejected and failed requests
    count as misses, so shedding load never reads as meeting the SLO.
    """

    outputs: tuple[np.ndarray | None, ...]
    offered: int
    completed: int
    rejected: int
    failed: int
    duration_s: float
    offered_rps: float
    throughput_rps: float
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    slo_ms: float
    slo_attainment: float

    def format(self) -> str:
        """One-line human rendering of the replay."""
        return (
            f"open-loop {self.offered} offered @ {self.offered_rps:.1f} req/s: "
            f"{self.completed} completed, {self.rejected} rejected, "
            f"{self.failed} failed; {self.throughput_rps:.1f} req/s served; "
            f"latency ms p50 {self.latency_ms_p50:.2f} "
            f"p95 {self.latency_ms_p95:.2f} p99 {self.latency_ms_p99:.2f}; "
            f"SLO {self.slo_ms:.0f}ms attainment {self.slo_attainment:.3f}"
        )


def run_open_loop(server, trace: ArrivalTrace, slo_ms: float = 100.0) -> OpenLoopResult:
    """Replay ``trace`` against ``server`` (thread- or process-sharded).

    One dispatcher thread submits each request at its scheduled arrival
    time with a non-blocking admission (``timeout=0``): a full server
    raises :class:`~repro.serving.server.ServerOverloaded` and the
    request counts as rejected — open loop never retries, the next
    arrival is already due.  Completion times are captured by future
    callbacks, so slow requests never stall the arrival process.
    """
    offered = trace.requests
    outputs: list[np.ndarray | None] = [None] * offered
    finished_at: list[float | None] = [None] * offered
    failures = [0]
    rejected = [0]
    done = threading.Event()
    remaining = [0]
    lock = threading.Lock()

    start = time.perf_counter()

    def _on_done(index: int, future) -> None:
        error = future.exception()
        if error is None:
            outputs[index] = future.result()
            finished_at[index] = time.perf_counter()
        with lock:
            if error is not None:
                failures[0] += 1
            remaining[0] -= 1
        done.set()  # waiter re-checks `remaining` under the lock

    for index, (image, arrival) in enumerate(
        zip(trace.images, trace.arrivals_s, strict=True)
    ):
        delay = (start + arrival) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            future = server.submit(image, timeout=0)
        except ServerOverloaded:
            rejected[0] += 1
            continue
        with lock:
            remaining[0] += 1
        future.add_done_callback(
            lambda fut, index=index: _on_done(index, fut)
        )

    while True:
        with lock:
            if remaining[0] == 0:
                break
        done.wait(0.05)
        done.clear()
    duration = time.perf_counter() - start

    latencies = [
        finish - (start + trace.arrivals_s[index])
        for index, finish in enumerate(finished_at)
        if finish is not None
    ]
    lat_ms = np.sort(np.asarray(latencies)) * 1e3
    have = len(lat_ms) > 0
    completed = len(latencies)
    return OpenLoopResult(
        outputs=tuple(outputs),
        offered=offered,
        completed=completed,
        rejected=rejected[0],
        failed=failures[0],
        duration_s=duration,
        offered_rps=trace.rate_rps,
        throughput_rps=completed / duration if duration > 0 else float("nan"),
        latency_ms_mean=float(lat_ms.mean()) if have else float("nan"),
        latency_ms_p50=float(np.percentile(lat_ms, 50)) if have else float("nan"),
        latency_ms_p95=float(np.percentile(lat_ms, 95)) if have else float("nan"),
        latency_ms_p99=float(np.percentile(lat_ms, 99)) if have else float("nan"),
        slo_ms=slo_ms,
        # Over every offered request: a refused or failed one missed it.
        slo_attainment=float((lat_ms <= slo_ms).sum() / offered) if offered else float("nan"),
    )
