"""The serve-bench harness behind ``python -m repro serve-bench``.

:func:`run_serve_bench` builds a small trained-shaped model and runs the
same seeded closed-loop workload three ways per backend —

* ``serial``   — one Predictor, requests one at a time (no concurrency);
* ``per-request`` — the server with ``max_batch=1`` (concurrent dispatch,
  no coalescing);
* ``micro-batched`` — the server with the requested ``max_batch`` and
  ``max_wait_ms``;

— asserts every way produced bit-identical outputs, and reports
throughput/latency rows.  :func:`run_sharded_bench` (``--procs N``) does
the same for the process-sharded server against a 1-proc baseline, then
replays an open-loop overload trace.  Determinism comes from the seeded
workload and the batching-is-bit-exact guarantee of
:mod:`repro.nn.inference`.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np

from ..models.ernet import dn_ernet_pu
from ..nn.inference import Predictor
from ..nn.module import Module
from .cluster import ShardedInferenceServer
from .loadgen import (
    LoadResult,
    make_poisson_trace,
    make_workload,
    run_closed_loop,
    run_open_loop,
    serial_reference,
)
from .server import InferenceServer

__all__ = [
    "ServeBenchConfig",
    "ServeBenchReport",
    "ShardedBenchConfig",
    "ShardedBenchReport",
    "make_bench_model",
    "run_serve_bench",
    "run_sharded_bench",
]

#: Admission queue depths: the thread server in both serve-bench modes,
#: and every closed-loop sharded run.
SERVE_QUEUE_DEPTH = 64
SHARDED_QUEUE_DEPTH = 32
#: The overload replay offers this multiple of the 1-proc closed-loop
#: throughput measured in the same run, so it overloads on any host.
OVERLOAD_FACTOR = 1.5
#: The overload replay's trace length, admission policy and
#: deliberately small admission queue.
OVERLOAD_REQUESTS = 48
OVERLOAD_POLICY = "degrade"
OVERLOAD_QUEUE_DEPTH = 4
#: Latency objective the sharded runs report attainment against.
SLO_MS = 250.0


@dataclasses.dataclass(frozen=True)
class ServeBenchConfig:
    """Knobs for one :func:`run_serve_bench` run.

    ``compiled`` serves every server mode through the trace-once
    compiled path (:meth:`repro.nn.inference.Predictor.compile`); the
    serial reference stays eager, so the run doubles as a
    compiled-vs-eager bit-identity check under concurrency.

    ``tuned`` makes the server modes consult the :mod:`repro.tune`
    cache; the serial reference stays untuned, so the run's bit-identity
    verdict then also certifies tuned == untuned on the served bytes.
    """

    clients: int = 8
    requests_per_client: int = 16
    image_size: int = 24
    workers: int = 2
    max_batch: int = 8
    max_wait_ms: float = 10.0
    backends: Sequence[str] = ("numpy",)
    seed: int = 0
    compiled: bool = False
    tuned: bool = False


@dataclasses.dataclass(frozen=True)
class ServeBenchReport:
    """Per-mode results of one serve-bench run plus the bit-identity verdict."""
    config: ServeBenchConfig
    rows: list[dict]
    bit_identical: bool

    def speedup(self, backend: str) -> float:
        """Micro-batched over per-request throughput for one backend."""
        by_mode = {
            row["mode"]: row for row in self.rows if row["backend"] == backend
        }
        return by_mode["micro-batched"]["throughput_rps"] / by_mode["per-request"][
            "throughput_rps"
        ]

    def format(self) -> str:
        cfg = self.config
        lines = [
            f"serve-bench: {cfg.clients} clients x {cfg.requests_per_client} requests, "
            f"{cfg.image_size}x{cfg.image_size} images, {cfg.workers} workers, "
            f"max_batch={cfg.max_batch}, max_wait={cfg.max_wait_ms}ms"
            + (", compiled" if cfg.compiled else "")
            + (", tuned" if cfg.tuned else ""),
            f"  {'backend':<12} {'mode':<14} {'req/s':>8} {'lat ms':>8} "
            f"{'p95 ms':>8} {'mean batch':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row['backend']:<12} {row['mode']:<14} "
                f"{row['throughput_rps']:8.1f} {row['latency_ms_mean']:8.2f} "
                f"{row['latency_ms_p95']:8.2f} {row['mean_batch_size']:10.2f}"
            )
        for backend in cfg.backends:
            lines.append(
                f"  {backend}: micro-batched vs per-request speedup "
                f"{self.speedup(backend):.2f}x"
            )
        lines.append(
            "  outputs bit-identical across serial/per-request/micro-batched: "
            f"{self.bit_identical}"
        )
        return "\n".join(lines)


def make_bench_model(seed: int = 0) -> Module:
    """The small trained-shaped denoiser every serve-bench run uses."""
    model = dn_ernet_pu(blocks=1, ratio=1, seed=seed)
    rng = np.random.default_rng(seed)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    model.eval()
    return model


def _row(backend: str, mode: str, result: LoadResult, mean_batch_size: float = 1.0) -> dict:
    return {
        "backend": backend,
        "mode": mode,
        "throughput_rps": result.throughput_rps,
        "latency_ms_mean": result.latency_ms_mean,
        "latency_ms_p95": result.latency_ms_p95,
        "mean_batch_size": mean_batch_size,
    }


# ----------------------------------------------------------------------
# process-sharded serving bench
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ShardedBenchConfig:
    """Knobs for one :func:`run_sharded_bench` run.

    The closed-loop phase compares proc counts in ``procs`` (each run
    serves the same seeded mixed-shape workload, checked bit-identical
    against a serial Predictor); the open-loop phase replays a Poisson
    trace at :data:`OVERLOAD_FACTOR` times the 1-proc closed-loop
    throughput against a deliberately small cluster to exercise
    :data:`OVERLOAD_POLICY` (rejections/degrades, tail latency).
    """

    clients: int = 8
    requests_per_client: int = 6
    image_size: int = 24
    procs: Sequence[int] = (1, 2)
    max_batch: int = 8
    backend: str | None = None
    seed: int = 0
    compiled: bool = False
    tuned: bool = False


@dataclasses.dataclass(frozen=True)
class ShardedBenchReport:
    """Per-proc-count closed-loop rows, the open-loop overload row, and
    the bit-identity verdict of one sharded bench run."""

    config: ShardedBenchConfig
    rows: list[dict]
    overload: dict
    bit_identical: bool

    def speedup(self, procs: int) -> float:
        """Closed-loop throughput at ``procs`` workers over 1 worker."""
        by_procs = {row["procs"]: row for row in self.rows}
        return by_procs[procs]["throughput_rps"] / by_procs[1]["throughput_rps"]

    def format(self) -> str:
        """Human-readable report (same shape as :class:`ServeBenchReport`)."""
        cfg = self.config
        lines = [
            f"sharded-bench: {cfg.clients} clients x {cfg.requests_per_client} requests, "
            f"{cfg.image_size}px mixed shapes, queue_depth={SHARDED_QUEUE_DEPTH}"
            + (", compiled" if cfg.compiled else "")
            + (", tuned" if cfg.tuned else ""),
            f"  {'procs':>5} {'req/s':>8} {'lat ms':>8} {'p50 ms':>8} "
            f"{'p95 ms':>8} {'p99 ms':>8} {'SLO att':>8} {'batch':>6}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row['procs']:>5} {row['throughput_rps']:8.1f} "
                f"{row['latency_ms_mean']:8.2f} {row['latency_ms_p50']:8.2f} "
                f"{row['latency_ms_p95']:8.2f} {row['latency_ms_p99']:8.2f} "
                f"{row['slo_attainment']:8.3f} {row['mean_batch_size']:6.2f}"
            )
        for procs in self.config.procs:
            if procs != 1:
                lines.append(f"  {procs} procs vs 1: {self.speedup(procs):.2f}x throughput")
        over = self.overload
        lines.append(
            f"  overload ({OVERLOAD_POLICY} @ {over['offered_rps']:.0f} req/s): "
            f"{over['completed']} completed, {over['rejected']} rejected, "
            f"{over['degraded']} degraded; p99 {over['latency_ms_p99']:.1f} ms, "
            f"SLO {SLO_MS:.0f}ms attainment {over['slo_attainment']:.3f}"
        )
        lines.append(
            f"  outputs bit-identical to serial Predictor: {self.bit_identical}"
        )
        return "\n".join(lines)


def run_sharded_bench(config: ShardedBenchConfig) -> ShardedBenchReport:
    """Run the process-sharded closed-loop comparison plus an overload replay.

    The serial reference and every sharded run share one seeded
    mixed-shape workload (two request sizes interleaved across clients),
    so the bit-identity verdict covers shape-affine routing and
    cross-process transport, not just a single shape.
    """
    if 1 not in config.procs:
        raise ValueError("procs must include 1 (the sharding speedup baseline)")
    size = config.image_size
    shapes = [(1, size, size), (1, size + 8, size + 8)]
    workload = make_workload(
        config.clients, config.requests_per_client, shapes, seed=config.seed
    )
    factory = functools.partial(make_bench_model, config.seed)
    model = factory()
    serial = Predictor(
        model,
        batch_size=config.max_batch,
        tile=max(48, size),
        backend=config.backend,
        tuned=False,  # untuned reference: bit-identity covers tuned runs
    )
    reference = serial_reference(serial, workload)
    rows: list[dict] = []
    bit_identical = True
    for procs in config.procs:
        with ShardedInferenceServer(
            factory,
            procs=procs,
            queue_depth=SHARDED_QUEUE_DEPTH,
            batch_size=config.max_batch,
            tile=max(48, size),
            backend=config.backend,
            compiled=config.compiled,
            tuned=config.tuned,
            slo_ms=SLO_MS,
        ) as server:
            result = run_closed_loop(server, workload)
            stats = server.stats()
        bit_identical = bit_identical and result.bit_identical_to(reference)
        rows.append(
            {
                "procs": procs,
                "throughput_rps": result.throughput_rps,
                "latency_ms_mean": result.latency_ms_mean,
                "latency_ms_p50": result.latency_ms_p50,
                "latency_ms_p95": result.latency_ms_p95,
                "latency_ms_p99": result.latency_ms_p99,
                "slo_attainment": result.slo_attainment,
                "mean_batch_size": stats.mean_batch_size,
            }
        )
    rate = OVERLOAD_FACTOR * next(row for row in rows if row["procs"] == 1)["throughput_rps"]
    trace = make_poisson_trace(
        rate,
        OVERLOAD_REQUESTS,
        shapes,
        seed=config.seed + 1,
    )
    with ShardedInferenceServer(
        factory,
        procs=min(config.procs),
        queue_depth=OVERLOAD_QUEUE_DEPTH,
        overload=OVERLOAD_POLICY,
        batch_size=config.max_batch,
        tile=max(48, size),
        backend=config.backend,
        compiled=config.compiled,
        tuned=config.tuned,
        slo_ms=SLO_MS,
    ) as server:
        open_result = run_open_loop(server, trace, slo_ms=SLO_MS)
        open_stats = server.stats()
    overload = {
        "offered_rps": open_result.offered_rps,
        "completed": open_result.completed,
        "rejected": open_result.rejected,
        "degraded": open_stats.degraded,
        "latency_ms_p99": open_result.latency_ms_p99,
        "slo_attainment": open_result.slo_attainment,
    }
    return ShardedBenchReport(
        config=config, rows=rows, overload=overload, bit_identical=bit_identical
    )


def run_serve_bench(config: ServeBenchConfig) -> ServeBenchReport:
    """Run the closed-loop serial / per-request / micro-batched comparison."""
    if config.clients < 1 or config.requests_per_client < 1:
        raise ValueError(
            "serve-bench needs at least 1 client and 1 request per client, got "
            f"clients={config.clients}, requests_per_client={config.requests_per_client}"
        )
    if not config.backends:
        raise ValueError("serve-bench needs at least one backend")
    model = make_bench_model(config.seed)
    size = config.image_size
    workload = make_workload(
        config.clients, config.requests_per_client, (1, size, size), seed=config.seed
    )
    rows: list[dict] = []
    bit_identical = True
    for backend in config.backends:
        predictor = Predictor(
            model,
            batch_size=config.max_batch,
            tile=max(48, size),
            backend=backend,
            tuned=False,  # untuned reference: bit-identity covers tuned runs
        )
        predictor.predict(workload.images[0][0][None])  # warm weight caches
        reference = serial_reference(predictor, workload)
        rows.append(_row(backend, "serial", reference))
        for mode, max_batch, max_wait_ms in [
            ("per-request", 1, 0.0),
            ("micro-batched", config.max_batch, config.max_wait_ms),
        ]:
            with InferenceServer(
                model,
                workers=config.workers,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                queue_depth=SERVE_QUEUE_DEPTH,
                backend=backend,
                tile=max(48, size),
                compiled=config.compiled,
                tuned=config.tuned,
            ) as server:
                result = run_closed_loop(server, workload)
                stats = server.stats()
            bit_identical = bit_identical and result.bit_identical_to(reference)
            rows.append(_row(backend, mode, result, stats.mean_batch_size))
    return ServeBenchReport(config=config, rows=rows, bit_identical=bit_identical)
