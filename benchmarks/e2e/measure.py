"""Metric names, percentiles and the serving rung rule of the e2e benchmark.

Every workload reports the same end-to-end metric names (the benchmark
contract needs one metric set per run), so each workload maps its two
user paths onto ``base`` and ``alt``:

============  =====================  ================================
workload      base                   alt
============  =====================  ================================
dn-small      ``Predictor``          ``CompiledPredictor``
frconv-64     ``Predictor``          ``CompiledPredictor``
serve-open    ``InferenceServer``    ``ShardedInferenceServer(procs=2)``
train-dn      ``TrainEngine``        ``ParallelTrainEngine(jobs=2)``
============  =====================  ================================

An *operation* is one predict call, one served request or one
optimizer step.  ``p50_ms`` and ``rate`` come from each path's
least-disturbed round (see ``workloads.PathRun``); the pooled p99 of
each path is too noisy on a shared host to gate, so it is a per-layer
metric, taken from the untraced half of a ``--trace 1`` run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: (name, unit, better) of every end-to-end metric, in report order.
E2E_METRICS: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("base.p50_ms", "ms", "lower"),
    ("base.rate", "1/s", "higher"),
    ("alt.p50_ms", "ms", "lower"),
    ("alt.rate", "1/s", "higher"),
)
#: (name, unit, better) of each path's pooled tail latency.
TAIL_METRICS: tuple[tuple[str, str, str], ...] = (
    ("base.p99_ms", "ms", "lower"),
    ("alt.p99_ms", "ms", "lower"),
)

#: Open-loop rate ladder of serve-open (req/s), replayed ascending.
RUNGS = (500, 750, 1000, 1500, 2000, 3000, 4000, 6000)
#: The serving latency limit: one frame at 30 fps.
LIMIT_MS = 33.0
#: Largest refused + failed share of offered requests a passing rung allows.
MAX_MISS_SHARE = 0.01
#: Largest generator-lag p99 a rung may show and still count as measured.
MAX_LAG_MS = 1.0
#: Reported in place of a percentile that falls on a refused or failed
#: request (an infinite latency); JSON has no infinity.
MISSED_MS = 1e9

BACKEND_KERNELS = (
    "conv2d",
    "conv2d_infer",
    "conv2d_grouped",
    "conv2d_grouped_infer",
    "conv2d_grad_weight",
    "conv2d_grad_input",
    "matmul",
)
#: Copy kernels: their computed work is bytes moved, not FLOPs.
BACKEND_COPIES = ("im2col", "col2im")


def _per_layer_metrics() -> tuple[tuple[str, str, str], ...]:
    specs: list[tuple[str, str, str]] = []
    for kernel in BACKEND_KERNELS:
        specs += [
            (f"nn.backend.{kernel}.calls", "count", "lower"),
            (f"nn.backend.{kernel}.self_ms", "ms", "lower"),
            (f"nn.backend.{kernel}.gflop", "GFLOP", "lower"),
            (f"nn.backend.{kernel}.gflops", "GFLOP/s", "higher"),
        ]
    for kernel in BACKEND_COPIES:
        specs += [
            (f"nn.backend.{kernel}.calls", "count", "lower"),
            (f"nn.backend.{kernel}.self_ms", "ms", "lower"),
            (f"nn.backend.{kernel}.gbytes", "GB", "lower"),
            (f"nn.backend.{kernel}.gbps", "GB/s", "higher"),
        ]
    specs += [
        ("nn.compile.build_plan.calls", "count", "lower"),
        ("nn.compile.build_plan.ms", "ms", "lower"),
        ("nn.compile.plan_run.calls", "count", "lower"),
        ("nn.compile.plan_run.self_ms", "ms", "lower"),
        ("nn.module.eager_forward.calls", "count", "lower"),
        ("nn.module.eager_forward.self_ms", "ms", "lower"),
        ("nn.inference.predict.self_ms", "ms", "lower"),
        ("nn.inference.forwards_per_call", "count", "lower"),
        ("nn.inference.useful_pixel_frac", "share", "higher"),
        ("serving.server.submit_ms_p99", "ms", "lower"),
        ("serving.server.batches", "count", "lower"),
        ("serving.server.mean_batch", "count", "higher"),
        ("serving.server.batch_fill", "share", "higher"),
        ("serving.server.batch_ms_mean", "ms", "lower"),
        ("serving.server.rejected", "count", "lower"),
        ("serving.server.queue_wait_ms_p50", "ms", "lower"),
        ("serving.server.queue_wait_ms_p99", "ms", "lower"),
        ("serving.server.max_rps", "req/s", "higher"),
        ("serving.cluster.submit_ms_p99", "ms", "lower"),
        ("serving.cluster.roundtrip_ms_p50", "ms", "lower"),
        ("serving.cluster.roundtrip_ms_p99", "ms", "lower"),
        ("serving.cluster.rejected", "count", "lower"),
        ("serving.cluster.degraded", "count", "lower"),
        ("serving.cluster.retries", "count", "lower"),
        ("serving.cluster.respawns", "count", "lower"),
        ("serving.cluster.max_rps", "req/s", "higher"),
    ]
    for op in ("put_array", "get_array"):
        specs += [
            (f"comms.shm.{op}.calls", "count", "lower"),
            (f"comms.shm.{op}.mb", "MB", "lower"),
            (f"comms.shm.{op}.ms", "ms", "lower"),
        ]
    for op in ("tree_reduce", "flatten_arrays", "unflatten_into"):
        specs += [
            (f"comms.reduce.{op}.calls", "count", "lower"),
            (f"comms.reduce.{op}.ms", "ms", "lower"),
        ]
    specs += [
        ("train.engine.forward_ms_per_step", "ms", "lower"),
        ("train.engine.backward_ms_per_step", "ms", "lower"),
        ("train.engine.clip_ms_per_step", "ms", "lower"),
        ("train.engine.optimizer_ms_per_step", "ms", "lower"),
        ("train.engine.checkpoint.save_ms", "ms", "lower"),
        ("train.engine.checkpoint.mb", "MB", "lower"),
        ("train.parallel.worker_wait_ms_per_step", "ms", "lower"),
    ]
    specs += [(f"loadgen.r{rate}.lag_p99_ms", "ms", "lower") for rate in RUNGS]
    specs += list(TAIL_METRICS)
    specs += [
        (f"trace.overhead_frac.{name}", "share", "lower") for name, _, _ in E2E_METRICS
    ]
    specs.append(("trace.unattributed_frac", "share", "lower"))
    return tuple(specs)


#: (name, unit, better) of every per-layer metric a ``--trace 1`` run emits.
PER_LAYER_METRICS = _per_layer_metrics()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; infinite entries (missed requests) sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reportable_ms(value: float) -> float:
    """A latency as emitted: :data:`MISSED_MS` stands in for infinity."""
    return value if math.isfinite(value) else MISSED_MS


def rung_verdict(
    latencies_ms: Sequence[float], lags_ms: Sequence[float], drain_ms: float
) -> dict:
    """Judge one open-loop rung against the serving limits.

    ``latencies_ms`` holds one entry per offered request, timed from its
    scheduled arrival; a refused or failed request is ``inf``, so it
    misses the latency limit instead of vanishing from the sample.
    """
    offered = len(latencies_ms)
    missed = sum(1 for value in latencies_ms if not math.isfinite(value))
    p99 = percentile(latencies_ms, 99)
    lag_p99 = percentile(lags_ms, 99) if lags_ms else 0.0
    checks = {
        "p99_ok": p99 <= LIMIT_MS,
        "miss_ok": missed <= MAX_MISS_SHARE * offered,
        "drain_ok": drain_ms <= LIMIT_MS,
        "lag_ok": lag_p99 <= MAX_LAG_MS,
    }
    return {
        "offered": offered,
        "missed": missed,
        "p50_ms": percentile(latencies_ms, 50),
        "p99_ms": p99,
        "lag_p99_ms": lag_p99,
        "drain_ms": drain_ms,
        "passed": all(checks.values()),
        **checks,
    }


def max_rps(rungs: Sequence[tuple[float, dict]]) -> float:
    """Highest offered rate whose rung passed; 0 when none did."""
    return max((rate for rate, verdict in rungs if verdict["passed"]), default=0.0)
