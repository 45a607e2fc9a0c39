"""Concurrent inference serving (the ROADMAP's "heavy traffic" layer).

Two servers, one bit-identity contract:

* :class:`InferenceServer` — in-process thread pool that coalesces
  single-image requests into dynamic, shape-bucketed micro-batches over
  :class:`~repro.nn.inference.Predictor` workers, with bounded-queue
  backpressure, graceful shutdown and latency/throughput stats.
* :class:`ShardedInferenceServer` — a spawn-backed worker *process*
  pool (one Predictor replica per process, shared-memory tensor
  transport via :mod:`~repro.comms.shm`, shape-affine routing,
  admission control and crash recovery) for workloads where the GIL is
  the bottleneck.

Every served output — threaded, sharded, compiled or degraded-tile for
in-tile requests — is bit-identical to a serial Predictor call on the
same bytes.  :mod:`~repro.serving.loadgen` drives either server with
deterministic closed-loop or open-loop Poisson load;
:mod:`~repro.serving.bench` is the harness behind
``python -m repro serve-bench`` and the home of ``make_bench_model``,
the small denoiser the serving and training tests share.
"""

from ..comms.shm import RingClient, ShmRing, active_segments
from .bench import (
    ServeBenchConfig,
    ServeBenchReport,
    ShardedBenchConfig,
    ShardedBenchReport,
    make_bench_model,
    run_serve_bench,
    run_sharded_bench,
)
from .cluster import OVERLOAD_POLICIES, ClusterStats, ShardedInferenceServer, WorkerCrashed
from .loadgen import (
    ArrivalTrace,
    LoadResult,
    OpenLoopResult,
    Workload,
    make_poisson_trace,
    make_workload,
    run_closed_loop,
    run_open_loop,
    serial_reference,
)
from .server import InferenceServer, ServerClosed, ServerOverloaded, ServerStats

__all__ = [
    "InferenceServer",
    "ServerClosed",
    "ServerOverloaded",
    "ServerStats",
    "ShardedInferenceServer",
    "ClusterStats",
    "WorkerCrashed",
    "OVERLOAD_POLICIES",
    "ShmRing",
    "RingClient",
    "active_segments",
    "LoadResult",
    "Workload",
    "ArrivalTrace",
    "OpenLoopResult",
    "make_workload",
    "make_poisson_trace",
    "run_closed_loop",
    "run_open_loop",
    "serial_reference",
    "ServeBenchConfig",
    "ServeBenchReport",
    "ShardedBenchConfig",
    "ShardedBenchReport",
    "make_bench_model",
    "run_serve_bench",
    "run_sharded_bench",
]
