"""Benchmark: data-parallel training throughput and bit-identity.

Drives :class:`repro.train.ParallelTrainEngine` (spawn workers,
shared-memory gradient transport, deterministic tree all-reduce) on the
serve-bench denoiser:

* steady-state optimizer steps/s at ``jobs=1`` (the in-process grain
  path) vs ``jobs=N`` (N = 4 when the host has >= 4 usable CPUs, else
  2), timed from the end of the first step; the first step, which for
  ``jobs=N`` carries the worker spawn, is reported in its own column;
* a **bit-identity** assertion between the two runs — the grain
  decomposition means the worker count must never change trained bytes,
  which is what makes the speedup number trustworthy (same numerics,
  different schedule);
* the >= 1.2x scaling bar for 4 workers over serial is asserted only on
  hosts with >= 4 usable CPUs (same gating precedent as
  ``bench_sharded.py``: a 1-CPU runner cannot express process
  parallelism, so its numbers are recorded but not judged).  The bar is
  modest on purpose: every step broadcasts the full weight vector and
  the model is small, so transport overhead is a real fraction of the
  step at this scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.backend import usable_cpu_count
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.trainer import TrainConfig
from repro.serving.bench import make_bench_model
from repro.train import Callback, ParallelTrainEngine

PARALLEL_JOBS = 4
PARALLEL_SPEEDUP_BAR = 1.2
TRAIN_COUNT = 32
BATCH_SIZE = 4
EPOCHS = 3


def _loader() -> DataLoader:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((TRAIN_COUNT, 1, 12, 12))
    return DataLoader(ArrayDataset(x, x * 0.5), batch_size=BATCH_SIZE, seed=11)


class _StepEnds(Callback):
    """Wall-clock time at the end of every optimizer step."""

    def __init__(self) -> None:
        self.ends: list[float] = []

    def on_batch_end(self, engine, loss: float, grad_norm: float) -> None:
        self.ends.append(time.perf_counter())


def _train_run(jobs: int) -> dict:
    """One timed training run; returns a result row + the trained bytes."""
    model = make_bench_model(0)
    config = TrainConfig(epochs=EPOCHS, lr=5e-3, batch_size=BATCH_SIZE, seed=11)
    clock = _StepEnds()
    engine = ParallelTrainEngine(
        model, config, callbacks=[clock], jobs=jobs, model_factory=make_bench_model
    )
    try:
        started = time.perf_counter()
        result = engine.fit(_loader())
    finally:
        engine.close()
    steady_s = clock.ends[-1] - clock.ends[0]
    steady_steps = len(clock.ends) - 1
    return {
        "jobs": jobs,
        "steps": len(result.grad_norms),
        "first_step_s": clock.ends[0] - started,
        "steady_s": steady_s,
        "steps_per_s": steady_steps / steady_s,
        "final_loss": result.final_loss,
        "state": {k: v.tobytes() for k, v in model.state_dict().items()},
    }


def test_train_parallel(record_result):
    cpus = usable_cpu_count()
    jobs = PARALLEL_JOBS if cpus >= PARALLEL_JOBS else 2
    serial = _train_run(1)
    parallel = _train_run(jobs)

    identical = serial["state"] == parallel["state"]
    speedup = parallel["steps_per_s"] / serial["steps_per_s"]
    rows = [
        {k: v for k, v in row.items() if k != "state"}
        for row in (serial, parallel)
    ]
    lines = [
        "data-parallel training (grain-sharded, deterministic all-reduce)",
        f"  {'jobs':>4} {'first step ms':>13} {'steady steps/s':>14} {'steps':>5} "
        f"{'final loss':>10}",
        *(
            f"  {row['jobs']:>4} {row['first_step_s'] * 1e3:13.1f} "
            f"{row['steps_per_s']:14.1f} {row['steps']:>5} {row['final_loss']:10.5f}"
            for row in rows
        ),
        f"  steady-state speedup jobs={jobs} over jobs=1: {speedup:.2f}x",
        f"  trained bytes identical: {identical}",
        f"  usable CPUs: {cpus}",
    ]
    if cpus >= PARALLEL_JOBS:
        lines.append(
            f"  asserted: {PARALLEL_JOBS} workers >= {PARALLEL_SPEEDUP_BAR}x "
            f"(got {speedup:.2f}x)"
        )
    else:
        lines.append(
            f"  {cpus} usable CPU(s): {PARALLEL_JOBS}-worker >= "
            f"{PARALLEL_SPEEDUP_BAR}x scaling assertion skipped "
            "(process parallelism not expressible on this host)"
        )
    # Record before judging, so a failed bar still leaves the numbers.
    record_result(
        "train_parallel",
        "\n".join(lines),
        {"rows": rows, "speedup": speedup, "bit_identical": identical},
    )

    assert identical, (
        f"jobs={jobs} trained bytes must equal the jobs=1 reference"
    )
    if cpus >= PARALLEL_JOBS:
        assert speedup >= PARALLEL_SPEEDUP_BAR, (
            f"{PARALLEL_JOBS} training workers should give >= "
            f"{PARALLEL_SPEEDUP_BAR}x over serial on {cpus} CPUs "
            f"(got {speedup:.2f}x)"
        )
