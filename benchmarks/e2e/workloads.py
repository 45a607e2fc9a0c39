"""The four workloads of the end-to-end benchmark.

Each workload runs in a fresh child process (see ``run.py``), drives two
user paths through their public APIs only, and checks every output
against an eager reference.  Inputs come from the workload seed; the
models are always built from seed 0, so nothing is downloaded and every
seed serves the same weights.  Reference outputs are computed with
tracing paused, so a traced run describes the measured paths only.

The two paths of a workload take turns in rounds (:class:`PathRun`).
Set-up is timed cold several times, spread over the run: each round
(each stint, for training) builds both paths afresh and measures on
what it built, and ``setup_s`` is the median over them.  A workload
returns a plain dict:

* ``e2e`` — the end-to-end metrics of :data:`measure.E2E_METRICS`
  (``peak_rss_mb`` is added by the caller);
* ``tail`` — each path's p99 latency over every sample;
* ``attempted`` / ``failed`` / ``problems`` — correctness accounting;
* ``extras`` — per-layer metrics read from public stats, not spans;
* ``steps`` — optimizer steps per harness operation (train-dn only);
* ``details`` — sample counts and per-rung tables for the results file.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pathlib
import shutil
import statistics
import threading
import time
from collections.abc import Callable

import numpy as np

from repro.models.ernet import dn_ernet_pu
from repro.models.factory import make_factory
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.fastconv import FastRingConv2d
from repro.nn.inference import Predictor
from repro.nn.layers import ReLU, Sequential
from repro.nn.trainer import TrainConfig
from repro.rings.catalog import get_ring
from repro.serving.cluster import ShardedInferenceServer
from repro.serving.loadgen import ArrivalTrace, make_poisson_trace, run_open_loop
from repro.serving.server import InferenceServer
from repro.train import ParallelTrainEngine, TrainEngine
from repro.train.callbacks import Callback
from repro.train.checkpoint import Checkpoint

import measure
from measure import RUNGS, percentile

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Scratch space inside the checkout (checkpoints, span dumps).
OUT_DIR = ROOT / ".e2e_out"

MODEL_SEED = 0
#: Rounds of the closed-loop predictor workloads and of serve-open;
#: each starts with a cold set-up of both paths.
ROUNDS = 10
SERVE_ROUNDS = 6
#: train-dn's stints, each a cold set-up of both engines followed by
#: alternating epochs (one round per engine and epoch).
TRAIN_STINTS = 5
#: The nominal open-loop rate (req/s) of serve-open's latency.
NOMINAL_RPS = RUNGS[0]
#: Requests per ladder rung for each second of ``--seconds``.
RUNG_REQUESTS_PER_S = 25
SERVE_SHAPES = ((1, 16, 16), (1, 24, 24))
TRAIN_SAMPLES = 512
TRAIN_SIZE = 24
TRAIN_BATCH = 8
#: Cosine-schedule horizon; far beyond any run, so every epoch trains.
TRAIN_HORIZON = 1000
#: jobs=2 epochs whose trained bytes are replayed with jobs=1 and compared.
CHECK_EPOCHS = 2


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
def _perturb(model, seed: int):
    """Move weights off their init, as ``serving.bench.make_bench_model``
    does, so the zero-initialised tail does not make outputs trivial."""
    rng = np.random.default_rng(seed)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    return model.eval()


def make_ring_dn(seed: int = MODEL_SEED):
    """The paper's RingCNN denoiser: DnERNet-PU on ring RI4 with the
    directional ReLU f_H, n = 4."""
    model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("proposed", 4), seed=seed)
    return _perturb(model, seed)


def make_frconv(seed: int = MODEL_SEED):
    """Three fast ring convolutions (Hamilton ring, m = 8 grouped
    products) with ReLU, as in ``benchmarks/bench_compiled.py``."""
    spec = get_ring("h")
    layers = []
    for index in range(3):
        layers += [FastRingConv2d(16, 16, 3, spec, padding=1, seed=seed + index), ReLU()]
    return _perturb(Sequential(*layers), seed)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
class Tally:
    """Correctness accounting, safe to update from server callbacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        with self._lock:
            self.attempted += count
            if not ok:
                self.failed += count
                if len(self.problems) < 20:
                    self.problems.append(what)


def fingerprint(array) -> tuple:
    """Shape, dtype and a digest of every byte; equal iff bit-identical.

    Outputs are checked against the reference's fingerprint, so the
    check neither copies the output nor keeps reference arrays alive.
    """
    array = np.ascontiguousarray(array)
    return array.shape, array.dtype.str, hashlib.blake2b(array, digest_size=16).digest()


class PathRun:
    """One user path's measurements, round by round.

    The two paths of a workload alternate in rounds, so interference
    from other tenants of the host lands on both alike.  Interference
    only ever adds time, so the end-to-end figures come from each path's
    least-disturbed round: ``p50_ms`` is the lowest round median and
    ``rate`` the highest round rate.  The p99 pools every sample.
    """

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.round_p50_ms: list[float] = []
        self.round_rates: list[float] = []

    def add_round(self, latencies_ms: list[float], operations: int, seconds: float) -> None:
        self.latencies_ms.extend(latencies_ms)
        self.round_p50_ms.append(percentile(latencies_ms, 50))
        self.round_rates.append(operations / seconds)

    def metrics(self, prefix: str) -> dict[str, float]:
        return {
            f"{prefix}.p50_ms": measure.reportable_ms(min(self.round_p50_ms)),
            f"{prefix}.rate": max(self.round_rates),
        }

    def tail(self, prefix: str) -> dict[str, float]:
        return {f"{prefix}.p99_ms": measure.reportable_ms(percentile(self.latencies_ms, 99))}


def timed(build: Callable[[], object]) -> tuple[float, object]:
    """Wall time of ``build()`` and what it built."""
    started = time.perf_counter()
    built = build()
    return time.perf_counter() - started, built


def _result(tally: Tally, setups_s: list[float], paths: dict[str, PathRun], details: dict,
            extras=None, steps=None) -> dict:
    e2e, tail = {"setup_s": statistics.median(setups_s)}, {}
    for name, path in paths.items():
        e2e.update(path.metrics(name))
        tail.update(path.tail(name))
    details["samples"] = {name: len(path.latencies_ms) for name, path in paths.items()}
    return {
        "e2e": e2e,
        "tail": tail,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "extras": extras or {},
        "steps": steps or {},
        "details": details,
    }


# ----------------------------------------------------------------------
# dn-small and frconv-64: closed loop, one caller
# ----------------------------------------------------------------------
def _closed_loop(factory, cases: list, firsts, seconds: float, rec, tally) -> dict:
    """Alternate the two predictor paths in :data:`ROUNDS` rounds.

    Each round builds both paths cold (the set-up: model, predictor,
    plan builds and the first output of each shape in ``firsts``) and
    then runs each for an equal slice.  ``cases`` holds (input,
    reference fingerprint) pairs, cycled in order; checks run outside
    the timed regions.  A round's rate is its calls over the time spent
    inside them.
    """

    def build(compiled: bool):
        with rec.span("op.setup"):
            predictor = Predictor(factory())
            if compiled:
                predictor = predictor.compile()
            outputs = [predictor.predict(cases[index][0]) for index in firsts]
        for index, out in zip(firsts, outputs, strict=True):
            tally.check(fingerprint(out) == cases[index][1], "setup output")
        return predictor

    paths = {"base": PathRun(), "alt": PathRun()}
    setups = []
    index = dict.fromkeys(paths, 0)
    slice_s = seconds / (ROUNDS * len(paths))
    for _ in range(ROUNDS):
        eager_s, eager = timed(lambda: build(False))
        compiled_s, compiled = timed(lambda: build(True))
        setups.append(eager_s + compiled_s)
        for name, predict in (("base", eager.predict), ("alt", compiled.predict)):
            op, latencies, busy = f"op.{name}", [], 0.0
            stop = time.perf_counter() + slice_s
            while True:
                x, expected = cases[index[name] % len(cases)]
                with rec.span(op, req=index[name]):
                    started = time.perf_counter()
                    out = predict(x)
                    finished = time.perf_counter()
                busy += finished - started
                latencies.append((finished - started) * 1e3)
                tally.check(fingerprint(out) == expected, f"{name} call {index[name]}")
                index[name] += 1
                if finished >= stop:
                    break
            paths[name].add_round(latencies, len(latencies), busy)
    return _result(tally, setups, paths, {})


def _predictor_workload(factory, inputs, firsts, seconds, rec) -> dict:
    tally = Tally()
    with rec.paused():
        reference = Predictor(factory())
        cases = [(x, fingerprint(reference.predict(x))) for x in inputs]
    return _closed_loop(factory, cases, firsts, seconds, rec, tally)


def dn_small(seed: int, seconds: float, rec) -> dict:
    """256 seeded batch-1 inputs alternating 16x16 and 24x24 on ring-dn."""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, 1, size, size)) for size in (16, 24) * 128]
    return _predictor_workload(make_ring_dn, inputs, (0, 1), seconds, rec)


def frconv_64(seed: int, seconds: float, rec) -> dict:
    """32 seeded 16x64x64 frames on frconv; each call is 4 tile crops of
    54x54 in one batch-8 forward."""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((1, 16, 64, 64)) for _ in range(32)]
    return _predictor_workload(make_frconv, inputs, (0,), seconds, rec)


# ----------------------------------------------------------------------
# serve-open: nominal rate and saturation in rounds, then the rate ladder
# ----------------------------------------------------------------------
class RecordingProxy:
    """Stands in for a server inside ``run_open_loop``.

    Forwards ``submit`` and records, per request, when it was submitted,
    how long admission took and when it completed — ``run_open_loop``
    itself reports percentiles over completed requests only, which hide
    refusals.  A refused request keeps an infinite completion time.
    """

    def __init__(self, server, rec, op: str, requests: int) -> None:
        self._server = server
        self._rec = rec
        self._op = op
        self._next = 0
        self.submitted = [math.nan] * requests
        self.admission_s = [math.nan] * requests
        self.done = [math.inf] * requests

    def submit(self, image, timeout=None):
        index = self._next
        self._next += 1
        started = time.perf_counter()
        self.submitted[index] = started
        with self._rec.span(self._op, req=index):
            future = self._server.submit(image, timeout=timeout)
        self.admission_s[index] = time.perf_counter() - started
        future.add_done_callback(functools.partial(self._finish, index))
        return future

    def _finish(self, index: int, future) -> None:
        if future.exception() is None:
            self.done[index] = time.perf_counter()


def replay(server, trace: ArrivalTrace, expected: list, op: str, rec, tally) -> dict:
    """Replay one trace through ``run_open_loop`` and judge it.

    ``expected`` holds each request's reference fingerprint.
    """
    proxy = RecordingProxy(server, rec, op, trace.requests)
    start = time.perf_counter()
    result = run_open_loop(proxy, trace, slo_ms=measure.LIMIT_MS)
    due = [start + arrival for arrival in trace.arrivals_s]
    latencies = [(done - at) * 1e3 for done, at in zip(proxy.done, due, strict=True)]
    lags = [(sent - at) * 1e3 for sent, at in zip(proxy.submitted, due, strict=True)]
    finished = [done for done in proxy.done if math.isfinite(done)]
    drain_ms = max(0.0, (max(finished) - due[-1]) * 1e3) if finished else 0.0
    for index, out in enumerate(result.outputs):
        refused = math.isnan(proxy.admission_s[index])
        ok = refused or (out is not None and fingerprint(out) == expected[index])
        tally.check(ok, f"{op} request {index}")
    return {
        "verdict": measure.rung_verdict(latencies, lags, drain_ms),
        "latencies_ms": latencies,
        "lags_ms": lags,
        "admission_ms": [s * 1e3 for s in proxy.admission_s],
        "roundtrip_ms": [
            (done - sent) * 1e3
            for done, sent in zip(proxy.done, proxy.submitted, strict=True)
            if math.isfinite(done)
        ],
    }


def saturate(server, image_at: Callable, expected_at: Callable, seconds: float, op: str,
             rec, tally) -> tuple[int, float]:
    """Keep the server full for ``seconds``; (completed, seconds taken).

    One dispatcher submits back to back; both servers block a submit
    while their queue is full, so the offered load follows the service
    rate.  Outputs are checked in the completion callback.
    """
    cond = threading.Condition()
    outstanding = [0]
    completions: list[float] = []

    def finish(index: int, future) -> None:
        error = future.exception()
        ok = error is None and fingerprint(future.result()) == expected_at(index)
        tally.check(ok, f"{op} request {index}")
        with cond:
            if error is None:
                completions.append(time.perf_counter())
            outstanding[0] -= 1
            cond.notify_all()

    started = time.perf_counter()
    stop, index = started + seconds, 0
    while time.perf_counter() < stop:
        with rec.span(op, req=index):
            future = server.submit(image_at(index))
        with cond:
            outstanding[0] += 1
        future.add_done_callback(functools.partial(finish, index))
        index += 1
    with cond:
        if not cond.wait_for(lambda: outstanding[0] <= 0, timeout=60.0):
            raise RuntimeError(f"{op}: requests still outstanding 60 s after the phase")
    return len(completions), completions[-1] - started


def serve_open(seed: int, seconds: float, rec) -> dict:
    """ring-dn behind both servers.

    Each round builds both servers cold, then replays seeded Poisson
    arrivals at :data:`NOMINAL_RPS` (the latency) and keeps the server
    full (the rate), on each server in turn.  The rate ladder follows on
    the last round's servers, for the per-layer knee.
    """
    tally = Tally()
    rng = np.random.default_rng(seed)
    pools = [[rng.standard_normal(shape) for _ in range(128)] for shape in SERVE_SHAPES]
    with rec.paused():
        reference = Predictor(make_ring_dn())
        refs = [
            [fingerprint(reference.predict(image[None])[0]) for image in pool] for pool in pools
        ]

    def image_at(index: int):
        return pools[index % 2][(index // 2) % 128]

    def expected_at(index: int):
        return refs[index % 2][(index // 2) % 128]

    def arrival_trace(rate: float, requests: int, trace_seed: int) -> ArrivalTrace:
        arrivals = make_poisson_trace(rate, requests, SERVE_SHAPES, seed=trace_seed)
        images = tuple(image_at(i) for i in range(requests))
        return ArrivalTrace(images=images, arrivals_s=arrivals.arrivals_s, rate_rps=rate)

    def build(make_server):
        with rec.span("op.setup"):
            server = make_server()
            outputs = [server.predict(image_at(index)) for index in (0, 1)]
        for index, out in enumerate(outputs):
            tally.check(fingerprint(out) == expected_at(index), "setup output")
        return server

    def make_sharded():
        return ShardedInferenceServer(functools.partial(make_ring_dn, MODEL_SEED), procs=2)

    makers = {"base": lambda: InferenceServer(make_ring_dn()), "alt": make_sharded}
    servers: dict = {}
    paths = {name: PathRun() for name in makers}
    replays: dict[str, list] = {name: [] for name in makers}
    setups = []
    try:
        # Each server's half of the seconds: rounds of nominal-rate
        # replay and saturation in equal parts, then the ladder.
        rung_requests = max(20, round(RUNG_REQUESTS_PER_S * seconds))
        ladder_s = rung_requests * sum(1.0 / rate for rate in RUNGS)
        phase_s = max(0.25, (seconds / 2 - ladder_s) / (2 * SERVE_ROUNDS))
        nominal_requests = max(20, round(NOMINAL_RPS * phase_s))
        for round_ in range(SERVE_ROUNDS):
            for server in servers.values():
                server.close()
            servers.clear()
            setup_s = 0.0
            for name, make_server in makers.items():
                taken, servers[name] = timed(lambda make_server=make_server: build(make_server))
                setup_s += taken
            setups.append(setup_s)
            trace = arrival_trace(NOMINAL_RPS, nominal_requests, seed * 100 + round_)
            expected = [expected_at(i) for i in range(trace.requests)]
            for name, server in servers.items():
                nominal = replay(server, trace, expected, f"op.{name}", rec, tally)
                completed, taken = saturate(
                    server, image_at, expected_at, phase_s, f"op.{name}.saturate", rec, tally
                )
                paths[name].add_round(nominal["latencies_ms"], completed, taken)
                replays[name].append(nominal)
        ladder: dict[str, list] = {name: [] for name in servers}
        for rung, rate in enumerate(RUNGS):
            trace = arrival_trace(rate, rung_requests, seed * 100 + SERVE_ROUNDS + rung)
            expected = [expected_at(i) for i in range(rung_requests)]
            for name, server in servers.items():
                ladder[name].append(replay(server, trace, expected, f"op.{name}", rec, tally))
        thread_stats, cluster_stats = servers["base"].stats(), servers["alt"].stats()
        max_batch = servers["base"].max_batch
    finally:
        for server in servers.values():
            server.close()

    max_rps = {
        name: measure.max_rps([(rate, r["verdict"]) for rate, r in zip(RUNGS, rungs, strict=True)])
        for name, rungs in ladder.items()
    }
    for name in servers:
        replays[name] += ladder[name]
    queue_wait = [
        lat - lag - admit - thread_stats.batch_ms_mean
        for r in replays["base"]
        for lat, lag, admit in zip(r["latencies_ms"], r["lags_ms"], r["admission_ms"], strict=True)
        if math.isfinite(lat)
    ]
    roundtrip = [ms for r in replays["alt"] for ms in r["roundtrip_ms"]]
    extras = {
        "serving.server.batches": float(thread_stats.batches),
        "serving.server.mean_batch": thread_stats.mean_batch_size,
        "serving.server.batch_fill": thread_stats.mean_batch_size / max_batch,
        "serving.server.batch_ms_mean": thread_stats.batch_ms_mean,
        "serving.server.rejected": float(thread_stats.rejected),
        "serving.server.queue_wait_ms_p50": percentile(queue_wait, 50),
        "serving.server.queue_wait_ms_p99": percentile(queue_wait, 99),
        "serving.server.max_rps": max_rps["base"],
        "serving.cluster.roundtrip_ms_p50": percentile(roundtrip, 50),
        "serving.cluster.roundtrip_ms_p99": percentile(roundtrip, 99),
        "serving.cluster.rejected": float(cluster_stats.rejected),
        "serving.cluster.degraded": float(cluster_stats.degraded),
        "serving.cluster.retries": float(cluster_stats.retried),
        "serving.cluster.respawns": float(cluster_stats.respawns),
        "serving.cluster.max_rps": max_rps["alt"],
    }
    for index, rate in enumerate(RUNGS):
        extras[f"loadgen.r{rate}.lag_p99_ms"] = max(
            rungs[index]["verdict"]["lag_p99_ms"] for rungs in ladder.values()
        )
    details = {
        "requests_per_rung": rung_requests,
        "phase_s": phase_s,
        "nominal": {
            name: measure.rung_verdict(
                path.latencies_ms,
                [ms for r in replays[name][:SERVE_ROUNDS] for ms in r["lags_ms"]],
                max(r["verdict"]["drain_ms"] for r in replays[name][:SERVE_ROUNDS]),
            )
            for name, path in paths.items()
        },
        "rungs": {
            name: [{"rate": rate, **r["verdict"]} for rate, r in zip(RUNGS, rungs, strict=True)]
            for name, rungs in ladder.items()
        },
        "max_rps": max_rps,
    }
    return _result(tally, setups, paths, details, extras)


# ----------------------------------------------------------------------
# train-dn: epochs alternate between the serial and the 2-worker engine
# ----------------------------------------------------------------------
class StepClock(Callback):
    """Per-step wall time and loss, read through the public callbacks."""

    def __init__(self) -> None:
        self.step_ms: list[float] = []
        self.losses: list[float] = []
        self._last = 0.0

    def on_epoch_start(self, engine) -> None:
        self._last = time.perf_counter()

    def on_batch_end(self, engine, loss: float, grad_norm: float) -> None:
        now = time.perf_counter()
        self.step_ms.append((now - self._last) * 1e3)
        self.losses.append(loss)
        self._last = now


def _state_bytes(model) -> dict[str, bytes]:
    return {name: array.tobytes() for name, array in model.state_dict().items()}


def train_dn(seed: int, seconds: float, rec) -> dict:
    """512 seeded 24x24 noisy/clean pairs, batch 8, default Adam recipe,
    a checkpoint saved after every epoch; each epoch is one round."""
    tally = Tally()
    rng = np.random.default_rng(seed)
    clean = rng.standard_normal((TRAIN_SAMPLES, 1, TRAIN_SIZE, TRAIN_SIZE))
    noisy = clean + 0.1 * rng.standard_normal(clean.shape)
    config = TrainConfig(epochs=TRAIN_HORIZON, batch_size=TRAIN_BATCH)
    factory = functools.partial(make_ring_dn, MODEL_SEED)

    def loader() -> DataLoader:
        return DataLoader(ArrayDataset(noisy, clean), batch_size=TRAIN_BATCH, seed=seed)

    def first_batch() -> DataLoader:
        data = ArrayDataset(noisy[:TRAIN_BATCH], clean[:TRAIN_BATCH])
        return DataLoader(data, batch_size=TRAIN_BATCH, shuffle=False)

    def make_engine(jobs: int, callbacks=()):
        if jobs == 0:
            return TrainEngine(make_ring_dn(), config, callbacks=callbacks)
        return ParallelTrainEngine(
            make_ring_dn(), config, callbacks=callbacks, jobs=jobs, model_factory=factory
        )

    def build(jobs: int):
        clock = StepClock()
        with rec.span("op.setup"):
            engine = make_engine(jobs, [clock])
            result = engine.fit(first_batch(), epochs=1)
        tally.check(math.isfinite(result.final_loss), "setup step loss")
        return engine, clock

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    paths = {"base": PathRun(), "alt": PathRun()}
    steps = {"op.base": 0, "op.alt": 0}
    setups: list[float] = []
    engines: dict = {}
    epochs, checked_epochs, checked_steps, checked_bytes = 0, 0, 0, {}
    reference = None
    try:
        for stint in range(TRAIN_STINTS):
            if "alt" in engines:
                engines["alt"][0].close()
            setup_s = 0.0
            for name, jobs in (("base", 0), ("alt", 2)):
                taken, engines[name] = timed(lambda jobs=jobs: build(jobs))
                setup_s += taken
            setups.append(setup_s)
            loaders = {name: loader() for name in engines}
            stint_epochs = 0
            stop = time.perf_counter() + seconds / TRAIN_STINTS
            while time.perf_counter() < stop:
                for name, (engine, clock) in engines.items():
                    done = len(clock.step_ms)
                    started = time.perf_counter()
                    with rec.span(f"op.{name}", req=epochs):
                        engine.fit(loaders[name], epochs=1)
                        engine.save_checkpoint(work / f"{name}.npz")
                    elapsed = time.perf_counter() - started
                    step_ms = clock.step_ms[done:]
                    paths[name].add_round(step_ms, len(step_ms), elapsed)
                    steps[f"op.{name}"] += len(step_ms)
                    for loss in clock.losses[done:]:
                        tally.check(math.isfinite(loss), f"{name} epoch {epochs} loss")
                epochs += 1
                stint_epochs += 1
                if stint == 0 and stint_epochs <= CHECK_EPOCHS:
                    alt_engine, alt_clock = engines["alt"]
                    checked_epochs = stint_epochs
                    checked_steps = len(alt_clock.step_ms) - 1  # without the set-up step
                    checked_bytes = _state_bytes(alt_engine.model)

        with rec.paused():
            base_engine = engines["base"][0]
            restored = make_ring_dn()
            Checkpoint.load(work / "base.npz").restore(model=restored, numpy_rng=False)
            tally.check(
                _state_bytes(restored) == _state_bytes(base_engine.model),
                "serial checkpoint does not restore the trained weights",
            )
            checkpoint_mb = (work / "base.npz").stat().st_size / 1e6

            # jobs=2 must train exactly the bytes jobs=1 trains: replay
            # the first stint's first epochs in-process and compare.
            reference = make_engine(1)
            reference.fit(first_batch(), epochs=1)
            reference.fit(loader(), epochs=checked_epochs)
            tally.check(
                _state_bytes(reference.model) == checked_bytes,
                "jobs=2 trained bytes differ from jobs=1",
                count=checked_steps,
            )
    finally:
        if "alt" in engines:
            engines["alt"][0].close()
        if reference is not None:
            reference.close()
        shutil.rmtree(work, ignore_errors=True)

    details = {"epochs": epochs, "parity_checked_epochs": checked_epochs}
    extras = {"train.engine.checkpoint.mb": checkpoint_mb}
    return _result(tally, setups, paths, details, extras, steps)


WORKLOADS = {
    "dn-small": dn_small,
    "frconv-64": frconv_64,
    "serve-open": serve_open,
    "train-dn": train_dn,
}
