"""``python -m repro`` — orchestrate the paper's experiments.

Subcommands:

* ``list``   — show every registered experiment and its cache status.
* ``run``    — execute experiments (``all`` or a subset) at a scale
  preset, in parallel with ``--jobs N``, writing fingerprinted JSON
  artifacts under ``results/``.  Re-runs are cache hits unless
  ``--force``; ``--warm-start`` lets experiments reuse cached trained
  weights (:mod:`repro.experiments.weights`) instead of retraining.
* ``train``  — train one model (``<task>[:<kind>]``) through the
  checkpointable :class:`repro.train.TrainEngine`, saving a resumable
  ``.npz`` checkpoint each epoch; ``--resume`` continues a previous run
  bit-for-bit from its checkpoint.
* ``report`` — render the paper-style tables/figures from cached
  artifacts without recomputing anything.
* ``serve-bench`` — benchmark the :mod:`repro.serving` inference server:
  closed-loop concurrent clients, per-request vs micro-batched dispatch,
  per-backend rows, with a bit-identity check against serial inference.
  ``--procs N`` switches to the process-sharded server
  (:class:`repro.serving.ShardedInferenceServer`): N spawn workers with
  shared-memory tensor transport, compared against a 1-proc baseline.
* ``tune`` — run the :mod:`repro.tune` autotuner for one model
  (``<task>[:<kind>]``) over a shape grid, persisting fingerprinted
  winners under ``<results-dir>/tuning``; re-invocations are cache hits.
  ``--tuned`` on ``run`` / ``serve-bench`` makes inference paths consult
  that cache (bit-identical to untuned; schedule only).

Parallel runs use ``multiprocessing`` with the spawn start method and
per-(experiment, scale) deterministic seeding, so ``--jobs N`` output
is bit-identical to a serial run.

``--backend NAME[:ARG]`` selects the :mod:`repro.nn.backend` kernel
backend for the nn hot path (e.g. ``threaded:4``); every registered
backend produces bit-identical numbers, so artifacts and cache
fingerprints are backend-invariant.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from collections.abc import Sequence
from typing import Any

from repro.comms import spawn_context
from repro.nn import backend as nn_backend

from . import artifacts, registry
from .spawn import ensure_registered, export_env

__all__ = ["build_parser", "run_one", "main"]


def run_one(name: str, scale: str) -> dict[str, Any]:
    """Execute one experiment and return its artifact as a plain dict.

    Module-level (hence picklable) so it can serve as the worker for
    ``multiprocessing.Pool``; the serial path calls the same function so
    both paths produce identical artifacts.
    """
    ensure_registered()
    experiment = registry.get(name)
    settings, digest = artifacts.settings_digest(experiment, scale)
    result = experiment.execute(scale)
    artifact = artifacts.Artifact(
        experiment=name,
        scale=scale,
        fingerprint=digest,
        settings=settings,
        result=experiment.to_jsonable(result),
        formatted=experiment.format_result(result),
    )
    return artifact.to_dict()


def _run_one_task(task: tuple[str, str]) -> dict[str, Any]:
    """Fault-isolating wrapper: one failure must not abort the batch.

    Returns either a normal artifact dict or an ``{"error": ...}``
    payload, so the parent can keep harvesting (and caching) the other
    experiments' results instead of tearing the pool down.
    """
    name, scale = task
    try:
        return run_one(name, scale)
    except Exception as exc:  # the boundary where worker faults become data
        return {"experiment": name, "scale": scale, "error": f"{type(exc).__name__}: {exc}"}


def _resolve_names(requested: Sequence[str]) -> list[str]:
    known = registry.names()
    if not requested or "all" in requested:
        return known
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"known: {', '.join(known)}"
        )
    # Preserve the user's order but drop duplicates.
    seen: dict[str, None] = {}
    for name in requested:
        seen.setdefault(name)
    return list(seen)


def _cmd_list(args: argparse.Namespace) -> int:
    store = artifacts.ArtifactStore(args.results_dir)
    rows = []
    for experiment in registry.all_experiments():
        cached = []
        for scale in sorted(experiment.scales):
            _, digest = artifacts.settings_digest(experiment, scale)
            if store.load(experiment.name, scale, digest) is not None:
                cached.append(scale)
        rows.append((experiment.name, experiment.description, cached))
    width = max(len(name) for name, _, _ in rows)
    print(f"{len(rows)} experiments (artifacts under {store.root}):")
    for name, description, cached in rows:
        marker = f"  [cached: {', '.join(cached)}]" if cached else ""
        print(f"  {name:<{width}}  {description}{marker}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = _resolve_names(args.experiments)
    store = artifacts.ArtifactStore(args.results_dir)
    jobs = max(1, args.jobs)
    if args.tuned:
        # Schedule-only: tuned inference is bit-identical to untuned, so
        # (like --warm-start) the flag stays out of artifact
        # fingerprints; the cache sits beside the artifacts so
        # --results-dir isolates it too.  Exported so spawn workers
        # consult the same cache.
        from repro.tune.cache import TUNED_ENV, TUNING_DIR_ENV

        export_env(TUNED_ENV, "1")
        export_env(TUNING_DIR_ENV, str(pathlib.Path(args.results_dir) / "tuning"))
    if args.warm_start:
        # Exported (like --backend) so spawn workers inherit it; the
        # flag stays out of artifact fingerprints because a warm start
        # reproduces the cold result byte for byte.  The cache lives
        # beside the artifacts so --results-dir isolates both.
        from . import weights

        export_env(weights.WARM_START_ENV, "1")
        export_env(
            weights.WEIGHTS_DIR_ENV, str(pathlib.Path(args.results_dir) / "weights")
        )

    pending: list[str] = []
    for name in names:
        experiment = registry.get(name)
        _, digest = artifacts.settings_digest(experiment, args.scale)
        cached = None if args.force else store.load(name, args.scale, digest)
        if cached is not None:
            print(f"{name:<10} {args.scale:<6} cache hit   {digest}")
        else:
            pending.append(name)

    if not pending:
        print(f"all {len(names)} experiment(s) served from cache")
        return 0

    started = time.perf_counter()
    computed = 0
    failed: list[str] = []

    def _store(payload: dict[str, Any], note: str) -> None:
        # Save (or report) each result as it arrives, so completed work
        # survives a failure or interrupt in another experiment.
        nonlocal computed
        name = payload["experiment"]
        if "error" in payload:
            failed.append(name)
            print(f"{name:<10} {args.scale:<6} FAILED {payload['error']}")
            return
        print(f"{name:<10} {args.scale:<6} ran {note} {payload['fingerprint']}")
        path = store.save(artifacts.Artifact.from_dict(payload))
        computed += 1
        print(f"{name:<10} {args.scale:<6} wrote {path}")

    if jobs == 1 or len(pending) == 1:
        for name in pending:
            t0 = time.perf_counter()
            payload = _run_one_task((name, args.scale))
            _store(payload, f"{time.perf_counter() - t0:6.1f}s")
    else:
        # Spawn (not fork) so workers start from identical interpreter
        # state on every platform; run_one reseeds deterministically.
        context = spawn_context()
        with context.Pool(processes=min(jobs, len(pending))) as pool:
            tasks = [(name, args.scale) for name in pending]
            # Unordered: each artifact lands the moment its worker
            # finishes, and faults come back as data, so one failing
            # experiment can't discard the completed work of the others.
            for payload in pool.imap_unordered(_run_one_task, tasks):
                _store(payload, f"(jobs={jobs})")

    print(
        f"{computed}/{len(pending)} experiments computed in "
        f"{time.perf_counter() - started:.1f}s "
        f"({len(names) - len(pending)} served from cache"
        + (f", {len(failed)} failed: {', '.join(failed)})" if failed else ")")
    )
    return 1 if failed else 0


def _cmd_train(args: argparse.Namespace) -> int:
    # Local imports: `python -m repro list/run` never pays for them.
    import dataclasses
    import functools

    import numpy as np

    from repro.experiments.settings import get_scale
    from repro.models.factory import make_factory
    from repro.nn.data import ArrayDataset, DataLoader
    from repro.nn.trainer import TrainConfig
    from repro.train import (
        CheckpointCallback,
        CheckpointError,
        ParallelTrainEngine,
        TrainEngine,
        load_checkpoint,
    )

    from .runner import build_task_model, evaluate_psnr, make_task, model_for_task

    task, _, kind = args.model.partition(":")
    kind = kind or "real"
    if task not in ("denoise", "sr4"):
        raise SystemExit(f"unknown task {task!r}; model is <task>[:<kind>], task denoise|sr4")
    try:
        factory = make_factory(kind) if kind != "real" else None
    except KeyError as exc:
        raise SystemExit(f"unknown algebra kind {kind!r}: {exc}") from None

    scale = get_scale(args.scale)
    ckpt_path = pathlib.Path(
        args.checkpoint
        or pathlib.Path(args.results_dir) / "checkpoints" / f"{task}-{kind}-{args.scale}.npz"
    )

    resumed = None
    if args.resume:
        try:
            resumed = load_checkpoint(ckpt_path)
        except CheckpointError as exc:
            raise SystemExit(f"--resume: {exc}") from None
    # The schedule horizon: explicit --epochs, else whatever the
    # checkpoint trained toward (so a resume continues the same cosine
    # decay), else the scale preset.
    if args.epochs is not None:
        epochs = args.epochs
    elif resumed is not None and resumed.config:
        epochs = int(resumed.config["epochs"])
    else:
        epochs = scale.epochs
    config = TrainConfig(epochs=epochs, lr=scale.lr, seed=scale.seed)

    data = make_task(task, scale)
    model = model_for_task(task, factory, scale, seed=args.seed)
    loader = DataLoader(
        ArrayDataset(data.train_inputs, data.train_targets),
        batch_size=scale.batch_size,
        seed=scale.seed,
    )
    model_spec = {"family": "ernet", "kind": kind, **dataclasses.asdict(model.config)}
    callbacks = [CheckpointCallback(ckpt_path, every=args.save_every, model_spec=model_spec)]
    if args.grain is not None and args.jobs is None:
        raise SystemExit("--grain only applies to the data-parallel engine; pass --jobs")
    if args.jobs is not None:
        # Grain-sharded engine: byte-identical checkpoints for every N,
        # so --jobs may change freely between a run and its resume.
        if args.jobs < 1:
            raise SystemExit("--jobs must be >= 1")
        engine = ParallelTrainEngine(
            model,
            config,
            callbacks=callbacks,
            jobs=args.jobs,
            **({"grain": args.grain} if args.grain is not None else {}),
            model_factory=functools.partial(
                build_task_model, task, kind, scale, args.seed
            ),
        )
    else:
        engine = TrainEngine(model, config, callbacks=callbacks)
    if resumed is not None:
        try:
            engine.load_checkpoint(ckpt_path, loader=loader)
        except (CheckpointError, KeyError, ValueError) as exc:
            raise SystemExit(f"--resume: checkpoint does not match this model: {exc}") from None
        print(f"{args.model:<12} resumed epoch {engine.epoch} from {ckpt_path}")

    todo = (
        min(args.train_epochs, max(0, epochs - engine.epoch))
        if args.train_epochs is not None
        else max(0, epochs - engine.epoch)
    )
    if todo == 0:
        print(f"{args.model:<12} already at epoch {engine.epoch}/{epochs}; nothing to train")
    else:
        started = time.perf_counter()
        try:
            result = engine.fit(loader, epochs=todo)
        finally:
            if isinstance(engine, ParallelTrainEngine):
                engine.close()
        elapsed = time.perf_counter() - started
        jobs_note = f" (jobs={args.jobs})" if args.jobs is not None else ""
        print(
            f"{args.model:<12} {args.scale:<6} trained {todo} epoch(s) "
            f"to {engine.epoch}/{epochs} in {elapsed:.1f}s{jobs_note} "
            f"(loss {result.final_loss:.5f}, lr {result.lr_trace[-1]:.2e}, "
            f"grad-norm {float(np.mean(result.grad_norms)):.3f} mean)"
        )
    psnr = evaluate_psnr(model, data)
    print(f"{args.model:<12} {args.scale:<6} test PSNR {psnr:.2f} dB")
    print(f"{args.model:<12} checkpoint {ckpt_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    names = _resolve_names(args.experiments)
    store = artifacts.ArtifactStore(args.results_dir)
    missing: list[str] = []
    for name in names:
        experiment = registry.get(name)
        _, digest = artifacts.settings_digest(experiment, args.scale)
        artifact = store.load(name, args.scale, digest) or store.latest(name, args.scale)
        if artifact is None:
            missing.append(name)
            continue
        print(f"== {name} ({args.scale}, {artifact.fingerprint}) ==")
        print(f"   {experiment.description}")
        print(artifact.formatted)
        print()
    if missing:
        print(
            f"no cached artifact for: {', '.join(missing)} "
            f"(run `python -m repro run {' '.join(missing)} --scale {args.scale}` first)"
        )
        # Missing-by-request is an error; "report everything you have" is not.
        if args.experiments and "all" not in args.experiments:
            return 1
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    # Imported here (not at module top) so `python -m repro list/run`
    # never pays for the serving stack.
    from repro.serving.bench import (
        ServeBenchConfig,
        ShardedBenchConfig,
        run_serve_bench,
        run_sharded_bench,
    )

    backends = [spec.strip() for spec in args.backends.split(",") if spec.strip()]
    if not backends:
        raise SystemExit("--backends must name at least one backend")
    for spec in backends:
        try:
            nn_backend.make_backend(spec)  # validate before the long run
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    if args.clients < 1 or args.requests < 1 or args.workers < 1 or args.max_batch < 1:
        raise SystemExit("--clients/--requests/--workers/--max-batch must be >= 1")
    if args.image_size < 2 or args.image_size % 2:
        raise SystemExit("--image-size must be even (pixel-unshuffle by 2) and >= 2")
    if args.procs:
        # Process-sharded mode: compare a 1-proc baseline against the
        # requested shard count on the same seeded mixed-shape workload.
        if args.procs < 1:
            raise SystemExit("--procs must be >= 1")
        procs = (1,) if args.procs == 1 else (1, args.procs)
        config = ShardedBenchConfig(
            clients=args.clients,
            requests_per_client=args.requests,
            image_size=args.image_size,
            procs=procs,
            max_batch=args.max_batch,
            backend=backends[0],
            seed=args.seed,
            compiled=args.compiled,
            tuned=args.tuned,
        )
        report = run_sharded_bench(config)
        print(report.format())
        if not report.bit_identical:
            print("ERROR: sharded outputs differ from serial inference")
            return 1
        return 0
    config = ServeBenchConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        image_size=args.image_size,
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        backends=tuple(backends),
        seed=args.seed,
        compiled=args.compiled,
        tuned=args.tuned,
    )
    report = run_serve_bench(config)
    print(report.format())
    if not report.bit_identical:
        print("ERROR: served outputs differ from serial inference")
        return 1
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    # Local imports: list/run/report never pay for the tuning stack.
    from repro.experiments.settings import get_scale
    from repro.models.factory import make_factory
    from repro.tune import TuningCache, lookup, tune_model

    from .runner import model_for_task

    task, _, kind = args.model.partition(":")
    kind = kind or "real"
    if task not in ("denoise", "sr4"):
        raise SystemExit(f"unknown task {task!r}; model is <task>[:<kind>], task denoise|sr4")
    try:
        factory = make_factory(kind) if kind != "real" else None
    except KeyError as exc:
        raise SystemExit(f"unknown algebra kind {kind!r}: {exc}") from None
    sizes = []
    for token in args.shapes.split(","):
        token = token.strip()
        if not token:
            continue
        size = int(token)
        if size < 2 or (task == "denoise" and size % 2):
            raise SystemExit(
                f"--shapes entries must be >= 2 (and even for denoise), got {size}"
            )
        sizes.append(size)
    if not sizes or args.batch < 1 or args.trials < 1 or args.warmup < 0:
        raise SystemExit(
            "--shapes needs at least one size; --batch/--trials must be >= 1, "
            "--warmup >= 0"
        )

    scale = get_scale(args.scale)
    model = model_for_task(task, factory, scale, seed=args.seed)
    model.eval()
    cache = TuningCache(pathlib.Path(args.results_dir) / "tuning")
    print(
        f"tuning {args.model} ({args.scale}) over sizes {sizes}, batch {args.batch}; "
        f"cache {cache.root}"
    )
    for size in sizes:
        shape = (1, size, size)
        if not args.force:
            existing = lookup(model, shape, args.batch, cache=cache)
            if existing is not None:
                print(
                    f"  {size:>4}px  cache hit   {existing.fingerprint}  "
                    f"winner {existing.winner.label()} (speedup {existing.speedup:.2f}x)"
                )
                continue
        t0 = time.perf_counter()
        entry = tune_model(
            model,
            shape,
            args.batch,
            seed=args.seed,
            trials=args.trials,
            warmup=args.warmup,
            cache=cache,
        )
        measured = sum(1 for t in entry.trials if t["median_s"] is not None)
        print(
            f"  {size:>4}px  tuned       {entry.fingerprint}  "
            f"winner {entry.winner.label()} (default {entry.default.label()}, "
            f"speedup {entry.speedup:.2f}x, {measured} measured of "
            f"{len(entry.trials)} candidates, {time.perf_counter() - t0:.1f}s)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and report the paper's experiments (registry-driven).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            choices=registry.SCALE_NAMES,
            default="small",
            help="scale preset: 'small' smoke runs or the 'paper' recipe",
        )
        sub.add_argument(
            "--results-dir",
            default=str(artifacts.DEFAULT_RESULTS_DIR),
            help="artifact directory (default: <repo>/results)",
        )
        sub.add_argument(
            "--backend",
            default=None,
            metavar="NAME[:ARG]",
            help=(
                "kernel backend for the nn hot path "
                f"({', '.join(nn_backend.available_backends())}; e.g. threaded:4). "
                f"Exported as {nn_backend.BACKEND_ENV_VAR} so --jobs workers "
                "inherit it."
            ),
        )

    sub_list = subparsers.add_parser("list", help="show registered experiments")
    add_common(sub_list)
    sub_list.set_defaults(func=_cmd_list)

    sub_run = subparsers.add_parser("run", help="execute experiments, cache artifacts")
    sub_run.add_argument(
        "experiments", nargs="+", help="experiment names, or 'all'"
    )
    sub_run.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes (default 1)"
    )
    sub_run.add_argument(
        "--force", action="store_true", help="recompute even on a cache hit"
    )
    sub_run.add_argument(
        "--warm-start",
        action="store_true",
        help=(
            "reuse cached trained weights (results/weights/) for "
            "experiments whose training fingerprint matches; results are "
            "byte-identical to cold runs"
        ),
    )
    sub_run.add_argument(
        "--tuned",
        action="store_true",
        help=(
            "serve inference through cached autotuned schedules "
            "(<results-dir>/tuning, populated by `python -m repro tune`); "
            "bit-identical to untuned, so artifacts are unaffected"
        ),
    )
    add_common(sub_run)
    sub_run.set_defaults(func=_cmd_run)

    sub_train = subparsers.add_parser(
        "train", help="train one model with the checkpointable engine"
    )
    sub_train.add_argument(
        "model",
        help="what to train: <task>[:<kind>], e.g. denoise:real or sr4:ri4+fh",
    )
    sub_train.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="total schedule horizon (default: the scale preset's; on "
        "--resume, the checkpoint's)",
    )
    sub_train.add_argument(
        "--train-epochs",
        type=int,
        default=None,
        metavar="K",
        help="run at most K epochs this invocation (checkpoint, resume later)",
    )
    sub_train.add_argument(
        "--resume",
        action="store_true",
        help="continue bit-for-bit from the checkpoint file",
    )
    sub_train.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file (default: <results-dir>/checkpoints/<task>-<kind>-<scale>.npz)",
    )
    sub_train.add_argument(
        "--save-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint cadence in epochs (default 1)",
    )
    sub_train.add_argument("--seed", type=int, default=0, help="model init seed")
    sub_train.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="data-parallel worker processes; grain-sharded numerics make "
        "checkpoints byte-identical for every N (default: the classic "
        "serial engine)",
    )
    sub_train.add_argument(
        "--grain",
        type=int,
        default=None,
        metavar="G",
        help="samples per gradient grain under --jobs (default 2); part of "
        "the numerics, like batch size — keep it fixed across resumes",
    )
    add_common(sub_train)
    sub_train.set_defaults(func=_cmd_train)

    sub_report = subparsers.add_parser(
        "report", help="render cached artifacts as the paper's tables/figures"
    )
    sub_report.add_argument(
        "experiments", nargs="*", help="experiment names (default: all)"
    )
    add_common(sub_report)
    sub_report.set_defaults(func=_cmd_report)

    sub_serve = subparsers.add_parser(
        "serve-bench",
        help="benchmark the micro-batching inference server (repro.serving)",
    )
    sub_serve.add_argument(
        "--clients", type=int, default=8, help="concurrent closed-loop clients"
    )
    sub_serve.add_argument(
        "--requests", type=int, default=8, help="requests per client"
    )
    sub_serve.add_argument(
        "--image-size", type=int, default=24, help="square request size in pixels"
    )
    sub_serve.add_argument(
        "--workers", type=int, default=2, help="server worker threads"
    )
    sub_serve.add_argument(
        "--procs",
        type=int,
        default=0,
        metavar="N",
        help=(
            "benchmark the process-sharded server with N worker processes "
            "(shared-memory transport) against a 1-proc baseline instead of "
            "the thread server; uses the first --backends entry"
        ),
    )
    sub_serve.add_argument(
        "--max-batch", type=int, default=8, help="micro-batch flush threshold"
    )
    sub_serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=10.0,
        help="how long an under-full batch waits for stragglers",
    )
    sub_serve.add_argument(
        "--backends",
        default="numpy",
        metavar="SPEC[,SPEC...]",
        help=(
            "comma-separated kernel backends to compare "
            f"({', '.join(nn_backend.available_backends())})"
        ),
    )
    sub_serve.add_argument("--seed", type=int, default=0, help="workload seed")
    sub_serve.add_argument(
        "--compiled",
        action="store_true",
        help=(
            "serve through the trace-once compiled path (Predictor.compile); "
            "bit-identical to eager, checked against the eager serial reference"
        ),
    )
    sub_serve.add_argument(
        "--tuned",
        action="store_true",
        help=(
            "servers consult the autotuning cache (REPRO_TUNING_DIR, default "
            "results/tuning); the serial reference stays untuned, so the "
            "bit-identity verdict certifies tuned == untuned"
        ),
    )
    sub_serve.set_defaults(func=_cmd_serve_bench)

    sub_tune = subparsers.add_parser(
        "tune",
        help="autotune backend x tile x micro-batch for one model (repro.tune)",
    )
    sub_tune.add_argument(
        "model",
        help="what to tune: <task>[:<kind>], e.g. denoise:real or sr4:ri4+fh",
    )
    sub_tune.add_argument(
        "--shapes",
        default="16,24",
        metavar="SIZE[,SIZE...]",
        help="square request sizes (pixels) to tune, comma-separated (default 16,24)",
    )
    sub_tune.add_argument(
        "--batch", type=int, default=8, help="offered batch ceiling (default 8)"
    )
    sub_tune.add_argument(
        "--trials", type=int, default=3, help="timed runs per candidate (default 3)"
    )
    sub_tune.add_argument(
        "--warmup", type=int, default=1, help="discarded runs per candidate (default 1)"
    )
    sub_tune.add_argument("--seed", type=int, default=0, help="probe input seed")
    sub_tune.add_argument(
        "--force", action="store_true", help="retune even on a cache hit"
    )
    add_common(sub_tune)
    sub_tune.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the experiment CLI; returns the process exit code."""
    ensure_registered()
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        try:
            nn_backend.make_backend(args.backend)  # validate before exporting
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        # Exported (not a context manager) so multiprocessing spawn
        # workers pick the same backend up; precedence stays with any
        # use_backend context active inside the experiment code itself.
        export_env(nn_backend.BACKEND_ENV_VAR, args.backend)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; swallow the
        # noise (and keep Python's shutdown flush from re-raising).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
