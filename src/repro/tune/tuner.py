"""Measured-trial autotuning: enumerate, verify bits, time, cache.

The search loop (:func:`tune_model`) times the whole space:

1. :func:`~repro.tune.space.candidate_space` enumerates the
   deterministic backend x tile x micro-batch candidate list, default
   configuration first;
2. every candidate, in that order, first runs a **parity guard**: its
   output on the probe batch must equal the default configuration's
   output *byte for byte* (``np.array_equal``), or it is disqualified —
   this is what lets every cached winner claim tuned == untuned bitwise
   without hedging (tile geometries that would reassociate a BLAS
   reduction simply never win);
3. surviving candidates get ``warmup`` discarded runs then a
   median-of-``trials`` :func:`time.perf_counter` timing; the fastest
   median is the provisional winner, ties broken toward the default and
   then by label, so the pick is deterministic given the measurements;
4. a provisional winner other than the default is timed again against
   the default on fresh, interleaved samples (``trials`` each).  It is
   kept only if it is faster there, and ``speedup`` is the ratio of
   those fresh medians; otherwise the default wins with ``speedup``
   1.0.  The medians that picked the winner carry the minimum-of-N
   selection bias (a schedule identical to the default can read
   faster by noise alone), so they never report the gain.

The probe inputs come from ``np.random.default_rng(seed)`` and every
stage (candidate order, trial schedule, tie-breaks) is a pure function
of (model, shape, batch, seed, registered backends), so two runs on the
same host replay the same schedule — only the timings themselves vary,
which is why they are medians of repeated short trials.

:func:`lookup` is the consumer side: fingerprint the context, load the
entry, and *refuse* it when the cached winner's backend spec is no
longer constructible (graceful fallback — a stale cache must never turn
into a crash or a silently different schedule source).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ..nn.backend import available_backends
from ..nn.module import Module
from .cache import TuningCache, TuningEntry, model_signature, tuning_fingerprint
from .space import TunedConfig, bucket_batch, candidate_space

__all__ = ["lookup", "model_label", "tune_model"]


def model_label(model: Module) -> str:
    """Cosmetic cache-file label for a model (class name, plus task)."""
    label = type(model).__name__.lower()
    task = getattr(getattr(model, "config", None), "task", None)
    return f"{label}-{task}" if task else label


def _predictor_for(model: Module, config: TunedConfig):
    # Deferred: repro.nn.inference imports this package lazily for its
    # tuned path; importing it at module scope would be circular.
    from ..nn.inference import Predictor

    return Predictor(
        model,
        batch_size=config.batch_size,
        tile=config.tile,
        backend=config.backend,
        tuned=False,  # the tuner must never consult the cache it fills
    )


def _time_config(
    model: Module,
    config: TunedConfig,
    probe: np.ndarray,
    reference: np.ndarray | None,
    *,
    warmup: int,
    trials: int,
) -> tuple[float, bool, np.ndarray]:
    """Median trial seconds, parity verdict and output for one candidate."""
    predictor = _predictor_for(model, config)
    output = predictor.predict(probe)
    parity = reference is None or (
        output.shape == reference.shape and np.array_equal(output, reference)
    )
    if not parity:
        return float("inf"), False, output
    for _ in range(max(warmup - 1, 0)):  # first (parity) run was a warmup too
        predictor.predict(probe)
    samples = []
    for _ in range(trials):
        started = time.perf_counter()
        predictor.predict(probe)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), True, output


def _retime(
    model: Module, configs: tuple[TunedConfig, ...], probe: np.ndarray, *, warmup: int, trials: int
) -> list[float]:
    """Fresh median seconds per config, timed in interleaved rounds so
    drift on the host lands on every config alike."""
    predictors = [_predictor_for(model, config) for config in configs]
    for predictor in predictors:
        for _ in range(warmup):
            predictor.predict(probe)
    samples: list[list[float]] = [[] for _ in configs]
    for _ in range(trials):
        for predictor, times in zip(predictors, samples, strict=True):
            started = time.perf_counter()
            predictor.predict(probe)
            times.append(time.perf_counter() - started)
    return [statistics.median(times) for times in samples]


def tune_model(
    model: Module,
    shape: tuple[int, ...],
    batch: int,
    *,
    seed: int = 0,
    trials: int = 3,
    warmup: int = 1,
    cache: TuningCache | None = None,
    store: bool = True,
) -> TuningEntry:
    """Search the configuration space for one (model, shape, batch) key.

    Args:
        model: The model to schedule (weights untouched; eval-mode runs).
        shape: Request (C, H, W) shape the entry will serve.
        batch: Offered batch ceiling; quantized via
            :func:`~repro.tune.space.bucket_batch` into the tuning key.
        seed: Pins the probe inputs (and therefore the whole schedule).
        trials: Timed runs per candidate (the median is scored), and per
            side of the winner's re-time; >= 1.
        warmup: Discarded runs per candidate (and per re-timed side)
            before timing; >= 0.
        cache: Destination store; the default cache when omitted.
        store: Persist the winning entry (disable for dry runs).

    Returns:
        The :class:`~repro.tune.cache.TuningEntry` (stored unless
        ``store=False``).

    Raises:
        ValueError: On a non-(C, H, W) shape, ``trials < 1`` or
            ``warmup < 0``.
    """
    if len(shape) != 3:
        raise ValueError(f"expected a (C, H, W) request shape, got {shape}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    bucket = bucket_batch(batch)
    candidates = candidate_space(model, shape, batch)
    base = candidates[0]  # the default: every later candidate's parity reference

    rng = np.random.default_rng(seed)
    probe = rng.standard_normal((bucket, *map(int, shape)))

    records: list[dict] = []
    reference: np.ndarray | None = None
    timings: dict[TunedConfig, float] = {}
    for config in candidates:
        median, parity, output = _time_config(
            model, config, probe, reference, warmup=warmup, trials=trials
        )
        if reference is None:
            reference = output
        timings[config] = median
        records.append(
            {
                "config": config.to_jsonable(),
                "label": config.label(),
                "median_s": median if parity else None,
                "parity": parity,
            }
        )

    survivors = [config for config in candidates if timings[config] != float("inf")]
    winner = min(
        survivors, key=lambda config: (timings[config], config != base, config.label())
    )
    speedup = 1.0
    if winner != base:
        base_s, winner_s = _retime(model, (base, winner), probe, warmup=warmup, trials=trials)
        if 0 < winner_s < base_s:
            speedup = base_s / winner_s
        else:
            winner = base
    entry = TuningEntry(
        fingerprint=tuning_fingerprint(model_signature(model), tuple(shape), bucket),
        shape=tuple(int(x) for x in shape),
        batch=bucket,
        winner=winner,
        default=base,
        speedup=speedup,
        trials=records,
    )
    if store:
        (cache if cache is not None else TuningCache()).store(model_label(model), entry)
    return entry


def lookup(
    model: Module,
    shape: tuple[int, ...],
    batch: int,
    *,
    cache: TuningCache | None = None,
    signature: dict | None = None,
) -> TuningEntry | None:
    """The applicable cache entry for a serving context, or None.

    Misses (no entry, wrong schema, corrupt file) and **inapplicable
    hits** both return None: an entry whose winner names a backend spec
    that is not currently constructible — e.g. the cache was populated
    with more backends registered than this process has — is refused
    outright rather than partially applied, so consumers always fall
    back to the untuned defaults as one coherent configuration.
    """
    if len(shape) != 3:
        return None
    cache = cache if cache is not None else TuningCache()
    signature = signature if signature is not None else model_signature(model)
    bucket = bucket_batch(batch)
    digest = tuning_fingerprint(signature, tuple(shape), bucket)
    entry = cache.load(model_label(model), digest)
    if entry is None:
        return None
    if entry.winner.backend is not None:
        name = entry.winner.backend.partition(":")[0].strip().lower()
        if name not in available_backends():
            return None
    return entry
