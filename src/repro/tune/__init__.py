"""Measured autotuning of inference schedules.

``repro.tune`` enumerates the backend x tile x micro-batch
configuration space (:mod:`repro.tune.space`), times every candidate
in short measured trials behind a bit-identity parity guard
(:mod:`repro.tune.tuner`), and persists winners in a fingerprinted
on-disk cache (:mod:`repro.tune.cache`) keyed by model spec, request
shape, batch bucket, backend availability and host metadata — so a
tuned schedule never silently transfers to a machine it was not
measured on.

Consumers opt in per call site (``Predictor(..., tuned=True)``,
``InferenceServer(..., tuned=True)``, ``python -m repro run --tuned``)
or process-wide via ``REPRO_TUNED=1``; every tuned path falls back to
the untuned defaults on a cache miss and is bit-identical to its
untuned counterpart by construction — tuning changes schedule, never
semantics.
"""

from .cache import (
    TUNED_ENV,
    TUNING_DIR_ENV,
    TuningCache,
    TuningEntry,
    host_metadata,
    model_signature,
    tuned_enabled,
    tuning_fingerprint,
    tuning_root,
)
from .space import TunedConfig, bucket_batch, candidate_space, default_config
from .tuner import lookup, model_label, tune_model

__all__ = [
    "TUNED_ENV",
    "TUNING_DIR_ENV",
    "TunedConfig",
    "TuningCache",
    "TuningEntry",
    "bucket_batch",
    "candidate_space",
    "default_config",
    "host_metadata",
    "lookup",
    "model_label",
    "model_signature",
    "tune_model",
    "tuned_enabled",
    "tuning_fingerprint",
    "tuning_root",
]
