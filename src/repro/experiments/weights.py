"""Fingerprinted trained-weight cache (the artifact cache's sibling).

The JSON artifact cache (:mod:`repro.experiments.artifacts`) memoizes
*results*; this module memoizes the expensive part that produces them —
trained weights.  A cache entry is keyed by a fingerprint of everything
that determines the training outcome: the model spec (architecture +
factory kind + init seed), the resolved :class:`TrainConfig`, the data
recipe (task + scale + seed) and a schema version.  Since training is
deterministic, two experiments that would train the identical model
(e.g. the real-valued baseline that several figures share) can
*warm-start* from one cached run and produce byte-identical result
artifacts — the cached bundle carries the full loss history alongside
the weights, so even ``final_train_loss`` matches a cold run exactly.

Warm-starting is opt-in and out-of-band (the ``REPRO_WARM_START``
environment variable, set by ``python -m repro run --warm-start``), so
it never enters artifact fingerprints: a warm-started run writes the
same artifact bytes a cold run would.

Entries are :class:`repro.train.Checkpoint` files (weights-only) under
``results/weights/``, written atomically like every other artifact.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
from collections.abc import Mapping
from typing import Any

from ..nn.module import Module
from ..nn.trainer import TrainConfig, TrainResult
from ..train.checkpoint import Checkpoint, CheckpointError
from .artifacts import DEFAULT_RESULTS_DIR, canonical_json

__all__ = [
    "WEIGHTS_SCHEMA",
    "DEFAULT_WEIGHTS_DIR",
    "WARM_START_ENV",
    "warm_start_enabled",
    "weights_root",
    "training_fingerprint",
    "WeightCache",
]

#: Bump when the cached-bundle layout or training semantics change.
WEIGHTS_SCHEMA = 2

DEFAULT_WEIGHTS_DIR = DEFAULT_RESULTS_DIR / "weights"

#: Environment flag enabling warm starts (read/write-through the cache).
WARM_START_ENV = "REPRO_WARM_START"

#: Environment override for the cache directory.  The CLI exports it as
#: ``<results-dir>/weights`` so ``--results-dir`` isolates weight caches
#: the same way it isolates artifacts (and spawn workers inherit it).
WEIGHTS_DIR_ENV = "REPRO_WEIGHTS_DIR"


def warm_start_enabled() -> bool:
    """Whether experiment training may consult the weight cache."""
    return os.environ.get(WARM_START_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def weights_root() -> pathlib.Path:
    """The active cache directory (env override, else the default)."""
    override = os.environ.get(WEIGHTS_DIR_ENV, "").strip()
    return pathlib.Path(override) if override else pathlib.Path(DEFAULT_WEIGHTS_DIR)


def training_fingerprint(spec: Mapping[str, Any], config: TrainConfig) -> str:
    """Digest of one deterministic training run.

    ``spec`` describes the model and data (architecture knobs, factory
    kind, init seed, task, scale recipe); the training configuration and
    schema version are folded in here so callers can't forget them.
    """
    payload = canonical_json(
        {"spec": spec, "train_config": config.to_jsonable(), "schema": WEIGHTS_SCHEMA}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _slug(label: str) -> str:
    """Filesystem-safe rendering of an experiment label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "model"


class WeightCache:
    """Filesystem store of trained-weight bundles keyed by fingerprint.

    Files live flat under ``root`` as ``<label>--<fingerprint>.npz`` —
    browsable like the JSON artifacts, O(1) by key.  The label is
    cosmetic; only the fingerprint identifies an entry.
    """

    def __init__(self, root: str | pathlib.Path | None = None) -> None:
        # Resolved at call time (not def time) so the env override and
        # tests repointing DEFAULT_WEIGHTS_DIR both take effect.
        self.root = pathlib.Path(root) if root is not None else weights_root()

    def path_for(self, label: str, digest: str) -> pathlib.Path:
        return self.root / f"{_slug(label)}--{digest}.npz"

    # ------------------------------------------------------------------
    def load(self, label: str, digest: str) -> Checkpoint | None:
        """The cached bundle for a fingerprint, or None on a miss.

        Lookup is by fingerprint: the exact label's file is preferred,
        but any entry with the digest hits — so experiments that train
        the identical model under different labels share one bundle.
        Corrupt or truncated files degrade to a miss (retrain and
        overwrite), mirroring the artifact store's behavior.
        """
        preferred = self.path_for(label, digest)
        candidates = [preferred] if preferred.exists() else []
        candidates += [p for p in self.root.glob(f"*--{digest}.npz") if p != preferred]
        for path in candidates:
            try:
                return Checkpoint.load(path)
            except CheckpointError:
                continue
        return None

    def store(
        self,
        label: str,
        digest: str,
        model: Module,
        result: TrainResult,
        model_spec: Mapping[str, Any] | None = None,
    ) -> pathlib.Path:
        """Save trained weights plus their loss history under a key."""
        checkpoint = Checkpoint.capture(
            model=model,
            epoch=result.epochs,
            history={
                "train_losses": [float(x) for x in result.train_losses],
                "val_losses": [float(x) for x in result.val_losses],
                "lr_trace": [float(x) for x in result.lr_trace],
                "grad_norms": [float(x) for x in result.grad_norms],
            },
            model_spec=model_spec,
        )
        return checkpoint.save(self.path_for(label, digest))

    # ------------------------------------------------------------------
    @staticmethod
    def result_of(checkpoint: Checkpoint) -> TrainResult:
        """Rebuild the :class:`TrainResult` a cold training run returned."""
        history = checkpoint.history
        losses = list(history.get("train_losses", []))
        return TrainResult(
            train_losses=losses,
            final_loss=losses[-1] if losses else float("nan"),
            lr_trace=list(history.get("lr_trace", [])),
            grad_norms=list(history.get("grad_norms", [])),
            val_losses=list(history.get("val_losses", [])),
        )
