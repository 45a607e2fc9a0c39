"""Fingerprinted on-disk tuning cache (the weight cache's sibling).

:mod:`repro.experiments.weights` memoizes trained weights;
:mod:`repro.experiments.artifacts` memoizes results; this module
memoizes the third expensive product of a run — *measured scheduling
decisions*.  A cache entry records the winning
:class:`~repro.tune.space.TunedConfig` for one tuning key, which is a
fingerprint of everything the measurement depended on:

* the **model signature** (architecture class, config dataclass,
  parameter shapes — weights themselves are irrelevant to schedule
  cost, so a finetuned model reuses its architecture's entry);
* the **input shape** (C, H, W) and the offered **batch** ceiling;
* **backend availability** (the registered spec names a winner could
  have been drawn from);
* **host metadata** (usable CPUs, machine, platform, python) — the same
  facts ``benchmarks/conftest.py`` stamps into every benchmark twin,
  for the same reason: a measured number means nothing on different
  hardware, so a cache entry must never silently transfer across
  machines;
* a schema version.

Entries are small JSON files under ``results/tuning/`` (override with
``REPRO_TUNING_DIR``), written atomically like every other artifact,
one file per key: ``<label>--<fingerprint>.json``.  Corrupt files
degrade to a miss (retune and overwrite).

Nothing in an entry changes result bytes: a tuned configuration is a
schedule (backend spec, tile geometry, micro-batch), and every tuned
path is bit-identical to its untuned counterpart — so the tuning cache
never enters experiment artifact fingerprints, mirroring the
warm-start discipline of the weight cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import re
import sys
from collections.abc import Mapping
from typing import Any

from ..experiments.artifacts import canonical_json
from ..nn.backend import available_backends, usable_cpu_count
from ..nn.module import Module
from .space import TunedConfig

__all__ = [
    "TUNING_SCHEMA",
    "DEFAULT_TUNING_DIR",
    "TUNING_DIR_ENV",
    "TUNED_ENV",
    "tuned_enabled",
    "tuning_root",
    "host_metadata",
    "model_signature",
    "tuning_fingerprint",
    "TuningEntry",
    "TuningCache",
]

#: Bump when the entry layout or tuning semantics change.  Schema 2:
#: tiled inference cuts a balanced grid, so winners parity-checked
#: against the old remainder-tile crops no longer apply.
TUNING_SCHEMA = 2

#: Repo-root ``results/tuning`` (``src/repro/tune/`` -> root).
DEFAULT_TUNING_DIR = pathlib.Path(__file__).resolve().parents[3] / "results" / "tuning"

#: Environment override for the cache directory (the CLI exports it as
#: ``<results-dir>/tuning`` so ``--results-dir`` isolates tuning caches
#: the same way it isolates artifacts and weights).
TUNING_DIR_ENV = "REPRO_TUNING_DIR"

#: Environment flag making Predictors consult the tuning cache by
#: default (set by ``python -m repro run --tuned`` / ``serve-bench
#: --tuned`` so spawn workers inherit it).
TUNED_ENV = "REPRO_TUNED"


def tuned_enabled() -> bool:
    """Whether Predictors default to consulting the tuning cache."""
    return os.environ.get(TUNED_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def tuning_root() -> pathlib.Path:
    """The active cache directory (env override, else the default)."""
    override = os.environ.get(TUNING_DIR_ENV, "").strip()
    return pathlib.Path(override) if override else pathlib.Path(DEFAULT_TUNING_DIR)


def host_metadata() -> dict[str, Any]:
    """The environment facts a measured schedule depends on.

    Field-compatible with the host block ``benchmarks/conftest.py``
    writes into benchmark twins (minus the ambient backend env, which
    is a per-process knob, not a host fact).
    """
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
    }


def model_signature(model: Module) -> dict[str, Any]:
    """Architecture-identifying (weight-agnostic) signature of a model.

    Schedule cost depends on what GEMMs run, not on the numbers inside
    them, so the signature captures the class, the config dataclass
    (when the model carries one, e.g. :class:`~repro.models.ernet.ERNetConfig`)
    and the full named-parameter shape layout — enough that two models
    tune to the same entry iff they run the same kernel geometry.
    """
    config = getattr(model, "config", None)
    signature: dict[str, Any] = {"class": type(model).__name__}
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        signature["config"] = dataclasses.asdict(config)
    shapes = [
        [name, list(param.data.shape)] for name, param in model.named_parameters()
    ]
    signature["param_shapes"] = hashlib.sha256(
        canonical_json(shapes).encode()
    ).hexdigest()[:16]
    return signature


def tuning_fingerprint(
    signature: Mapping[str, Any],
    shape: tuple[int, ...],
    batch: int,
    *,
    backends: list[str] | None = None,
    host: Mapping[str, Any] | None = None,
) -> str:
    """Digest of one tuning decision's full context.

    ``backends`` and ``host`` default to the live environment; tests
    pass explicit values to prove invalidation.
    """
    payload = canonical_json(
        {
            "model": signature,
            "shape": list(shape),
            "batch": int(batch),
            "backends": sorted(backends if backends is not None else available_backends()),
            "host": dict(host if host is not None else host_metadata()),
            "schema": TUNING_SCHEMA,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _slug(label: str) -> str:
    """Filesystem-safe rendering of an entry label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "model"


@dataclasses.dataclass(frozen=True)
class TuningEntry:
    """One cached tuning decision.

    Attributes:
        fingerprint: The key digest the entry was stored under.
        shape: Tuned (C, H, W) request shape.
        batch: Offered batch ceiling the search assumed.
        winner: The measured-best configuration.
        default: The configuration the untuned path would have used.
        speedup: Default-over-winner median-time ratio on fresh samples
            taken after the search picked the winner (1.0 when the
            default won, or when the pick lost that re-time).
        trials: Per-candidate measurement records (spec, label, median
            seconds, parity verdict) — the search's audit trail.
    """

    fingerprint: str
    shape: tuple[int, ...]
    batch: int
    winner: TunedConfig
    default: TunedConfig
    speedup: float
    trials: list[dict] = dataclasses.field(default_factory=list)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "schema": TUNING_SCHEMA,
            "fingerprint": self.fingerprint,
            "shape": list(self.shape),
            "batch": self.batch,
            "winner": self.winner.to_jsonable(),
            "default": self.default.to_jsonable(),
            "speedup": self.speedup,
            "trials": self.trials,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TuningEntry":
        if int(payload.get("schema", -1)) != TUNING_SCHEMA:
            raise ValueError(f"tuning entry schema mismatch: {payload.get('schema')!r}")
        return cls(
            fingerprint=str(payload["fingerprint"]),
            shape=tuple(int(x) for x in payload["shape"]),
            batch=int(payload["batch"]),
            winner=TunedConfig.from_dict(payload["winner"]),
            default=TunedConfig.from_dict(payload["default"]),
            speedup=float(payload["speedup"]),
            trials=list(payload.get("trials", [])),
        )


class TuningCache:
    """Filesystem store of tuning entries keyed by fingerprint.

    Files live flat under ``root`` as ``<label>--<fingerprint>.json``
    (the weight cache's naming); the label is cosmetic, only the
    fingerprint identifies an entry.
    """

    def __init__(self, root: str | pathlib.Path | None = None) -> None:
        # Resolved at call time (not def time) so the env override and
        # tests repointing the default both take effect.
        self.root = pathlib.Path(root) if root is not None else tuning_root()

    def path_for(self, label: str, digest: str) -> pathlib.Path:
        return self.root / f"{_slug(label)}--{digest}.json"

    # ------------------------------------------------------------------
    def load(self, label: str, digest: str) -> TuningEntry | None:
        """The cached entry for a fingerprint, or None on a miss.

        Any file carrying the digest hits (labels are cosmetic);
        corrupt or mismatched files degrade to a miss, mirroring the
        artifact and weight stores.
        """
        preferred = self.path_for(label, digest)
        candidates = [preferred] if preferred.exists() else []
        candidates += [p for p in self.root.glob(f"*--{digest}.json") if p != preferred]
        for path in candidates:
            try:
                payload = json.loads(path.read_text())
                entry = TuningEntry.from_dict(payload)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if entry.fingerprint == digest:
                return entry
        return None

    def store(self, label: str, entry: TuningEntry) -> pathlib.Path:
        """Save one entry atomically (temp file + rename) under its key."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(label, entry.fingerprint)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry.to_jsonable(), sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
        return path
