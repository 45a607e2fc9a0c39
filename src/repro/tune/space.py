"""The autotuner's configuration space: backend spec x tile x micro-batch.

A :class:`TunedConfig` names one point of the space the tuner searches
— the three scheduling knobs every inference path in the repo already
exposes (:class:`~repro.nn.inference.Predictor` takes all three as
constructor arguments).  None of them changes result bytes:

* **backend spec** — registered backends are bit-parity with
  :class:`~repro.nn.backend.NumpyBackend` by contract (PR 3);
* **micro-batch** — batching is bit-exact on every backend (splitting
  along the batch axis runs the very same per-slice GEMMs);
* **tile** — regroups which pixels are computed together; the tuner's
  parity guard (:mod:`repro.tune.tuner`) measures every candidate
  against the default configuration's bytes and discards any whose
  geometry change would reassociate a BLAS reduction, so cached winners
  are bit-identical by construction, not by hope.

:func:`candidate_space` enumerates the space deterministically — same
model, shape, batch and registered backends always yield the same
candidate list in the same order, default first — which is what makes
the measured trial schedule replayable.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import Any

from ..nn.backend import (
    available_backends,
    current_backend,
    default_backend,
    get_backend,
    usable_cpu_count,
)
from ..nn.inference import DEFAULT_TILE, plan_for_model
from ..nn.module import Module

__all__ = ["TunedConfig", "bucket_batch", "candidate_space", "default_config"]

#: Tile-edge candidates before divisor rounding; DEFAULT_TILE is always
#: added so the untuned geometry is always in the race.
_TILE_CANDIDATES = (24, 32, 48, 64, 96)

#: Per-backend samples-per-block candidates for ``blocked``.
_BLOCK_ARGS = (1, 4)


@dataclasses.dataclass(frozen=True)
class TunedConfig:
    """One point of the search space (a schedule, never semantics).

    Attributes:
        backend: Kernel backend spec string (``name[:arg]``), or None
            for the ambient-backend default.
        tile: Tile edge handed to :func:`~repro.nn.inference.plan_for_model`
            (the model-derived halo/scale/divisor stay authoritative).
        batch_size: Micro-batch size — images (or tile crops) per
            forward pass, and the serving flush threshold.
    """

    backend: str | None
    tile: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.tile <= 0:
            raise ValueError("tile must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def label(self) -> str:
        """Compact human rendering (used in trial tables and logs)."""
        return f"{self.backend or 'ambient'}/tile{self.tile}/mb{self.batch_size}"

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "tile": self.tile,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TunedConfig":
        backend = payload.get("backend")
        return cls(
            backend=str(backend) if backend is not None else None,
            tile=int(payload["tile"]),
            batch_size=int(payload["batch_size"]),
        )


def bucket_batch(batch: int) -> int:
    """Round a batch ceiling up to the next power of two (min 1).

    Tuning keys quantize the offered batch so a Predictor built with
    ``batch_size=6`` and one built with ``batch_size=8`` share a cache
    entry instead of each forcing a fresh search.
    """
    if batch < 1:
        raise ValueError("batch must be positive")
    bucket = 1
    while bucket < batch:
        bucket *= 2
    return bucket


def default_config(model: Module, batch: int, tile: int | None = None) -> TunedConfig:
    """The configuration the untuned path would use for this model.

    ``backend=None`` (the ambient-backend precedence), the model-derived
    default tiling plan, and the offered batch as the micro-batch.
    """
    plan = plan_for_model(model, tile=tile if tile is not None else DEFAULT_TILE)
    return TunedConfig(backend=None, tile=plan.tile, batch_size=batch)


def _backend_candidates() -> list[str]:
    """Deterministic backend spec candidates from the live registry.

    One spec per registered name, parameterized for this host: the
    threaded backend gets the usable-CPU worker count (min 2, so its
    chunked path is in the race even on one core), the blocked backend
    gets the fixed block candidates.  Unregistered names never
    appear, so a winner is always constructible where it was measured.
    """
    specs: list[str] = []
    for name in available_backends():  # sorted by contract
        if name == "threaded":
            specs.append(f"threaded:{max(2, usable_cpu_count())}")
        elif name == "blocked":
            specs.extend(f"blocked:{block}" for block in _BLOCK_ARGS)
        else:
            specs.append(name)
    return specs


def _is_ambient(spec: str) -> bool:
    """Whether ``spec`` names the backend ``backend=None`` resolves to on
    this thread: the same shared instance, or ``numpy`` for the process
    default.  Timing both would time one schedule twice."""
    ambient = current_backend()
    return get_backend(spec) is ambient or (spec == "numpy" and ambient is default_backend())


def _micro_batches(batch: int) -> list[int]:
    """Powers of two up to (and including) the offered batch bucket."""
    ceiling = bucket_batch(batch)
    sizes = []
    size = 1
    while size <= ceiling:
        sizes.append(size)
        size *= 2
    return sizes


def candidate_space(
    model: Module, shape: tuple[int, ...], batch: int
) -> list[TunedConfig]:
    """Enumerate the deterministic candidate list for one tuning key.

    Tile candidates are rounded onto the model's divisor grid and
    deduplicated by the :meth:`~repro.nn.inference.TilingPlan.grid` they
    cut the request shape into: tiles with equal grids run identical
    crops (e.g. every tile >= the image runs the same batched path; 32
    and 48 both cut 64 px into 2 x 32), so varying between them only
    bloats the trial schedule.  The default tile is kept for its grid,
    and the default configuration is always element 0.  For the same
    reason the explicit spec that the ambient backend (``None``)
    resolves to is left out: ``numpy`` when no backend is selected.
    """
    if len(shape) != 3:
        raise ValueError(f"expected a (C, H, W) request shape, got {shape}")
    base = default_config(model, batch)
    h, w = int(shape[1]), int(shape[2])
    grids: dict[tuple[int, int, int, int], int] = {}
    for tile in (base.tile, *_TILE_CANDIDATES):
        plan = plan_for_model(model, tile=tile)
        grids.setdefault(plan.grid(h, w), plan.tile)
    tiles = list(grids.values())
    candidates = [base]
    specs = [spec for spec in _backend_candidates() if not _is_ambient(spec)]
    for backend in [None, *specs]:
        for tile in tiles:
            for micro in _micro_batches(batch):
                config = TunedConfig(backend=backend, tile=tile, batch_size=micro)
                if config != base:
                    candidates.append(config)
    return candidates
