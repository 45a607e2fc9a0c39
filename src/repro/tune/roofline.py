"""Analytic (roofline-style) seeding of the autotuner's search.

Measuring every point of the backend x tile x micro-batch space is
wasteful — most candidates are obviously bad.  This module ranks them
*before* any clock starts, reusing the two analytic models the repo
already trusts:

* :func:`repro.hardware.throughput.cycles_per_pixel` supplies the
  compute intensity of the model (engine passes per output pixel, the
  paper's Section VI-B scheduling metric) — the **compute roof**;
* :class:`repro.hardware.cost.CostModel` prices the im2col working set
  of one micro-batch against a nominal on-chip SRAM budget — candidates
  whose working set spills past the budget pay a bandwidth penalty, the
  **memory roof**.

On top of those rooflines sit the three schedule-dependent factors the
knobs actually control: halo recompute overhead (smaller tiles redo
more border context), per-forward dispatch overhead (smaller
micro-batches amortize less), and backend parallel efficiency (an
Amdahl-style speedup for the threaded backend, capped by usable CPUs).

Scores are *relative* costs for ranking only — lower is better, the
absolute scale is meaningless, and measured trials (not this model)
pick the final winner.  The function is pure and deterministic: equal
inputs always produce equal scores, which keeps the seeded trial
schedule replayable.
"""

from __future__ import annotations

import math

from ..hardware.cost import CostModel
from ..hardware.throughput import cycles_per_pixel, layers_of_model
from ..nn.backend import usable_cpu_count
from ..nn.inference import plan_for_model
from ..nn.module import Module
from .space import TunedConfig

__all__ = ["analytic_cost", "rank_candidates"]

#: Nominal on-chip buffer budget the blocked/threaded working sets are
#: judged against, in KB (a few MB of L2/LLC share per core).
_SRAM_BUDGET_KB = 2048.0

#: Relative cost of one forward-call dispatch (python + graph overhead)
#: in per-pixel work units; amortized over the micro-batch.
_DISPATCH_OVERHEAD = 4096.0

#: Fraction of the hot path that parallelizes across backend threads
#: (Amdahl's law serial remainder covers im2col copies and dispatch).
_PARALLEL_FRACTION = 0.85


def _parallel_speedup(jobs: int) -> float:
    """Amdahl-style attainable speedup of ``jobs`` threads on this host."""
    effective = max(1, min(jobs, usable_cpu_count()))
    return 1.0 / ((1.0 - _PARALLEL_FRACTION) + _PARALLEL_FRACTION / effective)


def _backend_factor(backend: str | None) -> float:
    """Relative compute-time multiplier of a backend spec (1.0 = reference)."""
    if backend is None:
        return 1.0
    name, _, arg = backend.partition(":")
    name = name.strip().lower()
    if name == "threaded":
        jobs = int(arg) if arg else usable_cpu_count()
        # A small, hand-set chunking bonus applies even single-core: the
        # per-group im2col working set shrinks below the monolithic
        # path's, which the SRAM term below cannot see because it
        # prices the whole micro-batch.
        return 0.95 / _parallel_speedup(jobs)
    return 1.0  # numpy, and blocked's memory shaping (priced by the SRAM term)


def analytic_cost(
    model: Module,
    shape: tuple[int, ...],
    batch: int,
    config: TunedConfig,
    cost_model: CostModel | None = None,
) -> float:
    """Relative cost estimate of serving ``batch`` images of ``shape``.

    Lower is better.  Deterministic in its inputs; see the module
    docstring for the terms.
    """
    cost_model = cost_model if cost_model is not None else CostModel()
    channels, h, w = (int(x) for x in shape)
    plan = plan_for_model(model, tile=config.tile)
    layers = layers_of_model(model)
    intensity = cycles_per_pixel(layers) if layers else 1.0

    # Compute roof: pixels actually convolved, halo recompute included,
    # on the same balanced grid the Predictor cuts.
    th, tw, crop_h, crop_w = plan.grid(h, w)
    crops = math.ceil(h / th) * math.ceil(w / tw)
    pixels = batch * crops * crop_h * crop_w
    compute = pixels * intensity

    # Memory roof: price one micro-batch's im2col working set against
    # the SRAM budget; spilling costs proportionally more "cycles".
    kernel_terms = sum(
        layer.in_channels * layer.kernel_size**2 for layer in layers
    ) or channels * 9
    widest = max(kernel_terms, 1) / max(len(layers), 1)
    working_set_kb = (
        config.batch_size * widest * crop_h * crop_w * 8.0 / 1024.0
    )
    budget = cost_model.sram(_SRAM_BUDGET_KB)
    spill = max(1.0, working_set_kb / _SRAM_BUDGET_KB)
    # energy_pj scales with capacity touched; normalize by the budget's
    # own energy so the term stays a dimensionless multiplier.
    memory_factor = 1.0 + 0.25 * (spill - 1.0) * (
        cost_model.sram(min(working_set_kb, 8 * _SRAM_BUDGET_KB)).energy_pj
        / budget.energy_pj
    )

    # Dispatch overhead: forwards needed to cover the crop jobs.
    jobs = batch * crops
    forwards = math.ceil(jobs / config.batch_size)
    dispatch = forwards * _DISPATCH_OVERHEAD

    return (compute * memory_factor + dispatch) * _backend_factor(config.backend)


def rank_candidates(
    model: Module,
    shape: tuple[int, ...],
    batch: int,
    candidates: list[TunedConfig],
    cost_model: CostModel | None = None,
) -> list[tuple[TunedConfig, float]]:
    """Candidates with their analytic costs, cheapest first.

    Ties break on the candidate's label so the order is total and
    deterministic regardless of input order.
    """
    scored = [
        (config, analytic_cost(model, shape, batch, config, cost_model))
        for config in candidates
    ]
    scored.sort(key=lambda pair: (pair[1], pair[0].label()))
    return scored
