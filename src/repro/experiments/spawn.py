"""Spawn-worker plumbing for experiment workers.

Every multi-process feature in the repo — ``python -m repro run
--jobs N``, the process-sharded inference cluster and the
data-parallel trainer — starts workers from the spawn context
(:func:`repro.comms.spawn_context`; the two engines go through
:class:`repro.comms.WorkerPool`).  What they must agree on beyond that
lives here, so no caller re-implements it:

* **Environment inheritance.**  Spawned children inherit
  ``os.environ``, which is how process-wide knobs (``REPRO_BACKEND``,
  ``REPRO_WARM_START``, ``REPRO_WEIGHTS_DIR``) reach workers without
  threading them through every call signature.  :func:`export_env` is
  the one sanctioned way to set them.
* **Deterministic per-worker seeds.**  :func:`worker_seed` derives a
  seed from stable string parts only (crc32, no process state), so a
  worker's randomness is a pure function of *what* it is running, never
  of *when* or *where* — the property behind the serial-vs-parallel
  bit-identity guarantees.

:func:`ensure_registered` rounds this out for experiment workers, which
start from an interpreter where only the pickled entry module has been
imported and must re-import the experiment package to repopulate the
registry.
"""

from __future__ import annotations

import os
import zlib

__all__ = ["ensure_registered", "export_env", "worker_seed"]


def ensure_registered() -> None:
    """Import the experiment package so every module self-registers.

    Needed explicitly in spawn workers, which start from a fresh
    interpreter where only the worker entry module has been imported;
    calling it again in the parent is a no-op (module cache).
    """
    import repro.experiments  # noqa: F401


def export_env(name: str, value: str) -> None:
    """Export a process-wide knob so spawn workers inherit it.

    Environment (not a context manager or argument plumbing) because
    spawned children copy ``os.environ`` at start; precedence stays
    with any context manager active inside the worker code itself
    (cf. ``use_backend`` vs ``REPRO_BACKEND``).
    """
    os.environ[name] = value


def worker_seed(*parts: object) -> int:
    """Deterministic seed for one worker/run, from stable parts only.

    Derived with crc32 over the ``:``-joined string forms, so serial
    and parallel executions (and re-runs in fresh processes) that name
    the same parts get the same seed — the exact formula
    :meth:`repro.experiments.registry.Experiment.seed_for` has used
    since PR 2, hoisted here so cluster workers share it.
    """
    return zlib.crc32(":".join(str(part) for part in parts).encode()) & 0x7FFFFFFF
