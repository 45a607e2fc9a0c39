"""Process-communication layer: worker pool, shared-memory transport, reduce.

``repro.comms`` is what the repo's multi-process subsystems have in
common, factored out so neither owns it:

* :mod:`repro.comms.pool` — :class:`WorkerPool`, the one lifecycle of
  spawned worker processes (ready handshake, task loop, liveness,
  respawn, fault injection, shutdown), plus :func:`spawn_context`.
* :mod:`repro.comms.shm` — shared-memory slot rings
  (:class:`ShmRing` / :class:`RingClient`): fixed-size slots carved out
  of one ``multiprocessing.shared_memory`` segment, so tensors cross
  process boundaries as raw bytes while only tiny descriptors travel
  through queues.
* :mod:`repro.comms.reduce` — :func:`tree_reduce`, the fixed-order
  pairwise summation behind the trainer's deterministic gradient
  all-reduce, plus the flat-vector packing helpers
  (:func:`flatten_arrays` / :func:`unflatten_into`) gradients and
  weight broadcasts travel in.

Consumers: :class:`repro.serving.ShardedInferenceServer` (request and
response images) and :class:`repro.train.ParallelTrainEngine` (weight
broadcasts, per-grain gradients).  Each keeps only its worker body and
its policy for a dead worker: the server respawns and re-sends, the
trainer fails the step.  Both inherit the same hygiene contract:
segments are created and unlinked by exactly one owner process, and
:func:`active_segments` must be empty after teardown.
"""

from .pool import WorkerDied, WorkerPool, spawn_context
from .reduce import flatten_arrays, tree_reduce, unflatten_into
from .shm import RingClient, ShmRing, active_segments

__all__ = [
    "WorkerPool",
    "WorkerDied",
    "spawn_context",
    "ShmRing",
    "RingClient",
    "active_segments",
    "tree_reduce",
    "flatten_arrays",
    "unflatten_into",
]
