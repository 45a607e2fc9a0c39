"""Process-communication layer: shared-memory transport + deterministic reduce.

``repro.comms`` is what the repo's multi-process subsystems have in
common, factored out so neither owns it:

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
broadcasts, per-grain gradients).  Both inherit the same hygiene
contract: segments are created and unlinked by exactly one owner
process, and :func:`active_segments` must be empty after teardown.
"""

from .reduce import flatten_arrays, tree_reduce, unflatten_into
from .shm import RingClient, ShmRing, active_segments

__all__ = [
    "ShmRing",
    "RingClient",
    "active_segments",
    "tree_reduce",
    "flatten_arrays",
    "unflatten_into",
]
