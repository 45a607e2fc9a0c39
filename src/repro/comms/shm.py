"""Shared-memory slot rings: zero-pickle tensor transport between processes.

Every multi-process subsystem that moves arrays between a parent and
its spawn workers uses this module: the process-sharded server
(:mod:`repro.serving.cluster`) carries request/response images through
it, and the data-parallel trainer (:mod:`repro.train.parallel`) carries
weight broadcasts and per-grain gradients.  Pickling a float64 array
costs a full serialize/deserialize copy through a pipe, which at
serving or per-step training rates dwarfs the GEMM work for small
payloads.  Instead, one :class:`ShmRing` carves a single
``multiprocessing.shared_memory`` segment into fixed-size *slots*; only
tiny descriptors (slot indices, shapes) ever cross a queue.

Slot lifecycle (one request, happy path)::

    router:  acquire() ──▶ put_array(slot, 0, request)
                            │  descriptor via worker task queue
    worker:  get_array(slot, 0, req_shape)      # copy out, compute
             put_array(slot, response_offset(req), response)
                            │  descriptor via response queue
    router:  get_array(slot, response_offset(req), resp_shape)
             release(slot)

The response region starts *after* the request payload
(:func:`ShmRing.response_offset`), so the request bytes stay intact
until the router frees the slot — this is what makes worker-crash
retry safe: a re-sent descriptor finds the original request
payload untouched, and a slot is released exactly once, by whoever
resolves the request.

**Ownership and hygiene.**  The creating process (the router) owns the
segment: only it may :meth:`~ShmRing.destroy` (close + unlink) it.
Worker-side :class:`RingClient` attachments deliberately unregister
from the ``resource_tracker`` so a worker's exit — clean or crashed —
never unlinks a segment out from under the cluster.  Every live
owner-created segment is recorded in a module registry;
:func:`active_segments` is the hook the leak tests assert on after
drain, abort and crash paths.
"""

from __future__ import annotations

import threading
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["ShmRing", "RingClient", "active_segments"]

#: Segments created (and not yet destroyed) by this process, by name.
_LIVE_SEGMENTS: set[str] = set()
_LIVE_LOCK = threading.Lock()


def active_segments() -> list[str]:
    """Names of shared-memory segments this process created and still owns.

    The shm-hygiene contract: after a cluster is closed — via drain,
    abort, or crash recovery — this list must be empty.  Tests assert
    on it instead of on garbage collection.
    """
    with _LIVE_LOCK:
        return sorted(_LIVE_SEGMENTS)


def _slot_array(
    buf, slot: int, slot_bytes: int, offset: int, shape: tuple[int, ...], dtype
) -> np.ndarray:
    """A numpy view into one slot's bytes at ``offset`` (no copy)."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if offset < 0 or offset + nbytes > slot_bytes:
        raise ValueError(
            f"array of {nbytes} bytes at offset {offset} does not fit a "
            f"{slot_bytes}-byte slot"
        )
    start = slot * slot_bytes + offset
    return np.ndarray(shape, dtype=dtype, buffer=buf, offset=start)


class _RingBase:
    """Array access shared by the owner (:class:`ShmRing`) and workers
    (:class:`RingClient`); subclasses own attachment and lifecycle."""

    _shm: shared_memory.SharedMemory
    slots: int
    slot_bytes: int

    def put_array(self, slot: int, offset: int, array: np.ndarray) -> int:
        """Copy ``array``'s bytes into ``slot`` at ``offset``; returns the
        end offset (where a following payload may start)."""
        self._check_slot(slot)
        array = np.ascontiguousarray(array)
        view = _slot_array(self._shm.buf, slot, self.slot_bytes, offset, array.shape, array.dtype)
        view[...] = array
        return offset + array.nbytes

    def get_array(
        self, slot: int, offset: int, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Copy an array of ``shape``/``dtype`` out of ``slot`` at ``offset``."""
        self._check_slot(slot)
        return _slot_array(self._shm.buf, slot, self.slot_bytes, offset, tuple(shape), dtype).copy()

    @staticmethod
    def response_offset(request_shape: tuple[int, ...], dtype=np.float64) -> int:
        """Where a response payload starts: just past the request bytes.

        Fixed by the request alone (not the response), so a retry after
        a worker crash recomputes the same offset and the request bytes
        below it are never clobbered.
        """
        return int(np.prod(request_shape, dtype=np.int64)) * np.dtype(dtype).itemsize

    def fits(self, request_shape: tuple[int, ...], response_shape: tuple[int, ...],
             dtype=np.float64) -> bool:
        """Whether a request and its response fit one slot together."""
        itemsize = np.dtype(dtype).itemsize
        need = (
            int(np.prod(request_shape, dtype=np.int64))
            + int(np.prod(response_shape, dtype=np.int64))
        ) * itemsize
        return need <= self.slot_bytes

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range [0, {self.slots})")

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name


class ShmRing(_RingBase):
    """Owner side of a slot ring: allocates the segment and the free list.

    Args:
        slots: Number of fixed-size slots.  The cluster sizes this to
            its admission limit, so "a slot is free" and "the request
            was admitted" are the same event.
        slot_bytes: Capacity of one slot; must hold one request payload
            plus its response payload (see :meth:`fits`).

    Thread-safe: ``acquire``/``release`` may be called from the client
    threads and the collector thread concurrently.
    """

    def __init__(self, slots: int, slot_bytes: int) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        if slot_bytes <= 0:
            raise ValueError("slot_bytes must be positive")
        self.slots = slots
        self.slot_bytes = int(slot_bytes)
        self._shm = shared_memory.SharedMemory(create=True, size=slots * self.slot_bytes)
        self._lock = threading.Lock()
        self._free_changed = threading.Condition(self._lock)
        self._free: list[int] = list(range(slots))[::-1]  # pop() hands out slot 0 first
        self._destroyed = False
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.add(self._shm.name)

    # ------------------------------------------------------------------
    def acquire(self, timeout: float | None = 0.0) -> int | None:
        """Claim a free slot; ``None`` when none frees up within ``timeout``.

        ``timeout=0`` (the default) never blocks — the admission
        controller's probe; ``timeout=None`` waits indefinitely.
        """
        with self._lock:
            if timeout is None or timeout > 0.0:
                self._free_changed.wait_for(
                    lambda: self._free or self._destroyed, timeout=timeout
                )
            if self._destroyed or not self._free:
                return None
            return self._free.pop()

    def release(self, slot: int) -> None:
        """Return a slot to the free list (exactly once per acquire)."""
        self._check_slot(slot)
        with self._lock:
            if self._destroyed:
                return
            if slot in self._free:
                raise ValueError(f"slot {slot} released twice")
            self._free.append(slot)
            self._free_changed.notify()

    def free_slots(self) -> int:
        """How many slots are currently unclaimed."""
        with self._lock:
            return len(self._free)

    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Close and unlink the segment (idempotent; owner only).

        After this, every attached :class:`RingClient` still holds a
        valid mapping (POSIX keeps the memory alive until the last
        close), but the name is gone and the hygiene registry no longer
        lists the segment.
        """
        with self._lock:
            if self._destroyed:
                return
            self._destroyed = True
            self._free_changed.notify_all()
        self._shm.close()
        self._shm.unlink()
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.discard(self._shm.name)

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    Attaching normally *registers* the name (Python 3.11 registers on
    both create and attach), but spawn children share the parent's
    tracker process and its cache is a set — a child's later
    *unregister* would therefore delete the owner's entry and make the
    owner's ``unlink`` trip a tracker ``KeyError``.  Suppressing the
    registration at attach time keeps the tracker's view exactly "one
    entry per segment, owned by its creator".
    """
    original_register = resource_tracker.register

    def _skip_shared_memory(resource_name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - not hit for shm
            original_register(resource_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class RingClient(_RingBase):
    """Worker-side attachment to an existing ring (no lifecycle ownership).

    The attachment is never registered with the ``resource_tracker``
    (see :func:`_attach_untracked`): the router owns the segment, and a
    worker exit — including ``os._exit`` after a crash injection — must
    never unlink it or corrupt the tracker's accounting.
    """

    def __init__(self, name: str, slots: int, slot_bytes: int) -> None:
        self.slots = slots
        self.slot_bytes = int(slot_bytes)
        self._shm = _attach_untracked(name)

    def close(self) -> None:
        """Drop this attachment (the owner's segment lives on)."""
        self._shm.close()

    def __enter__(self) -> "RingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
