"""Spawned worker processes with a ready handshake: one lifecycle for both engines.

The process-sharded server (:mod:`repro.serving.cluster`) and the
data-parallel trainer (:mod:`repro.train.parallel`) run one spawned
process per rank and talk to it in the same way; this module owns that
lifecycle so each engine keeps only its worker body and its policy for
a dead worker.

Protocol, per rank (one task queue, one reply queue)::

    child:   handle = setup(rank, *args)   ──▶ ("ready",)    | ("err", msg)
             for each task until None:     ──▶ ("ok", handle(task)) | ("err", msg)

``setup`` builds the worker's model (and whatever else it needs) once;
the ``handle`` it returns answers every task.  A worker fault becomes an
``err`` reply — never a hang — and :meth:`WorkerPool.receive` raises it
as :class:`RuntimeError`.  A process that exits while its rank is
awaited raises :class:`WorkerDied` instead.

Construction starts every rank before waiting on any, then blocks until
each has sent ``ready``: a setup error or a dead child fails the
constructor, not the first task.  :meth:`WorkerPool.respawn` does not
wait — the next :meth:`WorkerPool.receive` on that rank takes the ready
message first — so a caller may respawn while holding a lock.

Workers come from the spawn context (:func:`spawn_context`): they start
from a fresh interpreter on every platform, so everything they need
travels in ``setup``'s pickled arguments, and tensors travel through
:mod:`repro.comms.shm`, never through these queues.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing.context
import os
import queue
import time
from collections.abc import Callable
from typing import Any

__all__ = ["WorkerPool", "WorkerDied", "spawn_context"]

#: How often a waiting :meth:`WorkerPool.receive` checks liveness,
#: cancellation and its deadline.
_POLL_S = 0.05
#: Grace for a process to exit on its sentinel before it is terminated.
_JOIN_S = 10.0
#: The fault-injection task: the child dies via ``os._exit(17)``.
_CRASH = "crash"

#: One rank's process with its task and reply queues.
_Worker = collections.namedtuple("_Worker", ("process", "tasks", "replies"))


def spawn_context() -> multiprocessing.context.SpawnContext:
    """The multiprocessing spawn context every repro worker pool uses.

    Spawn (not fork) so workers start from identical interpreter state
    on every platform; deterministic behavior then comes from explicit
    seeding (:func:`repro.experiments.spawn.worker_seed`), not from
    accidentally inherited parent state.
    """
    return multiprocessing.get_context("spawn")


class WorkerDied(RuntimeError):
    """A worker process exited while its rank was being awaited."""

    def __init__(self, rank: int, exitcode: int | None) -> None:
        super().__init__(f"worker {rank} died (exit code {exitcode})")
        self.rank = rank
        self.exitcode = exitcode


def _child_main(rank: int, setup: Callable, args: tuple, tasks, replies) -> None:
    """Entry point of one spawned worker: setup, ready, then the task loop.

    The ``_CRASH`` task exits at a point where the child holds no queue
    lock, which is what a segfault mid-task looks like to the parent.
    """
    try:
        handle = setup(rank, *args)
    except Exception as exc:  # reported as the ready reply, never a hang
        replies.put(("err", f"{type(exc).__name__}: {exc}"))
        return
    replies.put(("ready",))
    for task in iter(tasks.get, None):
        if task == _CRASH:
            os._exit(17)
        try:
            replies.put(("ok", handle(task)))
        except Exception as exc:  # worker faults become data, never hangs
            replies.put(("err", f"{type(exc).__name__}: {exc}"))


def _release(worker: _Worker) -> None:
    """Reap a worker's process and close its queues without flushing them."""
    worker.process.join(_JOIN_S)
    if worker.process.is_alive():
        worker.process.terminate()
        worker.process.join(_JOIN_S)
    for channel in (worker.tasks, worker.replies):
        channel.close()
        channel.cancel_join_thread()


class WorkerPool:
    """One spawned process per rank, each serving tasks after a ready handshake.

    Args:
        name: Process name prefix (processes are ``<name>-<rank>``).
        ranks: Number of worker processes.
        setup: Picklable ``setup(rank, *args) -> handle`` run once in
            each child; ``handle(task)`` answers one task there.
        args: Picklable extra arguments for ``setup``.

    Blocks until every rank is ready; raises :class:`RuntimeError` if a
    ``setup`` raised, :class:`WorkerDied` if a child died first, and
    whatever pickling raised if ``setup`` or ``args`` cannot be sent —
    in each case with every started process already stopped.

    Each rank carries one outstanding task at a time, and only one
    thread may receive on a rank; different ranks may be driven from
    different threads.
    """

    def __init__(self, name: str, ranks: int, setup: Callable, args: tuple = ()) -> None:
        self._context = spawn_context()
        self._name = name
        self._setup = setup
        self._args = tuple(args)
        self._workers: list[_Worker] = []
        try:
            for rank in range(ranks):
                self._workers.append(self._start(rank))
            for rank in range(ranks):
                self._reply(rank, None, None)  # the ready message
        except BaseException:
            self.close()
            raise

    def send(self, rank: int, task: Any) -> None:
        """Queue one task for ``rank``; its answer comes from :meth:`receive`."""
        self._workers[rank].tasks.put(task)

    def receive(
        self, rank: int, deadline: float | None = None, cancelled: Callable | None = None
    ) -> Any:
        """Wait for ``rank``'s answer to its task and return it.

        Args:
            deadline: ``time.monotonic()`` value after which to give up
                with :class:`TimeoutError`.
            cancelled: Polled while waiting; once it returns True the
                wait ends with :class:`InterruptedError`.

        Raises :class:`WorkerDied` if the process exits first, and
        :class:`RuntimeError` with the worker's message on an ``err``
        reply (including a respawned worker's failed setup).
        """
        while (reply := self._reply(rank, deadline, cancelled))[0] == "ready":
            pass  # a respawned rank came up; its answer follows
        return reply[1]

    def crash(self, rank: int) -> None:
        """Fault injection: ``rank`` exits with code 17 when it dequeues this,
        after any task already sent to it."""
        self._workers[rank].tasks.put(_CRASH)

    def respawn(self, rank: int) -> None:
        """Replace ``rank``'s process with a fresh one, without waiting for it.

        The old process is stopped and its queues abandoned, so a
        half-written reply is never read; the next :meth:`receive` on
        ``rank`` takes the new process's ready message first.
        """
        old = self._workers[rank]
        self._workers[rank] = self._start(rank)
        old.process.terminate()
        _release(old)

    def alive(self) -> int:
        """How many worker processes are running."""
        return sum(1 for worker in self._workers if worker.process.is_alive())

    def close(self) -> None:
        """Stop every worker: sentinel, join, terminate stragglers (idempotent)."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.tasks.put(None)
        for worker in workers:
            _release(worker)

    def _start(self, rank: int) -> _Worker:
        tasks, replies = self._context.Queue(), self._context.Queue()
        process = self._context.Process(
            target=_child_main,
            args=(rank, self._setup, self._args, tasks, replies),
            name=f"{self._name}-{rank}",
            daemon=True,
        )
        process.start()
        return _Worker(process, tasks, replies)

    def _reply(self, rank: int, deadline: float | None, cancelled: Callable | None) -> tuple:
        """The next message from ``rank``, watching liveness while waiting."""
        worker = self._workers[rank]
        exited = False
        while True:
            with contextlib.suppress(queue.Empty):
                reply = worker.replies.get(timeout=_POLL_S)
                break
            if exited:
                raise WorkerDied(rank, worker.process.exitcode)
            if cancelled is not None and cancelled():
                raise InterruptedError(f"wait on worker {rank} cancelled")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"worker {rank} did not answer in time")
            # A child flushes its queue before it exits, so one more read
            # after it is seen dead gets anything it sent (a failed setup).
            exited = not worker.process.is_alive()
        if reply[0] == "err":
            raise RuntimeError(f"worker {rank}: {reply[1]}")
        return reply
