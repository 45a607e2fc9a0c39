"""Tests for the spawned worker pool (repro.comms.pool)."""

import multiprocessing
import time

import pytest

from repro.comms import WorkerDied, WorkerPool, spawn_context

NAME = "test-pool"


# Module-level, hence spawn-picklable, worker bodies.
def _scale_setup(rank, scale, delay=0.0):
    time.sleep(delay)

    def handle(task):
        if task == "fail":
            raise ValueError("task failed")
        if task == "sleep":
            time.sleep(1.0)
        return rank, task * scale

    return handle


def _failing_setup(rank):
    raise ValueError(f"setup of rank {rank} failed")


def _pool_children():
    return [p for p in multiprocessing.active_children() if p.name.startswith(NAME)]


@pytest.fixture
def pool():
    pool = WorkerPool(NAME, 2, _scale_setup, (10,))
    yield pool
    pool.close()


class TestSpawnContext:
    def test_spawn_start_method(self):
        context = spawn_context()
        assert isinstance(context, multiprocessing.context.SpawnContext)
        assert context.get_start_method() == "spawn"


class TestHandshake:
    def test_construction_waits_until_every_rank_is_ready(self):
        started = time.perf_counter()
        pool = WorkerPool(NAME, 2, _scale_setup, (10, 0.6))
        try:
            built = time.perf_counter() - started
            assert pool.alive() == 2
            started = time.perf_counter()
            for rank in (0, 1):
                pool.send(rank, 3)
            answers = [pool.receive(rank) for rank in (0, 1)]
            first_round_trip = time.perf_counter() - started
        finally:
            pool.close()
        assert answers == [(0, 30), (1, 30)]
        assert built >= 0.6
        assert first_round_trip < 0.6, "the first task must not pay for setup"

    def test_failed_setup_fails_construction_and_stops_every_rank(self):
        with pytest.raises(RuntimeError, match=r"worker 0: ValueError: setup of rank 0 failed"):
            WorkerPool(NAME, 2, _failing_setup)
        assert _pool_children() == []


class TestTasks:
    @pytest.mark.smoke
    def test_round_trip_per_rank(self, pool):
        for rank in (0, 1):
            pool.send(rank, rank + 1)
        assert [pool.receive(rank) for rank in (0, 1)] == [(0, 10), (1, 20)]

    def test_err_reply_raises_and_the_rank_serves_on(self, pool):
        pool.send(1, "fail")
        with pytest.raises(RuntimeError, match=r"worker 1: ValueError: task failed"):
            pool.receive(1)
        pool.send(1, 5)
        assert pool.receive(1) == (1, 50)

    def test_deadline_raises_timeout(self, pool):
        pool.send(0, "sleep")
        with pytest.raises(TimeoutError):
            pool.receive(0, deadline=time.monotonic() + 0.2)

    def test_cancelled_wait_raises_interrupted(self, pool):
        pool.send(0, "sleep")
        with pytest.raises(InterruptedError):
            pool.receive(0, cancelled=lambda: True)


class TestFaults:
    def test_crash_raises_worker_died_with_exit_code_17(self, pool):
        pool.crash(0)
        with pytest.raises(WorkerDied) as info:
            pool.receive(0)
        assert (info.value.rank, info.value.exitcode) == (0, 17)
        assert pool.alive() == 1

    def test_respawn_returns_before_ready_and_next_receive_waits_for_it(self):
        pool = WorkerPool(NAME, 1, _scale_setup, (10, 1.0))
        try:
            pool.crash(0)
            with pytest.raises(WorkerDied):
                pool.receive(0)
            started = time.perf_counter()
            pool.respawn(0)
            assert time.perf_counter() - started < 1.0
            pool.send(0, 4)
            assert pool.receive(0) == (0, 40)
            assert pool.alive() == 1
        finally:
            pool.close()

    def test_close_twice_is_a_no_op_and_leaves_no_process(self, pool):
        pool.crash(1)
        with pytest.raises(WorkerDied):
            pool.receive(1)
        pool.respawn(1)
        pool.close()
        pool.close()
        assert pool.alive() == 0
        assert _pool_children() == []
