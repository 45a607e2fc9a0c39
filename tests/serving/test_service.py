"""Tests for the concurrent micro-batching inference service."""

import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.nn.inference import Predictor
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.serving import (
    InferenceServer,
    ServerClosed,
    ServerOverloaded,
    make_poisson_trace,
    make_workload,
    run_closed_loop,
    run_open_loop,
    serial_reference,
)
from repro.serving.bench import make_bench_model


class SlowIdentity(Module):
    """Identity model with a controllable per-forward delay."""

    def __init__(self, delay_s: float = 0.0, fail: bool = False) -> None:
        super().__init__()
        self.delay_s = delay_s
        self.fail = fail
        self.batch_sizes: list[int] = []
        self._record_lock = threading.Lock()

    def forward(self, x: Tensor) -> Tensor:
        with self._record_lock:
            self.batch_sizes.append(x.shape[0])
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail:
            raise ValueError("injected model failure")
        return x * 1.0


class TestRoundTrip:
    @pytest.mark.smoke
    def test_predict_matches_serial_predictor(self):
        model = make_bench_model(seed=0)
        image = np.random.default_rng(1).standard_normal((1, 16, 16))
        expected = Predictor(model, batch_size=8).predict(image[None])[0]
        with InferenceServer(model, workers=2, max_batch=4) as server:
            out = server.predict(image)
        assert np.array_equal(out, expected)

    def test_input_validation(self):
        with InferenceServer(SlowIdentity(), workers=1) as server, pytest.raises(ValueError):
            server.submit(np.zeros((16, 16)))  # missing channel axis
        with pytest.raises(ValueError):
            InferenceServer(SlowIdentity(), workers=0)
        with pytest.raises(ValueError):
            InferenceServer(SlowIdentity(), max_batch=0)
        with pytest.raises(ValueError):
            InferenceServer(SlowIdentity(), max_wait_ms=-1)
        with pytest.raises(ValueError):
            InferenceServer(SlowIdentity(), queue_depth=0)

    def test_tiled_large_image_request(self):
        model = make_bench_model(seed=2)
        image = np.random.default_rng(3).standard_normal((1, 96, 64))
        expected = Predictor(model, batch_size=8, tile=32).predict(image[None])[0]
        with InferenceServer(model, workers=2, max_batch=4, tile=32) as server:
            out = server.predict(image)
        assert np.array_equal(out, expected)


class TestBitIdentityUnderConcurrency:
    def test_100_concurrent_requests_bit_identical(self):
        """The CI serving-smoke contract: 100 concurrent single-image
        requests from 10 clients come back bit-identical to running the
        Predictor serially on each request alone."""
        model = make_bench_model(seed=0)
        workload = make_workload(10, 10, (1, 16, 16), seed=4)
        reference = serial_reference(Predictor(model, batch_size=8), workload)
        with InferenceServer(model, workers=3, max_batch=8, max_wait_ms=4.0) as server:
            result = run_closed_loop(server, workload)
            stats = server.stats()
        assert result.bit_identical_to(reference)
        assert stats.requests == 100
        assert stats.failed == 0

    def test_mixed_shapes_are_bucketed_and_exact(self):
        model = make_bench_model(seed=0)
        workload = make_workload(
            6, 5, [(1, 16, 16), (1, 24, 24), (1, 16, 32)], seed=5
        )
        reference = serial_reference(Predictor(model, batch_size=8), workload)
        with InferenceServer(model, workers=2, max_batch=4, max_wait_ms=4.0) as server:
            result = run_closed_loop(server, workload)
        assert result.bit_identical_to(reference)

    def test_100_concurrent_compiled_requests_bit_identical(self):
        """The serving side of the compiled-inference contract: a
        ``compiled=True`` server (workers replay shared execution plans)
        returns the same bytes as the serial *eager* Predictor for 100
        concurrent requests — compiling changes latency, never outputs."""
        model = make_bench_model(seed=0)
        workload = make_workload(10, 10, (1, 16, 16), seed=4)
        reference = serial_reference(Predictor(model, batch_size=8), workload)
        with InferenceServer(
            model, workers=3, max_batch=8, max_wait_ms=4.0, compiled=True
        ) as server:
            result = run_closed_loop(server, workload)
            stats = server.stats()
        assert result.bit_identical_to(reference)
        assert stats.requests == 100
        assert stats.failed == 0

    def test_compiled_mixed_shapes_are_bucketed_and_exact(self):
        """Mixed request shapes build one plan per shape bucket; every
        bucket must still match eager bit for bit."""
        model = make_bench_model(seed=0)
        workload = make_workload(6, 5, [(1, 16, 16), (1, 24, 24), (1, 16, 32)], seed=5)
        reference = serial_reference(Predictor(model, batch_size=8), workload)
        with InferenceServer(
            model, workers=2, max_batch=4, max_wait_ms=4.0, compiled=True
        ) as server:
            result = run_closed_loop(server, workload)
        assert result.bit_identical_to(reference)

    def test_batches_are_shape_pure(self):
        """A worker must never stack two request shapes into one batch."""
        model = SlowIdentity(delay_s=0.002)
        shapes = [(1, 8, 8), (1, 12, 12)]
        workload = make_workload(4, 6, shapes, seed=6)
        with InferenceServer(model, workers=2, max_batch=8, max_wait_ms=5.0) as server:
            result = run_closed_loop(server, workload)
        for client, sequence in enumerate(workload.images):
            for k, image in enumerate(sequence):
                assert np.array_equal(result.outputs[client][k], image)


class TestMicroBatching:
    def test_flush_on_max_batch(self):
        """With a generous wait budget, queued same-shape requests
        coalesce into one full micro-batch."""
        model = SlowIdentity()
        with InferenceServer(
            model, workers=1, max_batch=8, max_wait_ms=500.0, queue_depth=64
        ) as server:
            futures = [
                server.submit(np.full((1, 4, 4), float(i))) for i in range(8)
            ]
            for i, future in enumerate(futures):
                assert np.array_equal(future.result(timeout=10), np.full((1, 4, 4), float(i)))
            stats = server.stats()
        assert stats.requests == 8
        assert stats.batches == 1
        assert stats.max_batch_size == 8

    def test_flush_on_deadline(self):
        """A lone request can't wait out the whole batch budget forever."""
        model = SlowIdentity()
        with InferenceServer(model, workers=1, max_batch=64, max_wait_ms=30.0) as server:
            started = time.perf_counter()
            server.predict(np.zeros((1, 4, 4)), timeout=10)
            elapsed = time.perf_counter() - started
            stats = server.stats()
        assert stats.batches == 1 and stats.max_batch_size == 1
        assert elapsed < 5.0

    def test_under_full_batch_flushes_early_for_other_shapes(self):
        """With one worker, an under-full shape bucket must not hold
        other-shape requests hostage for the whole wait budget."""
        model = SlowIdentity(delay_s=0.002)
        with InferenceServer(
            model, workers=1, max_batch=8, max_wait_ms=5000.0
        ) as server:
            started = time.perf_counter()
            future_a = server.submit(np.zeros((1, 4, 4)))
            future_b = server.submit(np.zeros((1, 6, 6)))
            # A's bucket is under-full, but B (another shape) is queued
            # and no idle worker exists: A must flush early, nowhere
            # near its 5s straggler budget.
            future_a.result(timeout=10)
            elapsed_a = time.perf_counter() - started
            assert elapsed_a < 2.0
        # Context exit drains: B (a lone bucket that would otherwise sit
        # out its own wait budget) is flushed by shutdown.
        np.testing.assert_array_equal(future_b.result(timeout=0), np.zeros((1, 6, 6)))

    def test_zero_wait_dispatches_per_request(self):
        model = SlowIdentity()
        with InferenceServer(model, workers=1, max_batch=8, max_wait_ms=0.0) as server:
            server.predict(np.zeros((1, 4, 4)), timeout=10)
            server.predict(np.ones((1, 4, 4)), timeout=10)
            stats = server.stats()
        assert stats.batches == 2


class TestBackpressure:
    def test_reject_when_full(self):
        model = SlowIdentity(delay_s=0.2)
        server = InferenceServer(
            model,
            workers=1,
            max_batch=1,
            max_wait_ms=0.0,
            queue_depth=1,
            reject_when_full=True,
        )
        try:
            futures = []
            with pytest.raises(ServerOverloaded):
                # Worker capacity 1 + queue depth 1: the first two submits
                # can be absorbed; a third within the 200ms service time
                # must bounce.
                for _ in range(3):
                    futures.append(server.submit(np.zeros((1, 4, 4))))
            assert server.stats().rejected >= 1
            for future in futures:
                future.result(timeout=10)
        finally:
            server.close()

    def test_blocking_submit_times_out(self):
        model = SlowIdentity(delay_s=0.2)
        server = InferenceServer(
            model, workers=1, max_batch=1, max_wait_ms=0.0, queue_depth=1
        )
        try:
            futures = [server.submit(np.zeros((1, 4, 4))) for _ in range(2)]
            with pytest.raises(ServerOverloaded):
                # The queue stays full for ~400ms; a 50ms budget expires.
                while True:
                    futures.append(server.submit(np.zeros((1, 4, 4)), timeout=0.05))
            for future in futures:
                future.result(timeout=10)
        finally:
            server.close()

    def test_predict_timeout_sheds_queued_work(self):
        """A timed-out predict cancels its still-queued request instead
        of leaving zombie work for the workers."""
        model = SlowIdentity(delay_s=0.3)
        with InferenceServer(
            model, workers=1, max_batch=1, max_wait_ms=0.0, queue_depth=8
        ) as server:
            blocker = server.submit(np.zeros((1, 4, 4)))  # occupies the worker
            # On py3.10 concurrent.futures.TimeoutError is not the
            # builtin TimeoutError; catch the futures one explicitly.
            with pytest.raises(FutureTimeoutError):
                server.predict(np.ones((1, 4, 4)), timeout=0.05)
            blocker.result(timeout=10)
            forwards_before = len(model.batch_sizes)
            time.sleep(0.4)  # were the zombie queued, the worker would run it
            assert len(model.batch_sizes) == forwards_before

    def test_blocking_submit_waits_for_space(self):
        model = SlowIdentity(delay_s=0.05)
        with InferenceServer(
            model, workers=1, max_batch=1, max_wait_ms=0.0, queue_depth=2
        ) as server:
            futures = [server.submit(np.zeros((1, 4, 4))) for _ in range(6)]
            for future in futures:
                future.result(timeout=10)
            assert server.stats().requests == 6

    def test_admission_count_is_exact_after_contention(self):
        """The admitted-unresolved count must survive many clients, more
        workers than cores and a short switch interval: afterwards the
        server admits exactly ``queue_depth`` requests, no more, no less."""
        model = SlowIdentity()
        depth = 8
        results: list[bool] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InferenceServer(
                model, workers=4, max_batch=3, max_wait_ms=0.5, queue_depth=depth
            ) as server:

                def client(seed: int) -> None:
                    for k in range(25):
                        image = np.full((1, 4, 4), float(100 * seed + k))
                        results.append(np.array_equal(server.predict(image, timeout=30), image))

                clients = [threading.Thread(target=client, args=(i,)) for i in range(8)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in clients)
                model.delay_s = 0.5  # hold every admitted request unresolved
                futures = [server.submit(np.zeros((1, 4, 4)), timeout=0) for _ in range(depth)]
                with pytest.raises(ServerOverloaded):
                    server.submit(np.zeros((1, 4, 4)), timeout=0)
                for future in futures:
                    future.result(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200 and all(results)


class TestShutdown:
    def test_drain_completes_pending_work(self):
        model = SlowIdentity(delay_s=0.02)
        server = InferenceServer(model, workers=1, max_batch=1, max_wait_ms=0.0)
        futures = [server.submit(np.full((1, 4, 4), float(i))) for i in range(5)]
        server.close(drain=True)
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=0), np.full((1, 4, 4), float(i)))

    def test_abort_fails_queued_requests(self):
        model = SlowIdentity(delay_s=0.1)
        server = InferenceServer(model, workers=1, max_batch=1, max_wait_ms=0.0)
        futures = [server.submit(np.zeros((1, 4, 4))) for _ in range(4)]
        time.sleep(0.03)  # let the worker claim the first request
        server.close(drain=False)
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=10)
                outcomes.append("ok")
            except ServerClosed:
                outcomes.append("closed")
        assert "closed" in outcomes  # queued requests were failed fast
        assert outcomes[0] == "ok"  # the claimed request still completed

    def test_submit_after_close_raises(self):
        server = InferenceServer(SlowIdentity(), workers=1)
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(np.zeros((1, 4, 4)))

    def test_close_is_idempotent_and_context_manager_drains(self):
        with InferenceServer(SlowIdentity(), workers=2) as server:
            future = server.submit(np.zeros((1, 4, 4)))
        future.result(timeout=0)
        server.close()  # second close is a no-op


class TestCancellation:
    def test_cancelled_request_is_dropped_and_batchmates_survive(self):
        """Cancelling a queued future must not kill the worker or hang
        the other requests coalesced into the same micro-batch."""
        model = SlowIdentity(delay_s=0.05)
        with InferenceServer(
            model, workers=1, max_batch=4, max_wait_ms=200.0
        ) as server:
            blocker = server.submit(np.zeros((1, 4, 4)))  # occupies the worker
            victim = server.submit(np.full((1, 4, 4), 1.0))
            survivor = server.submit(np.full((1, 4, 4), 2.0))
            assert victim.cancel()
            assert np.array_equal(
                survivor.result(timeout=10), np.full((1, 4, 4), 2.0)
            )
            blocker.result(timeout=10)
            # The worker is still alive and serving after the cancel.
            out = server.predict(np.full((1, 4, 4), 3.0), timeout=10)
        assert np.array_equal(out, np.full((1, 4, 4), 3.0))
        assert victim.cancelled()

    def test_abort_close_tolerates_cancelled_queued_requests(self):
        model = SlowIdentity(delay_s=0.1)
        server = InferenceServer(model, workers=1, max_batch=1, max_wait_ms=0.0)
        futures = [server.submit(np.zeros((1, 4, 4))) for _ in range(4)]
        cancelled = futures[-1].cancel()
        server.close(drain=False)  # must not raise InvalidStateError
        if cancelled:  # the worker usually hasn't reached the last request
            assert futures[-1].cancelled()


class TestErrorsAndStats:
    def test_model_exception_propagates_and_server_survives(self):
        # The failing request is slow and the good one fast: failures
        # stay out of the latency window, so the max is the fast one's.
        delay_s = 0.3
        model = SlowIdentity(delay_s=delay_s, fail=True)
        with InferenceServer(model, workers=1, max_batch=2, max_wait_ms=0.0) as server:
            future = server.submit(np.zeros((1, 4, 4)))
            with pytest.raises(ValueError, match="injected model failure"):
                future.result(timeout=10)
            model.fail, model.delay_s = False, 0.0
            out = server.predict(np.ones((1, 4, 4)), timeout=10)
            stats = server.stats()
        assert np.array_equal(out, np.ones((1, 4, 4)))
        assert stats.failed >= 1 and stats.requests >= 2
        assert stats.latency_ms_max < delay_s * 1e3

    def test_stats_snapshot_is_coherent(self):
        model = make_bench_model(seed=0)
        workload = make_workload(4, 4, (1, 16, 16), seed=7)
        with InferenceServer(model, workers=2, max_batch=4, max_wait_ms=3.0) as server:
            run_closed_loop(server, workload)
            stats = server.stats()
        assert stats.requests == 16
        assert 1 <= stats.batches <= 16
        assert stats.mean_batch_size >= 1.0
        assert stats.throughput_rps > 0
        assert stats.latency_ms_p50 <= stats.latency_ms_p95 <= stats.latency_ms_max
        assert "req/s" in stats.format()

    def test_wall_clock_starts_at_first_admission(self):
        # Idle time before the first request is not serving time: it
        # would deflate throughput_rps.
        with InferenceServer(SlowIdentity(), workers=1) as server:
            time.sleep(0.3)
            idle = server.stats()
            started = time.perf_counter()
            for value in range(3):
                server.predict(np.full((1, 4, 4), float(value)), timeout=10)
            stats = server.stats()
            window = time.perf_counter() - started
        assert idle.wall_s == 0.0 and np.isnan(idle.throughput_rps)
        assert stats.requests == 3
        assert 0.0 < stats.wall_s <= window + 0.05


class RefusingServer:
    """Open-loop stand-in: refuses every ``refuse_every``-th submission
    at admission, fails admitted submissions whose number is a multiple
    of ``fail_every``, and answers the rest at once."""

    def __init__(self, refuse_every: int, fail_every: int) -> None:
        self.refuse_every = refuse_every
        self.fail_every = fail_every
        self.submitted = 0

    def submit(self, image, timeout=None):
        self.submitted += 1
        if self.submitted % self.refuse_every == 0:
            raise ServerOverloaded("full")
        future = Future()
        if self.submitted % self.fail_every == 0:
            future.set_exception(ValueError("injected failure"))
        else:
            future.set_result(image)
        return future


class TestOpenLoopSlo:
    def test_refused_and_failed_requests_miss_the_slo(self):
        # 30 offered: 10 refused (multiples of 3), 4 failed (5, 10, 20,
        # 25), 16 completed at once — so 16/30 met the SLO, not 16/16.
        trace = make_poisson_trace(10_000.0, 30, (1, 4, 4), seed=0)
        result = run_open_loop(RefusingServer(3, 5), trace, slo_ms=1_000.0)
        assert (result.offered, result.rejected) == (30, 10)
        assert (result.completed, result.failed) == (16, 4)
        assert result.slo_attainment == pytest.approx(16 / 30)
        # Every completed request met the SLO: a completed-only
        # denominator would have read 1.000.
        assert result.latency_ms_p99 < result.slo_ms
