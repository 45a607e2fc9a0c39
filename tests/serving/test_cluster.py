"""Tests for the process-sharded inference server (repro.serving.cluster)."""

import dataclasses
import functools
import pickle
import time

import numpy as np
import pytest

from repro.nn.inference import Predictor
from repro.serving import (
    ClusterStats,
    ServerClosed,
    ServerOverloaded,
    ServerStats,
    ShardedInferenceServer,
    WorkerCrashed,
    active_segments,
    make_poisson_trace,
    make_workload,
    run_closed_loop,
    run_open_loop,
    serial_reference,
)
from repro.serving.bench import make_bench_model

FACTORY = functools.partial(make_bench_model, 0)
SHAPES = [(1, 16, 16), (1, 24, 24), (1, 32, 32)]
SLOW_SETUP_S = 1.0


# Module-level, hence spawn-picklable, factories for the startup tests.
def _raising_factory():
    raise ValueError("factory exploded")


def _slow_factory():
    time.sleep(SLOW_SETUP_S)
    return make_bench_model(0)


@pytest.fixture(scope="module")
def serial_predictor():
    return Predictor(make_bench_model(0), batch_size=8)


def _images(count: int, seed: int = 3) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(SHAPES[i % len(SHAPES)]) for i in range(count)]


def _assert_bit_identical(outputs, images, serial_predictor):
    for output, image in zip(outputs, images, strict=True):
        assert np.array_equal(output, serial_predictor.predict(image[None])[0])


class TestBitIdentity:
    def test_mixed_shapes_100_concurrent(self, serial_predictor):
        images = _images(100)
        with ShardedInferenceServer(
            FACTORY, procs=2, queue_depth=100, slot_bytes=1 << 16
        ) as server:
            futures = [server.submit(image) for image in images]
            outputs = [future.result(300) for future in futures]
            assert server.workers_alive() == 2
            stats = server.stats()
            assert stats.requests == 100 and stats.failed == 0
        _assert_bit_identical(outputs, images, serial_predictor)
        assert active_segments() == []

    def test_closed_loop_loadgen_matches_serial(self, serial_predictor):
        workload = make_workload(4, 2, SHAPES, seed=5)
        reference = serial_reference(serial_predictor, workload)
        with ShardedInferenceServer(FACTORY, procs=2, queue_depth=16) as server:
            result = run_closed_loop(server, workload)
        assert result.bit_identical_to(reference)
        # The unified latency schema is populated.
        assert np.isfinite(result.latency_ms_p99)
        assert 0.0 <= result.slo_attainment <= 1.0


class TestCrashRecovery:
    def test_no_accepted_request_dropped_across_crash(self, serial_predictor):
        images = _images(32)
        with ShardedInferenceServer(FACTORY, procs=2, queue_depth=32) as server:
            futures = [server.submit(image) for image in images[:16]]
            server.inject_worker_crash(0)
            futures += [server.submit(image) for image in images[16:]]
            outputs = [future.result(300) for future in futures]
            stats = server.stats()
            assert stats.respawns >= 1
            assert stats.failed == 0
            assert server.workers_alive() == 2
        _assert_bit_identical(outputs, images, serial_predictor)
        assert active_segments() == []

    def test_retry_budget_exhaustion_raises_worker_crashed(self):
        image = _images(1)[0]
        with ShardedInferenceServer(
            FACTORY, procs=1, queue_depth=4, max_retries=0
        ) as server:
            # The crash descriptor is queued first, so the request lands
            # on a worker already doomed to die before serving it.
            server.inject_worker_crash(0)
            future = server.submit(image)
            with pytest.raises(WorkerCrashed):
                future.result(120)
            # The slot was released and the respawned worker serves on.
            assert server.predict(image, timeout=120).shape == image.shape
        assert active_segments() == []

    def test_request_survives_crash_with_retry_budget(self, serial_predictor):
        image = _images(1)[0]
        with ShardedInferenceServer(
            FACTORY, procs=1, queue_depth=4, max_retries=2
        ) as server:
            server.inject_worker_crash(0)
            output = server.submit(image).result(120)
            assert server.stats().retried >= 1
        assert np.array_equal(output, serial_predictor.predict(image[None])[0])


class TestMicroBatching:
    def test_queued_same_shape_requests_share_a_round_trip(self, serial_predictor):
        # Submitted back to back while the worker is still spawning, so
        # the router finds requests queued behind its first batch.
        images = [_images(1, seed=seed)[0] for seed in range(12)]
        with ShardedInferenceServer(FACTORY, procs=1, batch_size=4) as server:
            futures = [server.submit(image) for image in images]
            outputs = [future.result(120) for future in futures]
            stats = server.stats()
        assert stats.requests == 12 and stats.failed == 0
        assert stats.batches < 12
        assert stats.max_batch_size <= 4
        _assert_bit_identical(outputs, images, serial_predictor)

    def test_batch_is_resent_after_crash(self, serial_predictor):
        images = [_images(1, seed=seed)[0] for seed in range(6)]
        with ShardedInferenceServer(FACTORY, procs=1, batch_size=4) as server:
            server.inject_worker_crash(0)
            futures = [server.submit(image) for image in images]
            outputs = [future.result(120) for future in futures]
            stats = server.stats()
        assert stats.retried >= 1 and stats.failed == 0
        _assert_bit_identical(outputs, images, serial_predictor)
        assert active_segments() == []


class TestAdmission:
    def test_reject_policy_raises_when_full(self):
        images = _images(8, seed=9)
        with ShardedInferenceServer(
            FACTORY, procs=1, queue_depth=2, overload="reject"
        ) as server:
            admitted = []
            rejections = 0
            for image in images:
                try:
                    admitted.append(server.submit(image))
                except ServerOverloaded:
                    rejections += 1
            assert rejections > 0, "8 instant submits into depth 2 must overflow"
            for future in admitted:
                future.result(120)
            assert server.stats().rejected == rejections

    def test_degrade_policy_serves_degraded_bit_identical(self, serial_predictor):
        # Requests fit one tile even at the degraded (coarser) tiling, so
        # degraded service must still be bit-identical to the reference.
        images = _images(6, seed=11)
        with ShardedInferenceServer(
            FACTORY, procs=1, queue_depth=6, overload="degrade", degrade_at=1
        ) as server:
            futures = [server.submit(image) for image in images]
            outputs = [future.result(120) for future in futures]
            stats = server.stats()
            assert stats.degraded >= 1
        _assert_bit_identical(outputs, images, serial_predictor)

    def test_block_policy_times_out_as_overloaded(self):
        images = _images(3, seed=13)
        with ShardedInferenceServer(
            FACTORY, procs=1, queue_depth=1, overload="block"
        ) as server:
            first = server.submit(images[0])
            with pytest.raises(ServerOverloaded):
                # Depth 1 and the worker is busy warming up: a 1ms
                # admission budget cannot be met.
                server.submit(images[1], timeout=0.001)
            first.result(120)

    def test_open_loop_overload_rejects_and_stays_bounded(self):
        trace = make_poisson_trace(400.0, 40, SHAPES, seed=17)
        with ShardedInferenceServer(
            FACTORY, procs=1, queue_depth=2, overload="reject"
        ) as server:
            result = run_open_loop(server, trace, slo_ms=250.0)
        assert result.offered == 40
        assert result.rejected > 0
        assert result.completed > 0
        assert result.completed + result.rejected + result.failed == 40
        assert np.isfinite(result.latency_ms_p99)
        assert active_segments() == []


class TestStartup:
    def test_unpicklable_factory_raises_and_leaks_no_segment(self):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            ShardedInferenceServer(lambda: make_bench_model(0), procs=1, queue_depth=2)
        assert active_segments() == []

    def test_factory_error_fails_construction_without_respawns(self):
        server = None
        with pytest.raises(RuntimeError, match="ValueError: factory exploded"):
            server = ShardedInferenceServer(_raising_factory, procs=2, queue_depth=2)
        assert server is None  # so no stats, no respawn loop
        assert active_segments() == []

    def test_first_request_does_not_pay_the_spawn(self, serial_predictor):
        image = _images(1)[0]
        started = time.perf_counter()
        with ShardedInferenceServer(_slow_factory, procs=1, queue_depth=2) as server:
            built = time.perf_counter() - started
            started = time.perf_counter()
            output = server.predict(image, timeout=120)
            first = time.perf_counter() - started
        assert built >= SLOW_SETUP_S
        assert first < SLOW_SETUP_S
        assert np.array_equal(output, serial_predictor.predict(image[None])[0])


class TestLifecycle:
    def test_submit_after_close_raises(self):
        server = ShardedInferenceServer(FACTORY, procs=1, queue_depth=2)
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(_images(1)[0])
        server.close()  # idempotent
        assert active_segments() == []

    def test_abort_fails_pending_and_cleans_up(self):
        images = _images(6, seed=19)
        server = ShardedInferenceServer(FACTORY, procs=1, queue_depth=8)
        futures = [server.submit(image) for image in images]
        server.close(drain=False)
        resolved = 0
        for future in futures:
            try:
                future.result(5)
                resolved += 1
            except ServerClosed:
                pass
        # Everything resolved one way or the other, nothing hung.
        assert resolved <= len(futures)
        assert active_segments() == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="procs must be positive"):
            ShardedInferenceServer(FACTORY, procs=0)
        with pytest.raises(ValueError, match="overload must be one of"):
            ShardedInferenceServer(FACTORY, overload="shrug")
        with pytest.raises(ValueError, match="backend spec string"):
            ShardedInferenceServer(FACTORY, backend=object())

    def test_request_validation(self):
        with ShardedInferenceServer(FACTORY, procs=1, queue_depth=2) as server:
            with pytest.raises(ValueError, match="expected one"):
                server.submit(np.zeros((2, 2)))
            with pytest.raises(ValueError, match="raise slot_bytes"):
                server.submit(np.zeros((1, 512, 512)))


class TestRoutingAndStats:
    def test_shape_affinity_pins_each_shape_to_one_replica(self):
        images = _images(9, seed=23)
        with ShardedInferenceServer(
            FACTORY, procs=2, queue_depth=16, replicas_per_shape=1
        ) as server:
            for image in images:
                server.predict(image, timeout=120)
            affinity = dict(server._affinity)
        assert set(affinity) == set(SHAPES)
        for group in affinity.values():
            assert len(group) == 1
        # Shapes spread across workers instead of piling on rank 0.
        assert len({group[0] for group in affinity.values()}) == 2

    def test_stats_schema_matches_thread_server(self):
        shared = {
            "requests",
            "rejected",
            "failed",
            "latency_ms_mean",
            "latency_ms_p50",
            "latency_ms_p95",
            "latency_ms_p99",
            "latency_ms_max",
            "slo_ms",
            "slo_attainment",
            "wall_s",
            "throughput_rps",
        }
        cluster_fields = {f.name for f in dataclasses.fields(ClusterStats)}
        server_fields = {f.name for f in dataclasses.fields(ServerStats)}
        assert shared <= cluster_fields
        assert shared <= server_fields

    def test_wall_clock_starts_at_first_admission(self):
        # Worker spawn and idle time before the first request are not
        # serving time: they would deflate throughput_rps.
        images = _images(3)
        with ShardedInferenceServer(FACTORY, procs=1, queue_depth=4) as server:
            time.sleep(0.3)
            idle = server.stats()
            started = time.perf_counter()
            for image in images:
                server.predict(image, timeout=120)
            stats = server.stats()
            window = time.perf_counter() - started
        assert idle.wall_s == 0.0 and np.isnan(idle.throughput_rps)
        assert stats.requests == 3
        assert 0.0 < stats.wall_s <= window + 0.05

    def test_stats_format_mentions_slo(self):
        with ShardedInferenceServer(FACTORY, procs=1, queue_depth=2) as server:
            server.predict(_images(1)[0], timeout=120)
            text = server.stats().format()
        assert "SLO" in text and "respawns" in text
