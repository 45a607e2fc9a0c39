"""Tests for the data-parallel training engine (repro.train.parallel).

The load-bearing claim under test: the grain decomposition makes the
trained bytes a pure function of (model, data, recipe, grain) — never
of the worker count — so ``jobs ∈ {1, 2, 4}`` must produce
byte-identical checkpoints and histories, resume must work across a
jobs-count change, and a worker death must fail the fit loudly instead
of corrupting state.
"""

import functools
import json

import numpy as np
import pytest

from repro.comms import active_segments
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.optim import SGD, Adam
from repro.nn.trainer import TrainConfig
from repro.serving.bench import make_bench_model
from repro.train import ParallelTrainEngine, TrainEngine
from repro.train.parallel import _grain_assignment, _grain_bounds

# Module-level (hence spawn-picklable) architecture builder; weights are
# broadcast every step, so the builder's own init values never matter.
FACTORY = functools.partial(make_bench_model, 0)


def _raising_factory():
    raise ValueError("factory exploded")


def _data(n, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 8, 8))
    return x, x * 0.5


def _loader(n, batch_size=4):
    x, y = _data(n)
    return DataLoader(ArrayDataset(x, y), batch_size=batch_size, seed=11)


def _optimizer(name, model, lr):
    if name == "sgd":
        return SGD(model.parameters(), lr=lr, momentum=0.9)
    return Adam(model.parameters(), lr=lr)


def _run(jobs, opt_name="adam", n=10, epochs=2, grain=2, ckpt=None):
    """One complete training run; returns (model, history result)."""
    model = make_bench_model(0)
    config = TrainConfig(epochs=epochs, lr=5e-3, batch_size=4, seed=11)
    engine = ParallelTrainEngine(
        model,
        config,
        optimizer=_optimizer(opt_name, model, config.lr),
        jobs=jobs,
        grain=grain,
        model_factory=FACTORY,
    )
    try:
        result = engine.fit(_loader(n))
        if ckpt is not None:
            engine.save_checkpoint(ckpt)
    finally:
        engine.close()
    return model, result


def checkpoint_content(path):
    """A checkpoint's exact content: parsed meta + per-array raw bytes.

    Raw .npz file bytes are not comparable (zip entry timestamps), so
    byte-identity means: identical arrays, bit for bit, and identical
    metadata.
    """
    with np.load(path, allow_pickle=False) as data:
        files = dict(data)
    meta = json.loads(bytes(files.pop("meta")).decode())
    arrays = {
        key: (arr.dtype.str, arr.shape, arr.tobytes())
        for key, arr in sorted(files.items())
    }
    return meta, arrays


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("opt_name", ["sgd", "adam"])
    @pytest.mark.parametrize("n", [10, 9])  # both leave a partial final batch
    def test_jobs_1_2_4_byte_identical(self, opt_name, n, tmp_path):
        paths, results = {}, {}
        for jobs in (1, 2, 4):
            paths[jobs] = tmp_path / f"{opt_name}-{n}-j{jobs}.npz"
            _, results[jobs] = _run(jobs, opt_name, n=n, ckpt=paths[jobs])
        reference = checkpoint_content(paths[1])
        for jobs in (2, 4):
            assert checkpoint_content(paths[jobs]) == reference, (
                f"--jobs {jobs} checkpoint differs from --jobs 1 "
                f"({opt_name}, n={n})"
            )
            assert results[jobs].train_losses == results[1].train_losses
            assert results[jobs].grad_norms == results[1].grad_norms
            assert results[jobs].lr_trace == results[1].lr_trace
        assert active_segments() == []

    @pytest.mark.smoke
    def test_jobs_2_matches_serial_reference_quickly(self, tmp_path):
        a = tmp_path / "serial.npz"
        b = tmp_path / "dual.npz"
        _run(1, "adam", n=6, epochs=1, ckpt=a)
        _run(2, "adam", n=6, epochs=1, ckpt=b)
        assert checkpoint_content(a) == checkpoint_content(b)


class TestResumeAcrossJobsChange:
    def test_checkpoint_under_jobs_2_resumes_under_jobs_4(self, tmp_path):
        ckpt = tmp_path / "seg.npz"
        # Segment 1: one epoch under jobs=2.
        model = make_bench_model(0)
        config = TrainConfig(epochs=2, lr=5e-3, batch_size=4, seed=11)
        engine = ParallelTrainEngine(
            model, config, jobs=2, model_factory=FACTORY
        )
        try:
            engine.fit(_loader(10), epochs=1)
            engine.save_checkpoint(ckpt)
        finally:
            engine.close()
        # Segment 2: resume the same file under jobs=4.
        model_b = make_bench_model(0)
        engine_b = ParallelTrainEngine(
            model_b, config, jobs=4, model_factory=FACTORY
        )
        try:
            loader = _loader(10)
            engine_b.load_checkpoint(ckpt, loader=loader)
            result = engine_b.fit(loader, epochs=1)
            engine_b.save_checkpoint(ckpt)
        finally:
            engine_b.close()
        # Oracle: two epochs straight through, in process (jobs=1).
        straight = tmp_path / "straight.npz"
        _, straight_result = _run(1, "adam", n=10, epochs=2, ckpt=straight)
        assert checkpoint_content(ckpt) == checkpoint_content(straight)
        assert result.train_losses == straight_result.train_losses
        assert active_segments() == []


class TestFailureSemantics:
    def test_worker_death_mid_epoch_fails_loudly(self):
        model = make_bench_model(0)
        config = TrainConfig(epochs=4, lr=5e-3, batch_size=4, seed=11)
        engine = ParallelTrainEngine(
            model, config, jobs=2, model_factory=FACTORY
        )
        try:
            engine.fit(_loader(8), epochs=1)  # workers come up healthy
            engine.inject_worker_crash(0)
            with pytest.raises(RuntimeError, match="died mid-epoch"):
                engine.fit(_loader(8), epochs=1)
        finally:
            engine.close()
        assert active_segments() == []

    def test_factory_error_surfaces_from_first_fit(self):
        engine = ParallelTrainEngine(
            make_bench_model(0), TrainConfig(epochs=1), jobs=2, model_factory=_raising_factory
        )
        try:
            with pytest.raises(RuntimeError, match="ValueError: factory exploded"):
                engine.fit(_loader(8), epochs=1)
            assert active_segments() == []
        finally:
            engine.close()
        assert active_segments() == []

    def test_crash_injection_requires_running_workers(self):
        engine = ParallelTrainEngine(
            make_bench_model(0),
            TrainConfig(epochs=1),
            jobs=2,
            model_factory=FACTORY,
        )
        try:
            with pytest.raises(RuntimeError, match="no workers"):
                engine.inject_worker_crash(0)
        finally:
            engine.close()

    def test_closed_engine_refuses_to_train(self):
        engine = ParallelTrainEngine(make_bench_model(0), TrainConfig(epochs=1))
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.fit(_loader(4), epochs=1)

    def test_larger_batch_than_first_step_is_rejected(self):
        x, y = _data(8)
        engine = ParallelTrainEngine(
            make_bench_model(0), TrainConfig(epochs=1), jobs=2, model_factory=FACTORY
        )
        try:
            engine.fit([(x[:2], y[:2])], epochs=1)  # sizes the transport
            with pytest.raises(ValueError, match="exceeds the transport ring"):
                engine.fit([(x, y)], epochs=1)
        finally:
            engine.close()


class TestConstructionAndGrain:
    def test_rejects_bad_arguments(self):
        model = make_bench_model(0)
        with pytest.raises(ValueError, match="jobs"):
            ParallelTrainEngine(model, TrainConfig(), jobs=0)
        with pytest.raises(ValueError, match="grain"):
            ParallelTrainEngine(model, TrainConfig(), grain=0)
        with pytest.raises(ValueError, match="model_factory"):
            ParallelTrainEngine(model, TrainConfig(), jobs=2)

    def test_grain_covering_whole_batch_matches_classic_engine(self):
        # With grain >= batch size every batch is one grain at scale 1.0,
        # so the grain path degenerates to the classic full-batch
        # backward — bit for bit.  (At smaller grains the two engines are
        # deliberately *different* roundings of the same gradient.)
        config = TrainConfig(epochs=2, lr=5e-3, batch_size=4, seed=11)
        classic = make_bench_model(0)
        TrainEngine(classic, config).fit(_loader(10))
        grained = make_bench_model(0)
        engine = ParallelTrainEngine(grained, config, jobs=1, grain=4)
        engine.fit(_loader(10))
        for key, arr in classic.state_dict().items():
            assert arr.tobytes() == grained.state_dict()[key].tobytes(), key

    def test_default_grain_differs_from_full_batch_engine(self):
        # Honest non-claim: the grain-sharded gradient is a different
        # rounding than TrainEngine's single backward, so the serial
        # reference for the jobs-matrix is this engine at jobs=1.
        config = TrainConfig(epochs=2, lr=5e-3, batch_size=4, seed=11)
        classic = make_bench_model(0)
        TrainEngine(classic, config).fit(_loader(10))
        grained, _ = _run(1, "adam", n=10, epochs=2)
        assert any(
            arr.tobytes() != grained.state_dict()[key].tobytes()
            for key, arr in classic.state_dict().items()
        )

    def test_grain_bounds_cover_exactly_once(self):
        for n in (1, 2, 5, 8, 9):
            for grain in (1, 2, 3, 4, 10):
                bounds = _grain_bounds(n, grain)
                flat = [i for start, stop in bounds for i in range(start, stop)]
                assert flat == list(range(n)), (n, grain)
                assert all(stop - start <= grain for start, stop in bounds)

    def test_grain_assignment_is_contiguous_and_balanced(self):
        for count in (0, 1, 5, 8):
            for jobs in (1, 2, 3, 4, 6):
                ranks = _grain_assignment(count, jobs)
                assert len(ranks) == jobs
                flat = [g for mine in ranks for g in mine]
                assert flat == list(range(count)), (count, jobs)
                sizes = [len(mine) for mine in ranks]
                assert max(sizes) - min(sizes) <= 1
