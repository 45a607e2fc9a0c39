"""Compiled inference (Predictor.compile / build_plan) bit-identity tests.

The contract under test is absolute: a compiled :class:`ExecutionPlan`
replays the exact bytes the eager forward produces — across backends,
conv geometries, ring tuple sizes, batched and tiled dispatch — and the
per-predictor plan cache goes stale exactly when the eval weight caches
do (``load_state_dict``, ``train()``, in-place weight mutation).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.models import ffdnet, resnet_small
from repro.models.ernet import dn_ernet_pu, sr4_ernet
from repro.models.factory import make_factory
from repro.nn.backend import (
    EinsumBackend,
    NumpyBackend,
    SplitBackend,
    current_backend,
    use_backend,
)
from repro.nn.compile import (
    CompileError,
    TraceError,
    Tracer,
    _run_reshape_copy,
    build_plan,
    model_stamp,
)
from repro.nn.fastconv import FastRingConv2d
from repro.nn.inference import CompiledPredictor, Predictor
from repro.nn.layers import Conv2d, ReLU, RingConv2d, Sequential
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.rings.catalog import get_ring

# Ring keys covering tuple sizes n = 2 and n = 4 (cheap and expensive m).
RING_KEYS = ("c", "ri4", "h")


def _threaded_forced(block: int | None = None) -> SplitBackend:
    backend = SplitBackend(threads=2, block=block)
    backend.MIN_PARALLEL_ELEMENTS = 0  # parallelize even tiny test shapes
    return backend


def _backends():
    return [
        ("numpy", NumpyBackend()),
        ("threaded", _threaded_forced()),
        ("blocked1", SplitBackend(threads=1, block=1)),
        ("blocked2", SplitBackend(threads=1, block=2)),
        ("threads2-block2", _threaded_forced(block=2)),
    ]


def _assert_compiled_matches_eager(model, x: np.ndarray, backend=None) -> None:
    """The core check: plan replay == eager forward, bit for bit, on the
    traced input, a second distinct input, and a repeated replay (arena
    buffers are reused in steady state, so a second run catches any
    stale-buffer dependence)."""
    model.eval()
    plan = build_plan(model, x, backend=backend)
    run_backend = backend if backend is not None else current_backend()
    for probe in (x, x * -0.5 + 0.25):
        with use_backend(run_backend), no_grad():
            eager = model(Tensor(probe)).data
        for _ in range(2):
            replayed = plan.run(probe, run_backend)
            assert replayed.shape == eager.shape
            assert replayed.tobytes() == eager.tobytes()


class TestParityMatrix:
    """Compiled-vs-eager bit identity across the cross-backend matrix."""

    @pytest.mark.parametrize("ring_key", RING_KEYS)
    @pytest.mark.parametrize("name_backend", _backends(), ids=lambda nb: nb[0])
    def test_ring_denoiser(self, ring_key, name_backend):
        _, backend = name_backend
        model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory(ring_key), seed=3)
        _randomize(model, seed=7)
        x = np.random.default_rng(11).standard_normal((2, 1, 16, 16))
        _assert_compiled_matches_eager(model, x, backend=backend)

    @pytest.mark.parametrize("name_backend", _backends(), ids=lambda nb: nb[0])
    def test_sr4_with_bicubic_skip(self, name_backend):
        """The SR model routes through traced_call (bicubic upsample) and
        pixel_shuffle(4) — the 'call' record must replay, not constant-fold."""
        _, backend = name_backend
        model = sr4_ernet(blocks=1, ratio=1, factory=make_factory("h"), seed=5)
        _randomize(model, seed=9)
        x = np.random.default_rng(13).standard_normal((1, 1, 8, 8))
        _assert_compiled_matches_eager(model, x, backend=backend)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_stride_padding_grid(self, stride, padding):
        """Plain and ring convs across the stride/padding grid."""
        spec = get_ring("ri4")
        model = Sequential(
            Conv2d(2, spec.ring.n, 3, stride=stride, padding=padding, seed=1),
            ReLU(),
            RingConv2d(spec.ring.n, spec.ring.n, 3, spec.ring, padding=1, seed=2),
            ReLU(),
            Conv2d(spec.ring.n, 1, 1, seed=3),
        ).eval()
        x = np.random.default_rng(17).standard_normal((2, 2, 11, 13))
        for _, backend in _backends():
            _assert_compiled_matches_eager(model, x, backend=backend)

    @pytest.mark.parametrize("ring_key", ["c", "h"])
    def test_frconv_stack(self, ring_key):
        """The FRCONV fast path (grouped conv + tuple transforms)."""
        spec = get_ring(ring_key)
        n = spec.n
        model = Sequential(
            FastRingConv2d(n, n, 3, spec, padding=1, seed=1),
            ReLU(),
            FastRingConv2d(n, n, 3, spec, stride=2, padding=1, seed=2),
        ).eval()
        x = np.random.default_rng(19).standard_normal((1, n, 10, 10))
        for _, backend in _backends():
            _assert_compiled_matches_eager(model, x, backend=backend)

    def test_einsum_backend(self):
        """EinsumBackend has different GEMM semantics; the compiled path
        must fall back to its compute-then-copy kernels and still match."""
        model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("h"), seed=3)
        _randomize(model, seed=7)
        x = np.random.default_rng(23).standard_normal((1, 1, 16, 16))
        _assert_compiled_matches_eager(model, x, backend=EinsumBackend())

    @pytest.mark.parametrize("name_backend", _backends(), ids=lambda nb: nb[0])
    def test_classifier_replays_matmul_and_sum(self, name_backend):
        """ResNetSmall reaches the ``matmul`` (Linear) and ``sum``
        (GlobalAvgPool's mean) replay kernels, plus 1x1 unpadded convs."""
        _, backend = name_backend
        model = _randomize(resnet_small(blocks_per_stage=1), seed=4)
        kinds = {rec.kind for rec in build_plan(model, np.zeros((2, 1, 16, 16))).records}
        assert {"matmul", "sum"} <= kinds
        x = np.random.default_rng(29).standard_normal((2, 1, 16, 16))
        _assert_compiled_matches_eager(model, x, backend=backend)

    @pytest.mark.parametrize("name_backend", _backends(), ids=lambda nb: nb[0])
    def test_ffdnet_replays_concat(self, name_backend):
        """FFDNet concatenates its noise map onto the unshuffled input:
        the ``concat`` replay kernel."""
        _, backend = name_backend
        model = _randomize(ffdnet(depth=3, width=8), seed=5)
        kinds = {rec.kind for rec in build_plan(model, np.zeros((1, 1, 16, 16))).records}
        assert "concat" in kinds
        x = np.random.default_rng(31).standard_normal((2, 1, 16, 16))
        _assert_compiled_matches_eager(model, x, backend=backend)

    def test_einsum_backend_ring_transforms(self):
        """Tuple transforms (directional ReLU, FRCONV's T_x / T_z) replay
        through EinsumBackend.matmul exactly as eager runs them."""
        spec = get_ring("h")
        model = Sequential(
            FastRingConv2d(8, 8, 3, spec, padding=1, seed=1),
            ReLU(),
            FastRingConv2d(8, 8, 3, spec, padding=1, seed=2),
        ).eval()
        x = np.random.default_rng(37).standard_normal((2, 8, 9, 9))
        _assert_compiled_matches_eager(model, x, backend=EinsumBackend())
        denoiser = _randomize(
            dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("proposed", 4), seed=3)
        )
        x = np.random.default_rng(41).standard_normal((1, 1, 16, 16))
        _assert_compiled_matches_eager(denoiser, x, backend=EinsumBackend())


def _randomize(model, seed=0):
    rng = np.random.default_rng(seed)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    model.eval()
    return model


class TestCompiledPredictor:
    @pytest.mark.smoke
    def test_batched_predict_matches_eager(self):
        model = _randomize(dn_ernet_pu(blocks=1, ratio=1, seed=0))
        x = np.random.default_rng(0).standard_normal((5, 1, 16, 16))
        eager = Predictor(model, batch_size=2)
        compiled = eager.compile()
        assert isinstance(compiled, CompiledPredictor)
        assert compiled.predict(x).tobytes() == eager.predict(x).tobytes()

    def test_tiled_predict_matches_eager(self):
        """Images above the tile size go through the halo-tiled path; the
        per-crop forwards run the compiled plan and must match eager."""
        model = _randomize(dn_ernet_pu(blocks=1, ratio=1, seed=0))
        x = np.random.default_rng(1).standard_normal((1, 1, 48, 64))
        eager = Predictor(model, tile=16)
        compiled = Predictor(model, tile=16).compile()
        assert compiled.predict(x).tobytes() == eager.predict(x).tobytes()

    def test_compile_is_idempotent(self):
        pred = Predictor(_randomize(dn_ernet_pu(blocks=1, ratio=1)))
        compiled = pred.compile()
        assert compiled.compile() is compiled

    def test_clone_shares_plan_cache(self):
        compiled = Predictor(_randomize(dn_ernet_pu(blocks=1, ratio=1))).compile()
        clone = compiled.clone()
        x = np.random.default_rng(2).standard_normal((1, 1, 16, 16))
        clone.predict(x)
        assert len(compiled._plans) == 1
        # The original reuses the clone-built plan: same object, no rebuild.
        plan = next(iter(compiled._plans.values()))[1]
        compiled.predict(x)
        assert next(iter(compiled._plans.values()))[1] is plan

    def test_plan_cached_per_shape(self):
        compiled = Predictor(_randomize(dn_ernet_pu(blocks=1, ratio=1))).compile()
        a = np.random.default_rng(3).standard_normal((1, 1, 16, 16))
        b = np.random.default_rng(4).standard_normal((2, 1, 24, 24))
        compiled.predict(a)
        compiled.predict(a)
        assert len(compiled._plans) == 1
        compiled.predict(b)
        assert len(compiled._plans) == 2


class TestPlanInvalidation:
    def _compiled(self):
        model = _randomize(dn_ernet_pu(blocks=1, ratio=1, seed=0))
        compiled = Predictor(model).compile()
        x = np.random.default_rng(5).standard_normal((1, 1, 16, 16))
        compiled.predict(x)
        return model, compiled, x

    def _plan(self, compiled):
        return next(iter(compiled._plans.values()))[1]

    @pytest.mark.smoke
    def test_load_state_dict_rebuilds_and_tracks_new_weights(self):
        model, compiled, x = self._compiled()
        before = self._plan(compiled)
        donor = _randomize(dn_ernet_pu(blocks=1, ratio=1, seed=0), seed=99)
        model.load_state_dict(donor.state_dict())
        out = compiled.predict(x)
        assert self._plan(compiled) is not before
        with no_grad():
            assert out.tobytes() == model(Tensor(x)).data.tobytes()

    def test_train_mode_roundtrip_rebuilds(self):
        model, compiled, x = self._compiled()
        before = self._plan(compiled)
        model.train()  # predict() flips back to eval, but state moved on
        compiled.predict(x)
        assert self._plan(compiled) is not before

    def test_inplace_weight_mutation_rebuilds(self):
        """Optimizer-style in-place edits change the weight fingerprint,
        so the stamp (and therefore the plan) must go stale."""
        model, compiled, x = self._compiled()
        before = self._plan(compiled)
        stamp_before = model_stamp(model)
        model.parameters()[0].data[...] *= 1.1
        assert model_stamp(model) != stamp_before
        out = compiled.predict(x)
        assert self._plan(compiled) is not before
        with no_grad():
            assert out.tobytes() == model(Tensor(x)).data.tobytes()

    def test_unchanged_weights_do_not_rebuild(self):
        _, compiled, x = self._compiled()
        before = self._plan(compiled)
        compiled.predict(x)
        assert self._plan(compiled) is before


class _RawNumpyDetour(Module):
    """Forward that routes input-dependent data around the Tensor layer —
    the tracer cannot see np.tanh, so the plan would bake one input's
    result in as a constant.  build_plan's probe verification must refuse."""

    def forward(self, x):
        return Tensor(np.tanh(x.data)) + x * 0.0


class _UntracedMake(Module):
    """A custom autograd op built directly on Tensor._make: it consumes
    traced data with no trace hook, which the pending-op protocol turns
    into a hard TraceError instead of a silently wrong plan."""

    def forward(self, x):
        out = Tensor._make(np.tanh(x.data), (x,), lambda: None)
        return out + 1.0


class _OneOp(Module):
    def __init__(self, op) -> None:
        super().__init__()
        self.op = op

    def forward(self, x):
        return self.op(x)


class TestRefusals:
    def test_training_model_is_rejected(self):
        model = dn_ernet_pu(blocks=1, ratio=1).train()
        x = np.zeros((1, 1, 16, 16))
        with pytest.raises(TraceError, match="eval"):
            build_plan(model, x)

    def test_tracers_do_not_nest(self):
        with no_grad(), Tracer():
            with pytest.raises(TraceError, match="nest"), Tracer():
                pass  # pragma: no cover

    def test_tracing_requires_no_grad(self):
        with pytest.raises(TraceError, match="no_grad"), Tracer():
            pass  # pragma: no cover

    def test_raw_numpy_detour_is_caught_by_probe(self):
        model = _RawNumpyDetour().eval()
        x = np.random.default_rng(6).standard_normal((1, 1, 4, 4))
        with pytest.raises(CompileError, match="diverges|cannot be compiled"):
            build_plan(model, x)

    def test_unhooked_op_is_a_trace_error(self):
        model = _UntracedMake().eval()
        x = np.random.default_rng(7).standard_normal((1, 1, 4, 4))
        with pytest.raises(TraceError, match="trace hook"):
            build_plan(model, x)

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x.select(1, 0),
            lambda x: x.pad2d(1),
            lambda x: x.crop2d(1),
            lambda x: x / 2.0,
            lambda x: -x,
            lambda x: 1.0 - x,
            lambda x: x**2,
            lambda x: x.abs(),
            lambda x: x.exp(),
            lambda x: x.log(),
        ],
        ids=["select", "pad2d", "crop2d", "div", "neg", "rsub", "pow", "abs", "exp", "log"],
    )
    def test_ops_without_a_replay_kernel_are_trace_errors(self, op):
        """No model in repro.models or repro.experiments applies these ops
        to traced data, so they have no replay kernel: tracing one fails
        at compile time instead of replaying untested code."""
        model = _OneOp(op).eval()
        x = np.abs(np.random.default_rng(8).standard_normal((1, 1, 4, 4))) + 1.0
        with pytest.raises(TraceError, match="trace hook"):
            build_plan(model, x)

    def test_plan_rejects_wrong_shape(self):
        model = _randomize(dn_ernet_pu(blocks=1, ratio=1))
        plan = build_plan(model, np.zeros((1, 1, 16, 16)))
        with pytest.raises(ValueError, match="shape"):
            plan.run(np.zeros((1, 1, 24, 24)), NumpyBackend())


class TestPlanStructure:
    @pytest.mark.smoke
    def test_elementwise_chains_fuse_into_producers(self):
        """bias-add + relu must ride as epilogue steps on the producing
        record, not as standalone elementwise records."""
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, seed=1), ReLU(), Conv2d(3, 1, 3, padding=1, seed=2)
        ).eval()
        plan = build_plan(model, np.random.default_rng(8).standard_normal((1, 2, 8, 8)))
        assert all(rec.kind != "ew" for rec in plan.records)
        assert any("relu" in [s[0] for s in rec.steps] for rec in plan.records)

    def test_frconv_bias_relu_fuse_as_one_epilogue(self):
        """FRCONV's bias lands after the tuple recombination.  The T_z
        transform writes a contiguous (N, Co_t, n, Ho, Wo) array, so the
        recombining reshape is a view (no copy record), and for an
        interior layer bias-add and relu chain as one two-step record
        (a view-producing record takes no in-place epilogue)."""
        spec = get_ring("h")
        width = 4 * spec.n  # multiple tuples per channel axis
        model = Sequential(
            FastRingConv2d(width, width, 3, spec, padding=1, seed=1),
            ReLU(),
            FastRingConv2d(width, width, 3, spec, padding=1, seed=2),
        ).eval()
        plan = build_plan(
            model, np.random.default_rng(8).standard_normal((1, width, 8, 8))
        )
        chains = [[s[0] for s in rec.steps] for rec in plan.records]
        assert chains.count(["add", "relu"]) == 1
        assert not any(rec._fn is _run_reshape_copy for rec in plan.records)

    def test_arena_slots_are_reused(self):
        """A deep straight-line stack needs O(1) live buffers, not one per
        layer — the liveness pass must recycle slots."""
        layers = []
        for i in range(6):
            layers += [Conv2d(2, 2, 3, padding=1, seed=i), ReLU()]
        model = Sequential(*layers).eval()
        plan = build_plan(model, np.random.default_rng(9).standard_normal((1, 2, 8, 8)))
        slotted = [rec for rec in plan.records if rec.slot >= 0]
        assert len(slotted) > len(plan.slots)  # strictly fewer buffers than ops

    def test_each_run_returns_a_fresh_output(self):
        """Outputs must never alias the arena, or a later run would
        silently overwrite an earlier result the caller still holds."""
        model = _randomize(dn_ernet_pu(blocks=1, ratio=1))
        x = np.random.default_rng(10).standard_normal((1, 1, 16, 16))
        plan = build_plan(model, x)
        backend = NumpyBackend()
        first = plan.run(x, backend)
        snapshot = first.copy()
        plan.run(x * 2.0, backend)
        assert np.array_equal(first, snapshot)


class TestConcurrentReplay:
    def test_threads_replaying_one_plan_stay_bit_identical(self):
        """Each thread replays through its own arena and its own conv
        scratch pool (padded buffers, cols and cached conv geometry), so
        concurrent replays of one shared plan never share scratch bytes.
        Three threads on a short switch interval interleave finely."""
        model = _randomize(
            dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("proposed", 4), seed=3)
        )
        rng = np.random.default_rng(43)
        inputs = [rng.standard_normal((1, 1, 16, 16)) for _ in range(4)]
        plan = build_plan(model, inputs[0])
        backend = NumpyBackend()
        with no_grad():
            expected = [model(Tensor(x)).data.tobytes() for x in inputs]
        errors: list = []

        def replay(offset: int) -> None:
            try:
                for i in range(60):
                    k = (i + offset) % len(inputs)
                    if plan.run(inputs[k], backend).tobytes() != expected[k]:
                        errors.append((offset, i))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=replay, args=(k,)) for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
