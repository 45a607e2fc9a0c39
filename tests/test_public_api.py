"""Smoke tests for the top-level public API surface."""

import numpy as np
import pytest


@pytest.mark.smoke
def test_package_imports_and_version():
    import repro

    assert repro.__version__ == "1.0.0"
    for sub in (
        "comms",
        "rings",
        "nn",
        "models",
        "quant",
        "pruning",
        "hardware",
        "imaging",
        "experiments",
        "serving",
        "tune",
    ):
        assert hasattr(repro, sub)


def test_readme_quickstart_snippet():
    from repro.nn.layers import RingConv2d
    from repro.nn.tensor import Tensor
    from repro.rings.catalog import get_ring, proposed_pair

    spec = get_ring("C")
    z = spec.fast.apply(np.array([3.0, 4.0]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(z, [-5.0, 10.0])  # (3+4i)(1+2i) = -5 + 10i

    ri4, f_h = proposed_pair(4)
    conv = RingConv2d(32, 32, 3, ri4.ring, seed=0)
    out = conv(Tensor(np.random.default_rng(0).standard_normal((1, 32, 8, 8))))
    assert out.shape == (1, 32, 8, 8)


def test_nn_namespace_exports_backend_api():
    """Backend machinery, Predictor and conv2d_grouped need no deep paths."""
    from repro import nn

    for name in (
        "backend", "Backend", "NumpyBackend", "SplitBackend",
        "use_backend", "current_backend", "available_backends",
        "Predictor", "conv2d_grouped",
    ):
        assert name in nn.__all__, f"{name} missing from repro.nn.__all__"
        assert hasattr(nn, name), f"{name} not importable from repro.nn"
    assert {"numpy", "threaded", "blocked"} <= set(nn.available_backends())


def test_train_namespace_exports():
    """The training engine needs no deep paths either."""
    from repro import train

    for name in (
        "TrainEngine", "TrainHistory", "TrainConfig", "TrainResult",
        "Callback", "CheckpointCallback", "EvalCallback", "LambdaCallback",
        "Checkpoint", "CheckpointError", "load_checkpoint",
        "ParallelTrainEngine", "DEFAULT_GRAIN",
    ):
        assert name in train.__all__, f"{name} missing from repro.train.__all__"
        assert hasattr(train, name), f"{name} not importable from repro.train"


def test_comms_namespace_exports():
    """The process-communication layer's surface needs no deep paths."""
    from repro import comms

    for name in (
        "ShmRing", "RingClient", "active_segments",
        "tree_reduce", "flatten_arrays", "unflatten_into",
    ):
        assert name in comms.__all__, f"{name} missing from repro.comms.__all__"
        assert hasattr(comms, name), f"{name} not importable from repro.comms"


def test_rings_namespace_exports():
    from repro import rings

    assert rings.get_ring("rh4").n == 4
    assert rings.hadamard(4).shape == (4, 4)
    assert callable(rings.backprop.adjoint_weight)


def test_experiment_modules_expose_run_and_format():
    from repro import experiments

    for name in (
        "table1", "table2", "table4", "table5", "table6", "table7", "table8",
        "fig01", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "figc1",
    ):
        module = getattr(experiments, name)
        assert callable(module.run)
        assert callable(module.format_result)


def test_serving_namespace_exports():
    """The serving layer's surface needs no deep paths."""
    from repro import serving

    for name in (
        "InferenceServer", "ServerStats", "ServerClosed", "ServerOverloaded",
        "make_workload", "run_closed_loop", "serial_reference", "run_serve_bench",
    ):
        assert name in serving.__all__, f"{name} missing from repro.serving.__all__"
    from repro.nn import EinsumBackend  # the deterministic verification substrate

    assert EinsumBackend().name == "einsum"
