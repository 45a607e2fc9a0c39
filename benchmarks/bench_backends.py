"""Benchmark: per-backend throughput of the nn hot path.

Runs the same eval-mode workloads — a FastRingConv2d stack (the FRCONV
engine) and a full ERNet denoiser through the batched
:class:`~repro.nn.inference.Predictor` — on every registered backend and
records images/s.  Outputs are asserted **bit-identical** across
backends first, so the throughput table compares substrates, never
accuracy.

The threaded backend can only beat the reference path when more than
one CPU is usable; on a single-core runner the speedup assertion is
skipped and the recorded table says so.

``test_backend_tuned_vs_default`` adds the autotuner's report card: a
ring-conv denoiser served by the default Predictor configuration vs the
:mod:`repro.tune` winner for the same workload, bit-identity asserted
and the tuned-over-default throughput ratio recorded in the JSON twin
(gated by ``perf_gate.py`` as ``tuned-inference``) — so every future
kernel/backend PR shows its remaining headroom against the tuned
config.
"""

from __future__ import annotations

import time

import numpy as np

from repro.models.ernet import dn_ernet_pu
from repro.models.factory import make_factory
from repro.nn.backend import NumpyBackend, SplitBackend, usable_cpu_count, use_backend
from repro.nn.fastconv import FastRingConv2d
from repro.nn.inference import Predictor
from repro.nn.tensor import Tensor, no_grad
from repro.rings.catalog import get_ring
from repro.tune import tune_model


def _best_of(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _backends():
    threads = max(2, usable_cpu_count())
    return [
        ("numpy", NumpyBackend()),
        (f"threaded:{threads}", SplitBackend(threads=threads)),
        ("blocked:1", SplitBackend(threads=1, block=1)),
    ]


def test_backend_throughput_frconv(record_result):
    """FRCONV layer forward at batch 16 — the grouped-GEMM hot path."""
    spec = get_ring("h")  # m = 8 products: the widest grouped conv
    layer = FastRingConv2d(16, 16, 3, spec, seed=0)
    layer.eval()
    batch = 16
    x = Tensor(np.random.default_rng(0).standard_normal((batch, 16, 32, 32)))

    lines = [f"FRCONV[h] 16ch 3x3, batch={batch}, 32x32 ({usable_cpu_count()} usable CPU(s))"]
    rows = []
    timings = {}
    base_out = None
    for name, backend in _backends():
        with use_backend(backend), no_grad():
            out = layer(x).data
            if base_out is None:
                base_out = out
            else:
                assert np.array_equal(out, base_out), f"{name} output differs"
            elapsed = _best_of(lambda: layer(x))
        timings[name.split(":")[0]] = elapsed
        throughput = batch / elapsed
        rows.append({"backend": name, "seconds": elapsed, "images_per_s": throughput})
        lines.append(f"  {name:<12} {elapsed * 1e3:8.2f} ms   {throughput:8.1f} img/s")
    lines.append(f"  threaded speedup over numpy: {timings['numpy'] / timings['threaded']:.2f}x")
    record_result("backend_frconv", "\n".join(lines), rows)
    # Holds even on one CPU: chunking the m=8 grouped im2col shrinks the
    # per-GEMM working set well below the monolithic path's, so the win
    # is cache locality first and parallelism second.
    assert timings["threaded"] < timings["numpy"], (
        f"threaded should beat numpy at batch {batch} "
        f"(numpy {timings['numpy'] * 1e3:.1f} ms vs threaded "
        f"{timings['threaded'] * 1e3:.1f} ms)"
    )


def test_backend_throughput_predictor(record_result):
    """Full ERNet denoiser through the batched Predictor at batch 8."""
    model = dn_ernet_pu(blocks=1, ratio=1, seed=0)
    rng = np.random.default_rng(1)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    batch = 8
    x = rng.standard_normal((batch, 1, 48, 48))

    cpus = usable_cpu_count()
    lines = [f"dn-ERNet denoise, batch={batch}, 48x48 ({cpus} usable CPU(s))"]
    rows = []
    timings = {}
    base_out = None
    for name, backend in _backends():
        predictor = Predictor(model, batch_size=batch, tile=48, backend=backend)
        out = predictor(x)
        if base_out is None:
            base_out = out
        else:
            assert np.array_equal(out, base_out), f"{name} output differs"
        elapsed = _best_of(lambda: predictor(x))
        timings[name.split(":")[0]] = elapsed
        throughput = batch / elapsed
        rows.append({"backend": name, "seconds": elapsed, "images_per_s": throughput})
        lines.append(f"  {name:<12} {elapsed * 1e3:8.2f} ms   {throughput:8.1f} img/s")

    if cpus > 1:
        speedup = timings["numpy"] / timings["threaded"]
        lines.append(f"  threaded speedup over numpy: {speedup:.2f}x")
    else:
        lines.append("  single usable CPU: threaded-vs-numpy speedup assertion skipped")
    # Record before asserting, so a failing run still rewrites the twin.
    record_result("backend_throughput", "\n".join(lines), rows)
    if cpus > 1:
        assert timings["threaded"] < timings["numpy"], (
            f"threaded should beat numpy on {cpus} CPUs "
            f"(numpy {timings['numpy'] * 1e3:.1f} ms vs threaded "
            f"{timings['threaded'] * 1e3:.1f} ms)"
        )


def test_backend_tuned_vs_default(record_result, tmp_path, monkeypatch):
    """Autotuned vs default schedule on a ring-conv (FRCONV) denoiser.

    Tunes into an isolated cache, then times the default configuration
    against a ``tuned=True`` Predictor on the same batch.  The winner
    passed the tuner's byte-parity guard, so bit-identity is asserted
    outright; the throughput ratio lands in the JSON twin for the
    ``tuned-inference`` perf-gate row (tuned can tie the default — the
    default is always in the measured candidate set — so the ratio's
    floor is noise, not search quality).
    """
    monkeypatch.setenv("REPRO_TUNING_DIR", str(tmp_path))
    model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("ri4+fh"), seed=0)
    rng = np.random.default_rng(2)
    for param in model.parameters():
        param.data[...] += 0.05 * rng.standard_normal(param.shape)
    model.eval()
    batch = 8
    shape = (1, 48, 48)
    x = rng.standard_normal((batch, *shape))

    entry = tune_model(model, shape, batch, seed=0, trials=3, warmup=1, top_k=6)
    default = Predictor(model, batch_size=batch, tuned=False)
    tuned = Predictor(model, batch_size=batch, tuned=True)
    out_default = default(x)
    out_tuned = tuned(x)
    assert np.array_equal(out_default, out_tuned), "tuned output differs from default"

    timings = {
        "default": _best_of(lambda: default(x)),
        "tuned": _best_of(lambda: tuned(x)),
    }
    speedup = timings["default"] / timings["tuned"]
    cpus = usable_cpu_count()
    lines = [
        f"ri4+fh dn-ERNet (ring conv), batch={batch}, 48x48 ({cpus} usable CPU(s))",
        f"  {'default':<12} {timings['default'] * 1e3:8.2f} ms   "
        f"{batch / timings['default']:8.1f} img/s",
        f"  {'tuned':<12} {timings['tuned'] * 1e3:8.2f} ms   "
        f"{batch / timings['tuned']:8.1f} img/s",
        f"  winner {entry.winner.label()} (default {entry.default.label()}); "
        f"tuner-probe speedup {entry.speedup:.2f}x",
        f"  tuned vs default: {speedup:.2f}x; outputs bit-identical: True",
    ]
    payload = {
        "rows": [
            {
                "config": "default",
                "label": entry.default.label(),
                "seconds": timings["default"],
                "images_per_s": batch / timings["default"],
            },
            {
                "config": "tuned",
                "label": entry.winner.label(),
                "seconds": timings["tuned"],
                "images_per_s": batch / timings["tuned"],
            },
        ],
        "winner": entry.winner.to_jsonable(),
        "tuned_vs_default_speedup": speedup,
        "tuner_probe_speedup": entry.speedup,
        "fingerprint": entry.fingerprint,
    }
    record_result("backend_tuned", "\n".join(lines), payload)
    # The default config is always a measured candidate, so the winner's
    # probe median never trails it; the wall-clock re-measure here may
    # wobble, hence the gate's tolerance — but parity must hold exactly.
    assert entry.speedup >= 1.0 or entry.winner == entry.default
