"""Self-tests of the end-to-end benchmark harness.

They run no workload: each checks one piece of harness arithmetic or
bookkeeping on synthetic data, so the file stays well under 5 s.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# declared == emitted
# ----------------------------------------------------------------------
def test_declared_metrics_match_the_emitted_sets():
    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared_e2e == list(measure.E2E_METRICS)
    assert declared_layer == list(measure.PER_LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_span_and_stats_metric_is_declared():
    declared = {name for name, _, _ in measure.PER_LAYER_METRICS}
    emitted = set(spans.span_metrics([], {"op.base": 1, "op.alt": 1}))
    from_untraced = {name for name, _, _ in measure.TAIL_METRICS} | {
        f"trace.overhead_frac.{name}" for name, _, _ in measure.E2E_METRICS
    }
    assert emitted <= declared
    # What spans cannot give comes from public stats, in serve-open and
    # train-dn; together they cover the declared set.
    from_stats = declared - emitted - from_untraced
    prefixes = ("serving.", "loadgen.", "train.engine.checkpoint")
    assert all(name.startswith(prefixes) for name in from_stats)


def test_metrics_payload_rejects_missing_and_undeclared_names():
    values = {name: 1.0 for name, _, _ in measure.E2E_METRICS}
    payload = run.metrics_payload(values, measure.E2E_METRICS)
    assert list(payload) == [name for name, _, _ in measure.E2E_METRICS]
    with pytest.raises(RuntimeError, match="undeclared"):
        run.metrics_payload({**values, "extra": 1.0}, measure.E2E_METRICS)
    with pytest.raises(RuntimeError, match="missing"):
        missing = {k: v for k, v in values.items() if k != "setup_s"}
        run.metrics_payload(missing, measure.E2E_METRICS)


def test_names_and_units_follow_the_contract():
    names = [m["name"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"], *SPEC["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
# the rung rule
# ----------------------------------------------------------------------
def _rung(latencies, lags=None, drain_ms=1.0):
    return measure.rung_verdict(latencies, lags or [0.1] * len(latencies), drain_ms)


def test_rung_passes_within_every_limit():
    # Nearest rank: p99 of 1000 samples is the 990th, with 10 beyond it.
    assert _rung([2.0] * 990 + [40.0] * 10)["p99_ms"] == 2.0
    verdict = _rung([2.0] * 989 + [30.0] * 11)
    assert verdict["passed"]
    assert verdict["p99_ms"] == 30.0


def test_refusals_count_as_misses_not_as_absent_samples():
    # 2% refused: all completed requests are fast, yet the rung fails,
    # and p99 lands on a refused request.
    verdict = _rung([1.0] * 980 + [math.inf] * 20)
    assert not verdict["miss_ok"] and not verdict["p99_ok"]
    assert verdict["missed"] == 20 and verdict["p99_ms"] == math.inf
    assert measure.reportable_ms(verdict["p99_ms"]) == measure.MISSED_MS
    # 1% refused is still within the miss share and p99 stays finite.
    assert _rung([1.0] * 991 + [math.inf] * 9)["passed"]


def test_rung_fails_on_slow_tail_lagging_generator_or_backlog():
    assert not _rung([1.0] * 980 + [40.0] * 20)["passed"]
    assert not _rung([1.0] * 100, lags=[0.1] * 98 + [2.0] * 2)["lag_ok"]
    assert not _rung([1.0] * 100, drain_ms=50.0)["drain_ok"]


def test_max_rps_is_the_highest_passing_rung_or_zero():
    ok, bad = _rung([1.0] * 100), _rung([50.0] * 100)
    assert measure.max_rps([(500, ok), (1000, ok), (2000, bad), (3000, ok), (4000, bad)]) == 3000
    assert measure.max_rps([(500, bad), (1000, bad)]) == 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(sid, start, end, parent=-1, name="x"):
    return spans.Span(sid, name, start, end, parent, -1, 0.0)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, 0, 100)
    children = [
        _span(1, 10, 30, 0),
        _span(2, 20, 40, 0),  # overlaps child 1: 10..40 is covered once
        _span(3, 90, 120, 0),  # runs past the parent: only 90..100 counts
        _span(4, 12, 18, 1),  # grandchild: counts against child 1 only
    ]
    selfs = spans.self_times([parent, *children])
    assert selfs[0] == 100 - 30 - 10
    assert selfs[1] == 20 - 6
    assert selfs[4] == 6


def test_span_metrics_split_a_predict_call_into_its_layers():
    ms = 1_000_000
    recorded = [
        _span(0, 0, 10 * ms, name="op.base"),
        spans.Span(1, "nn.inference.predict", 0, 9 * ms, 0, 0, 100.0),
        spans.Span(2, "nn.module.eager_forward", 1 * ms, 8 * ms, 1, 0, 400.0),
        spans.Span(3, "nn.backend.conv2d_infer", 2 * ms, 6 * ms, 2, 0, 8e6),
    ]
    out = spans.span_metrics(recorded, {})
    assert out["nn.backend.conv2d_infer.self_ms"] == pytest.approx(4.0)
    assert out["nn.backend.conv2d_infer.gflops"] == pytest.approx(2.0)
    assert out["nn.module.eager_forward.self_ms"] == pytest.approx(3.0)
    assert out["nn.inference.predict.self_ms"] == pytest.approx(2.0)
    assert out["nn.inference.forwards_per_call"] == 1.0
    assert out["nn.inference.useful_pixel_frac"] == pytest.approx(0.25)
    assert out["trace.unattributed_frac"] == pytest.approx(0.1)


def test_kernel_work_and_rate_count_only_calls_that_did_the_work():
    ms = 1_000_000
    recorded = [
        # Eager conv2d_infer delegates to conv2d, which carries the FLOPs.
        spans.Span(0, "nn.backend.conv2d_infer", 0, 2 * ms, -1, -1, 0.0),
        spans.Span(1, "nn.backend.conv2d", 0, 2 * ms, 0, -1, 8e6),
        # Compiled conv2d_infer writes into its arena buffer itself.
        spans.Span(2, "nn.backend.conv2d_infer", 3 * ms, 5 * ms, -1, -1, 4e6),
    ]
    out = spans.span_metrics(recorded, {})
    assert out["nn.backend.conv2d_infer.calls"] == 2.0
    assert out["nn.backend.conv2d_infer.self_ms"] == pytest.approx(1.0)
    assert out["nn.backend.conv2d_infer.gflop"] == pytest.approx(0.004)
    assert out["nn.backend.conv2d_infer.gflops"] == pytest.approx(2.0)
    assert out["nn.backend.conv2d.gflops"] == pytest.approx(4.0)
    x, w_mat = np.zeros((1, 2, 8, 8)), np.zeros((3, 18))
    assert spans._conv_infer_flops(None, x, w_mat, 3, 3, 1, 1) == 0.0
    direct = spans._conv_infer_flops(None, x, w_mat, 3, 3, 1, 1, out=np.zeros((1, 3, 8, 8)))
    assert direct == spans._conv_flops(None, x, w_mat, 3, 3, 1, 1) == 2.0 * 3 * 18 * 64


class _Target:
    def method(self, x):
        return x + 1


class _Child(_Target):
    pass


def test_wrap_records_and_restore_puts_every_name_back():
    recorder = spans.SpanRecorder()
    original = _Target.__dict__["method"]
    recorder.wrap(_Target, "method", "t.method", work=lambda self, x: float(x))
    recorder.wrap(_Child, "method", "c.method")  # inherited: shadowed, then removed
    with recorder.span("op.base", req=7):
        assert _Child().method(2) == 3
    recorded = {span.name: span for span in recorder.spans()}
    assert recorded["c.method"].parent == recorded["op.base"].sid
    assert recorded["t.method"].parent == recorded["c.method"].sid
    assert recorded["t.method"].req == 7 and recorded["t.method"].work == 2.0
    recorder.restore()
    assert _Target.__dict__["method"] is original
    assert "method" not in _Child.__dict__


def test_paused_recorder_records_nothing_in_any_thread():
    recorder = spans.SpanRecorder()
    recorder.wrap(_Target, "method", "t.method")
    try:
        with recorder.paused():
            assert _Target().method(1) == 2
            worker = threading.Thread(target=_Target().method, args=(1,))
            worker.start()
            worker.join(5.0)
            assert not worker.is_alive()
        _Target().method(1)
    finally:
        recorder.restore()
    assert recorder.fired["t.method"] == 1
    assert len(recorder.spans()) == 1


def test_unfired_wrapper_fails_the_traced_run():
    recorder = spans.SpanRecorder()
    table = (
        spans.Wrapper("a", lambda: _Target, "method", ("dn-small",)),
        spans.Wrapper("b", lambda: _Target, "method", ("train-dn",)),
    )
    recorder.fired["a"] += 1
    assert spans.unfired(recorder, "dn-small", table) == []
    assert spans.unfired(recorder, "train-dn", table) == ["b"]


def test_every_layer_wrapper_resolves_to_a_real_name():
    for wrapper in spans.LAYER_WRAPPERS:
        owner = wrapper.owner()
        assert callable(getattr(owner, wrapper.attr)), wrapper.span
        assert set(wrapper.workloads) <= set(workloads.WORKLOADS), wrapper.span


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
def test_fingerprint_is_bit_identity():
    fingerprint = workloads.fingerprint
    a = np.array([0.0, 1.0, 2.0, 3.0])
    assert fingerprint(a) == fingerprint(a.copy())
    assert fingerprint(a[::2]) == fingerprint(np.array([0.0, 2.0]))
    # Equal values, other bits.
    assert fingerprint(a) != fingerprint(np.array([-0.0, 1.0, 2.0, 3.0]))
    assert fingerprint(a) != fingerprint(a.astype(np.float32))
    assert fingerprint(a) != fingerprint(a[None])


def test_path_run_reports_its_least_disturbed_round_and_pooled_tail():
    path = workloads.PathRun()
    path.add_round([1.0, 2.0, 3.0], operations=30, seconds=1.0)
    path.add_round([5.0, 6.0, 7.0], operations=10, seconds=1.0)  # a burst of interference
    path.add_round([2.0, 2.5, 4.0], operations=40, seconds=2.0)
    assert path.metrics("base") == {"base.p50_ms": 2.0, "base.rate": 30.0}
    assert path.tail("base") == {"base.p99_ms": 7.0}
    refused = workloads.PathRun()
    refused.add_round([1.0, math.inf, math.inf], operations=1, seconds=1.0)
    assert refused.metrics("alt")["alt.p50_ms"] == measure.MISSED_MS


class _FakeServer:
    """Completes each request at once; request 3 comes back wrong and
    request 5 is refused."""

    def __init__(self):
        self.calls = 0

    def submit(self, image, timeout=None):
        from repro.serving.server import ServerOverloaded

        index, self.calls = self.calls, self.calls + 1
        if index == 5:
            raise ServerOverloaded("full")
        future = Future()
        future.set_result(image * 2.0 + (1.0 if index == 3 else 0.0))
        return future


def test_wrong_output_raises_failures_and_refusal_does_not():
    from repro.serving.loadgen import ArrivalTrace

    images = tuple(np.full((1, 2, 2), float(i)) for i in range(8))
    trace = ArrivalTrace(images=images, arrivals_s=tuple(i * 1e-4 for i in range(8)), rate_rps=1e4)
    tally = workloads.Tally()
    expected = [workloads.fingerprint(image * 2.0) for image in images]
    rung = workloads.replay(_FakeServer(), trace, expected, "op.base", spans.NullRecorder(), tally)
    assert (tally.attempted, tally.failed) == (8, 1)
    assert rung["verdict"]["missed"] == 1
    assert math.isinf(rung["latencies_ms"][5])
    record = {"failed": tally.failed, "attempted": tally.attempted, "metrics": {}}
    assert json.loads(run.result_line(record))["correct"] is False


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts_on_synthetic_pairs():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]

    def verdict(scale, better="lower"):
        return compare.verdict(steady, [v * scale for v in steady], better, 0.1)["verdict"]

    assert verdict(1.01) == "unchanged"
    assert verdict(1.2) == "regressed"
    assert verdict(0.8) == "improved"
    assert verdict(1.2, "higher") == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0]
    assert compare.verdict(noisy, [10.0] * 6, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(noisy, [0.5] * 6, "lower", 0.1)["verdict"] == "improved"
    # A median worse by more than the bound is a regression however noisy.
    assert compare.verdict(noisy, [20.0] * 6, "lower", 0.1)["verdict"] == "regressed"
    # A change that only adds noise is not shown unchanged.
    assert compare.verdict(steady, noisy[:5] * 2, "lower", 0.1)["verdict"] == "unresolved"


def test_compare_treats_any_rise_in_fail_frac_as_a_regression():
    parent = [{"attempted": 100, "failed": 0}] * 3
    assert compare.fail_verdict(parent, parent)["verdict"] == "unchanged"
    worse = [{"attempted": 100, "failed": 0}, {"attempted": 100, "failed": 1}]
    assert compare.fail_verdict(parent, worse)["verdict"] == "regressed"


def test_compare_reads_run_results(tmp_path):
    def write(path, scale, failed=0):
        metrics = {
            m["name"]: {"value": 10.0 * scale, "unit": m["unit"]} for m in SPEC["end_to_end"]
        }
        record = {"metrics": metrics, "attempted": 10, "failed": failed}
        path.write_text(json.dumps({"workloads": {"dn-small": record}}))
        return path

    parents = [write(tmp_path / f"p{i}.json", 1.0) for i in range(3)]
    changes = [write(tmp_path / f"c{i}.json", 1.0, failed=1) for i in range(3)]
    results = compare.compare(
        [compare.load_run(p) for p in parents], [compare.load_run(c) for c in changes], SPEC
    )
    assert set(results) == {"dn-small"}
    assert results["dn-small"]["fail_frac"]["verdict"] == "regressed"
    assert results["dn-small"]["base.p50_ms"]["verdict"] == "unchanged"
