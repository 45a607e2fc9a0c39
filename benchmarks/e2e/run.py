"""End-to-end benchmark of the RingCNN stack: one command, four workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload dn-small --seed 0 --seconds 24 --trace 0
    python3 benchmarks/e2e/run.py --seed 0                  # every workload
    python3 benchmarks/e2e/run.py --seed 0 --trace 1        # per-layer metrics

Each workload runs in a fresh child process whose environment has
``REPRO_BACKEND``, ``REPRO_TUNED`` and ``REPRO_TUNING_DIR`` removed, so
the default user path is what gets measured.  For every workload the
command prints a table and then one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end set; with
``--trace 1`` the workload runs twice for half the seconds each —
untraced, then with spans recorded around every layer boundary — and
the metrics are the per-layer set, including each end-to-end metric's
tracing overhead.  The exit code is 1 when any output was wrong and 2
when a run failed.
See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Environment knobs that select a non-default backend or the autotuner.
SCRUBBED_ENV = ("REPRO_BACKEND", "REPRO_TUNED", "REPRO_TUNING_DIR")
#: Wall-clock budget of one workload invocation (untraced + traced runs).
TIME_LIMIT_S = 170.0
#: How long descendants get to exit after their workload process ended.
REAP_GRACE_S = 10.0


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _check_checkout() -> None:
    """The benchmark builds nothing: it needs the package source beside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"error: no BENCHMARK.json at {ROOT}")


# ----------------------------------------------------------------------
# child side: one workload in this process
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0  # ru_maxrss is in KiB on Linux


def child_main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import measure
    import spans
    import workloads

    recorder = spans.SpanRecorder() if trace else spans.NullRecorder()
    if trace:
        spans.install(recorder)
    try:
        result = workloads.WORKLOADS[workload](seed, seconds, recorder)
    finally:
        if trace:
            recorder.restore()
    result["e2e"]["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        missing = spans.unfired(recorder, workload)
        if missing:
            print(
                f"error: traced {workload} run never reached {', '.join(missing)}; "
                "a wrapped name is no longer the one its caller looks up",
                file=sys.stderr,
            )
            return 3
        # Layers a workload never reaches report 0.  Tails and overheads
        # come from the untraced run; the parent fills them in.
        from_untraced = {name for name, _, _ in measure.TAIL_METRICS} | {
            f"trace.overhead_frac.{name}" for name, _, _ in measure.E2E_METRICS
        }
        per_layer = {
            name: 0.0 for name, _, _ in measure.PER_LAYER_METRICS if name not in from_untraced
        }
        per_layer.update(spans.span_metrics(recorder.spans(), result["steps"]))
        per_layer.update(result["extras"])
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        dump = workloads.OUT_DIR / f"trace-{workload}-seed{seed}.json"
        recorder.dump(dump)
        result["per_layer"] = per_layer
        result["details"]["fired"] = dict(recorder.fired)
        result["details"]["span_dump"] = str(dump.relative_to(ROOT))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent side: spawn, reap, report
# ----------------------------------------------------------------------
def _become_subreaper() -> None:
    """Adopt orphaned descendants (e.g. multiprocessing's resource
    tracker) so they can be waited for; Linux only, else a no-op."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap(pgid: int) -> None:
    """Wait until every descendant has ended; kill stragglers after a grace."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, trace: bool, timeout: float) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    command = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload} run exceeded {timeout:.0f} s") from None
    finally:
        _reap(child.pid)
    lines = stdout.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run failed with exit code {child.returncode}")
    return json.loads(lines[-1])


def overhead_fracs(untraced: dict, traced: dict) -> dict[str, float]:
    """How much worse each end-to-end metric read with tracing on."""
    import measure

    out = {}
    for name, _, better in measure.E2E_METRICS:
        plain, slow = untraced[name], traced[name]
        ratio = slow / plain if better == "lower" else plain / slow
        out[f"trace.overhead_frac.{name}"] = ratio - 1.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """The untraced run; when tracing, an untraced and a traced run of
    half the seconds each, whose difference is the tracing overhead."""
    import measure

    if trace:
        seconds /= 2
    untraced = run_child(workload, seed, seconds, False, deadline - time.monotonic())
    record = {
        "workload": workload,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "problems": untraced["problems"],
        "e2e": untraced["e2e"],
        "tail": untraced["tail"],
        "details": untraced["details"],
    }
    specs = measure.E2E_METRICS
    if trace:
        traced = run_child(workload, seed, seconds, True, deadline - time.monotonic())
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["problems"] += traced["problems"]
        record["traced_e2e"] = traced["e2e"]
        record["per_layer"] = {
            **traced["per_layer"],
            **untraced["tail"],
            **overhead_fracs(untraced["e2e"], traced["e2e"]),
        }
        record["traced_details"] = traced["details"]
        specs = measure.PER_LAYER_METRICS
    record["metrics"] = metrics_payload(record["per_layer"] if trace else record["e2e"], specs)
    return record


def metrics_payload(values: dict[str, float], specs) -> dict[str, dict]:
    """The ``metrics`` object: every declared metric, nothing else."""
    declared = [name for name, _, _ in specs]
    if set(values) != set(declared):
        raise RuntimeError(
            f"emitted metrics differ from the declared set: missing "
            f"{sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in specs}


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def format_record(record: dict) -> str:
    samples = ", ".join(f"{path} {count}" for path, count in record["details"]["samples"].items())
    lines = [
        f"== {record['workload']}: {record['attempted']} outputs checked, "
        f"{record['failed']} wrong; latency samples {samples}"
    ]
    lines += [f"   ! {problem}" for problem in record["problems"]]
    for name, metric in record["metrics"].items():
        lines.append(f"   {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if "per_layer" not in record:
        tails = ", ".join(f"{name} {value:.4g} ms" for name, value in record["tail"].items())
        lines.append(f"   pooled tail (per-layer, not gated): {tails}")
    return "\n".join(lines)


def host_metadata() -> dict:
    """``benchmarks/conftest.py:host_metadata`` plus numpy's BLAS build."""
    import numpy as np

    conftest_path = ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", conftest_path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    meta = conftest.host_metadata()
    config = np.show_config(mode="dicts")
    meta["numpy"] = np.__version__
    blas = config.get("Build Dependencies", {}).get("blas", {})
    kept = ("name", "version", "openblas configuration")
    meta["blas"] = {key: blas[key] for key in kept if key in blas}
    meta["processor"] = platform.processor()
    return meta


def write_results(prefix: pathlib.Path, args, records: list[dict]) -> None:
    prefix.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": ["python3", "benchmarks/e2e/run.py", "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
        "host": host_metadata(),
        "workloads": {record["workload"]: record for record in records},
    }
    prefix.with_suffix(".json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    prefix.with_suffix(".txt").write_text(
        "\n".join(format_record(record) for record in records) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", help="workload name (repeatable; default: all)"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument(
        "--seconds", type=float, help="measured seconds per run (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write <OUT>.json and <OUT>.txt with host metadata")
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_checkout()
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args.child, args.seed, args.seconds, bool(args.trace))
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    _become_subreaper()
    records, status = [], 0
    for workload in args.workload or names:
        try:
            record = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), time.monotonic() + TIME_LIMIT_S
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        records.append(record)
        print(format_record(record))
        print(result_line(record), flush=True)
        if record["failed"]:
            status = 1
    if args.out:
        write_results(args.out, args, records)
    return status


if __name__ == "__main__":
    sys.exit(main())
