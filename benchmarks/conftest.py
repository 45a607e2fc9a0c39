"""Shared benchmark helpers.

Each benchmark regenerates one table/figure of the paper and, besides
the timing pytest-benchmark records, writes the formatted rows to
``benchmarks/results/<name>.txt`` so the reproduction output survives
pytest's output capture.  A machine-readable ``<name>.json`` twin is
written alongside (structured rows via the experiment artifact encoder,
plus the host metadata), so downstream tooling never parses tables.
Performance is measured by ``benchmarks/e2e/``, which records the same
:func:`host_metadata` in its result files.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys

import pytest

from repro.experiments.artifacts import to_jsonable
from repro.nn.backend import BACKEND_ENV_VAR, usable_cpu_count

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def host_metadata() -> dict:
    """The environment facts a perf number depends on.

    Recorded in every benchmark JSON twin and in every
    ``benchmarks/e2e/run.py --out`` result, so a number can be told
    apart from a hardware difference: a 4-core figure means nothing on a
    1-core runner.
    """
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "backend_env": os.environ.get(BACKEND_ENV_VAR),
    }


@pytest.fixture()
def record_result():
    """Write a formatted experiment table to benchmarks/results/.

    ``data``, when given, is the benchmark's structured result (the
    experiment rows/points); it lands in ``<name>.json`` next to the
    text rendering — together with :func:`host_metadata` — so
    downstream tooling never has to parse tables.
    """

    def _record(name: str, text: str, data: object = None) -> pathlib.Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        payload = {
            "name": name,
            "text": text,
            "data": to_jsonable(data),
            "host": host_metadata(),
        }
        json_path = RESULTS_DIR / f"{name}.json"
        json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path

    return _record
