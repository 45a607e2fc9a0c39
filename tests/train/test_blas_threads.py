"""Trained bytes do not depend on the BLAS thread count.

The conv VJPs run on BLAS GEMMs.  OpenBLAS splits a GEMM across threads
along its output rows and columns, never along the reduction, so every
gradient element is summed in the same order whatever the thread count.
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, so each
setting trains in its own fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

# ring-dn (DnERNet-PU on ring RI4 with f_H, n = 4) for 2 epochs.  48x48
# images make the per-sample VJP GEMMs (8 x 72 x 576) big enough for
# OpenBLAS to thread them.
TRAIN_SCRIPT = """
import sys

import numpy as np

from repro.models.ernet import dn_ernet_pu
from repro.models.factory import make_factory
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.trainer import TrainConfig
from repro.train import TrainEngine

rng = np.random.default_rng(0)
clean = rng.standard_normal((16, 1, 48, 48))
noisy = clean + 0.1 * rng.standard_normal(clean.shape)
model = dn_ernet_pu(blocks=1, ratio=1, factory=make_factory("proposed", 4), seed=0)
loader = DataLoader(ArrayDataset(noisy, clean), batch_size=8, seed=0)
TrainEngine(model, TrainConfig(epochs=2, batch_size=8)).fit(loader)
np.savez(sys.argv[1], **model.state_dict())
"""


def _train(tmp_path: pathlib.Path, threads: int) -> dict[str, bytes]:
    out = tmp_path / f"threads{threads}.npz"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", TRAIN_SCRIPT, str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(out) as data:
        return {name: data[name].tobytes() for name in data.files}


def test_trained_bytes_equal_across_blas_thread_counts(tmp_path):
    one = _train(tmp_path, 1)
    two = _train(tmp_path, 2)
    assert one, "no arrays in the state dict"
    assert one.keys() == two.keys()
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"arrays differ between 1 and 2 BLAS threads: {differ}"
