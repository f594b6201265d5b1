"""What importing and running the package loads: numpy, and scipy only for float64 GELU."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter, so that no module a test imported counts.
SCRIPT = """
import math
import sys

import numpy as np

import restorekit
from restorekit import checkpoint, cli, degrade, metrics, model, ops, ppm, train
from restorekit.tensor import Tensor, no_grad


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


net = model.RestorationModel(model.tiny_config(seed=0), dtype=np.float32)
pairs = degrade.make_patch_set(degrade.spec_for_task("denoise"), count=2, patch=16, seed=0)
train.train_loop(net, pairs, train.TrainConfig(steps=1, batch_size=2, seed=0))
with no_grad():
    net.forward(np.stack([pairs[0][0]]))
assert not scipy_modules(), scipy_modules()

x = np.random.default_rng(0).normal(size=3000) * 4
y = ops.gelu(Tensor(x)).data
assert "scipy.special" in sys.modules, scipy_modules()
from scipy.special import erf

# _phi's order: x * (1/sqrt 2), erf, + 1, * 0.5, then x * Phi
assert np.array_equal(y, x * (0.5 * (1 + erf(x * (1 / math.sqrt(2))))))
"""


def test_package_loads_scipy_only_for_float64_gelu():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
