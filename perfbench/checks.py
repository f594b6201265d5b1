"""Correctness checks the benchmark runs untimed, against independent results.

Each check returns ``(ok, detail)``.  None compares against a stored copy
of earlier output: references are recomputed here by other means (direct
correlation with scipy, central finite differences, the Adam formula) or
are properties of the method (bit-identical reload, size-preserving and
globally residual restoration).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from restorekit import checkpoint, cli, ops, ppm
from restorekit.model import RestorationModel, config_by_name
from restorekit.tensor import Tensor, no_grad
from restorekit.train import OptimizerState, adam_step

from spans import CONV_KINDS, conv_kind

CONV_RTOL = 1e-4        # float32 results against a float64 reference
FD_RTOL = 1e-4          # float64 tape gradient against central differences
# one weight per kind of layer: dense 3x3, depthwise 5x5, prompt-driven
# temperature, depthwise 3x3 at the deepest level, spectral mixing, skip fusion
FD_PARAMS = ("conv_in.weight", "prompts.branch1.dw.weight",
             "encoder1.block0.attn.temp_map.weight", "latent.block0.ffn.dw.weight",
             "bottleneck.mix.weight", "fusion1.spatial_mid.weight")


def _rel_err(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))), 1e-12)
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want))) / scale


# -- conv oracle --------------------------------------------------------------

class FirstConvCalls:
    """While active, keeps inputs and output of the first ops.conv2d call per kind."""

    def __init__(self):
        self.calls: dict[str, dict] = {}

    @contextlib.contextmanager
    def capture(self):
        original = ops.conv2d

        def conv2d(x, weight, bias=None, stride=1, padding=None, groups=1):
            out = original(x, weight, bias, stride, padding, groups)
            kind = conv_kind(np.shape(x), np.shape(weight), groups)
            if kind not in self.calls:
                self.calls[kind] = {
                    "x": np.array(x.data), "w": np.array(weight.data),
                    "b": None if bias is None else np.array(bias.data),
                    "stride": stride, "padding": padding, "groups": groups,
                    "out": np.array(out.data),
                }
            return out

        ops.conv2d = conv2d
        try:
            yield self
        finally:
            ops.conv2d = original


def reference_conv(x, w, b, padding: int, groups: int, g):
    """Output, input gradient and weight gradient by direct 2-d correlation, float64."""
    # imported here so that its import time stays out of the measured set-up
    from scipy.signal import convolve2d, correlate2d

    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    n, cin, h, wd = x.shape
    cout, cpg, _, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, h, wd))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    per_group = cout // groups
    for i in range(n):
        for co in range(cout):
            first = (co // per_group) * cpg
            for cl in range(cpg):
                xc = xp[i, first + cl]
                out[i, co] += correlate2d(xc, w[co, cl], mode="valid")
                gxp[i, first + cl] += convolve2d(g[i, co], w[co, cl], mode="full")
                gw[co, cl] += correlate2d(xc, g[i, co], mode="valid")
    if b is not None:
        out += np.asarray(b, dtype=np.float64)[None, :, None, None]
    return out, gxp[:, :, padding:padding + h, padding:padding + wd], gw


def check_conv_call(call: dict, seed: int):
    """Recompute one captured conv and its gradients; compare to the program's."""
    if call["stride"] != 1:
        return False, f"unexpected stride {call['stride']}"
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(call["out"].shape).astype(call["out"].dtype)
    ref_out, ref_gx, ref_gw = reference_conv(call["x"], call["w"], call["b"],
                                             call["padding"], call["groups"], g)
    xt = Tensor(call["x"], requires_grad=True)
    wt = Tensor(call["w"], requires_grad=True)
    bt = None if call["b"] is None else Tensor(call["b"], requires_grad=True)
    ops.conv2d(xt, wt, bt, 1, call["padding"], call["groups"]).backward(g)
    errs = {"out": _rel_err(call["out"], ref_out), "grad_x": _rel_err(xt.grad, ref_gx),
            "grad_w": _rel_err(wt.grad, ref_gw)}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    return max(errs.values()) <= CONV_RTOL, detail


def conv_checks(calls: FirstConvCalls, seed: int) -> dict[str, tuple[bool, str]]:
    out = {}
    for i, kind in enumerate(CONV_KINDS):
        if kind in calls.calls:
            out[f"conv_oracle.{kind}"] = check_conv_call(calls.calls[kind], seed + i)
        else:
            out[f"conv_oracle.{kind}"] = (False, "the model made no call of this kind")
    return out


# -- gradients ----------------------------------------------------------------

def finite_difference_check(preset: str, seed: int, size: int = 8):
    """Central differences on one entry of each of FD_PARAMS, float64 model."""
    rng = np.random.default_rng(seed)
    model = RestorationModel(config_by_name(preset, seed=seed), dtype=np.float64)
    x = rng.uniform(0.1, 0.9, size=(1, 3, size, size))
    proj = rng.standard_normal((1, 3, size, size))

    def loss() -> Tensor:
        # a fixed random projection: sums of squares can have near-zero gradients
        return ops.tmean(ops.mul(model.forward(x), proj))

    model.store.zero_grads()
    loss().backward()
    worst = 0.0
    for name in FD_PARAMS:
        p = model.store[name]
        flat = p.data.reshape(-1)
        idx = int(rng.integers(flat.size))
        tape = float(p.grad.reshape(-1)[idx])
        best = np.inf
        # a real gradient error does not depend on the step; a kink crossed by
        # one step does, and so does the truncation error where the loss curves
        # sharply (full preset, seed 303, conv_in: 3.1e-4 at 1e-7, 3e-6 at 1e-8)
        for eps in (1e-6, 1e-7, 1e-5, 1e-8):
            keep = flat[idx]
            with no_grad():
                flat[idx] = keep + eps
                up = float(loss().data)
                flat[idx] = keep - eps
                down = float(loss().data)
            flat[idx] = keep
            fd = (up - down) / (2 * eps)
            best = min(best, abs(tape - fd) / max(abs(tape), abs(fd), 1e-7))
            if best <= FD_RTOL:
                break
        worst = max(worst, best)
    return worst <= FD_RTOL, f"worst relative error {worst:.1e} over {len(FD_PARAMS)} parameters"


def adam_check(store, seed: int, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
               eps: float = 1e-8, sample: int = 4096):
    """One adam_step on the store's current gradients against the bias-corrected formula.

    Moments start from seeded random values at t=4.  The formula is evaluated
    in float64 on up to ``sample`` evenly spaced entries of every parameter.
    """
    rng = np.random.default_rng(seed)
    state = OptimizerState(store)
    state.t = 4
    before = {}
    for name, p in store.items():
        state.m[name] = ((rng.random(p.data.shape, dtype=np.float32) - 0.5) * 2e-3).astype(p.data.dtype)
        state.v[name] = (rng.random(p.data.shape, dtype=np.float32) * 1e-6).astype(p.data.dtype)
        idx = np.unique(np.linspace(0, p.data.size - 1, min(p.data.size, sample)).astype(np.int64))
        before[name] = (idx, p.data.reshape(-1)[idx].astype(np.float64),
                        state.m[name].reshape(-1)[idx].astype(np.float64),
                        state.v[name].reshape(-1)[idx].astype(np.float64))
    adam_step(store, state, lr, beta1, beta2, eps)
    t = 5
    for name, p in store.items():
        idx, p0, m0, v0 = before[name]
        g = p.grad.reshape(-1)[idx].astype(np.float64)
        m = beta1 * m0 + (1 - beta1) * g
        v = beta2 * v0 + (1 - beta2) * g * g
        denom = (1 - beta1 ** t) * (np.sqrt(v / (1 - beta2 ** t)) + eps)
        step = lr * m / denom
        # the program works in the parameters' dtype: allow rounding of the
        # parameter, plus 1e-4 of the step its moment terms add up to before
        # they cancel
        terms = lr * (beta1 * np.abs(m0) + (1 - beta1) * np.abs(g)) / denom
        tol = 4 * np.finfo(p.data.dtype).eps * np.abs(p0) + 1e-4 * terms + 1e-12
        err = np.abs(p.data.reshape(-1)[idx] - (p0 - step))
        if not np.all(err <= tol):
            return False, f"parameter '{name}' off the formula by {float(err.max()):.2e}"
        ulp = 8 * np.finfo(p.data.dtype).eps
        m_err = np.abs(state.m[name].reshape(-1)[idx] - m)
        v_err = np.abs(state.v[name].reshape(-1)[idx] - v)
        if not (np.all(m_err <= ulp * (beta1 * np.abs(m0) + (1 - beta1) * np.abs(g)) + 1e-30)
                and np.all(v_err <= ulp * v + 1e-30)):
            return False, f"moments of '{name}' off the formula"
    return True, f"{len(store)} parameters"


# -- checkpoints and restore ----------------------------------------------------

def reload_check(stem, store):
    """The checkpoint at ``stem`` must load back bit-identical to ``store``."""
    loaded, _, _ = checkpoint.load_model(stem)
    for name, p in store.items():
        q = loaded.store[name].data
        if q.dtype != p.data.dtype or q.tobytes() != p.data.tobytes():
            return False, f"parameter '{name}' differs after reload"
    return True, f"{len(store)} parameters bit-identical"


def size_check(result: dict, out_path):
    written = ppm.read_ppm(out_path).shape
    ok = result["shape"] == result["in_shape"] == written
    return ok, f"input {result['in_shape']}, output {written}"


def residual_check(stem, work_dir: Path, in_path):
    """Through `restorekit restore`, zeroing conv_out must give back the input bytes."""
    manifest, arrays = checkpoint.load_checkpoint(stem)
    params = {n: a for n, a in arrays.items() if not n.startswith(checkpoint.OPTIM_PREFIX)}
    params["conv_out.weight"][:] = 0
    params["conv_out.bias"][:] = 0
    zero_stem = checkpoint.save_checkpoint(work_dir / "conv_out_zero", params, manifest["config"])
    out_path = work_dir / "conv_out_zero.ppm"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["restore", "--checkpoint", str(zero_stem), "--input", str(in_path),
                         "--output", str(out_path)])
    if code != 0:
        return False, f"restore exited with {code}"
    same = Path(out_path).read_bytes() == Path(in_path).read_bytes()
    return same, "output bytes equal input" if same else "output bytes differ from input"
