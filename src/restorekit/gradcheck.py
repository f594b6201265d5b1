"""Finite-difference verification of reverse-mode gradients.

The checker perturbs entries of one input tensor in place, re-evaluating
the loss closure under no_grad, and compares central differences against
the tape gradient.  All checks run on float64: central differences at a
step of FD_STEP = 1e-5 cannot resolve 1e-4 relative error in float32.

Loss closures use fixed random linear projections of the outputs rather
than plain sums of squares; symmetric losses (e.g. of a normalized
output) can have near-zero gradients that make relative error meaningless.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Sequence

import numpy as np

from . import ops
from .errors import ConfigError, UsageError
from .tensor import Tensor, no_grad

PRIMITIVE_TOL = 1e-4
MODULE_TOL = 1e-4
MODEL_TOL = 1e-3
FD_STEP = 1e-5


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      indices: Sequence[int] | None = None) -> float:
    """Max relative error between tape and central-difference gradients of f wrt x.

    ``f`` must return a scalar tensor, must be deterministic, and must read
    the very tensor passed here (in-place perturbations of ``x.data`` have
    to be visible).  ``indices`` checks only those flat coordinates; by
    default every coordinate is checked.

    Per-coordinate error: |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).

    A coordinate whose first estimate (step FD_STEP) disagrees is re-run at
    other step sizes (smaller steps escape subgradient kinks; larger steps
    plus Richardson extrapolation beat roundoff when the true gradient is
    near zero, e.g. a bias cancelled by a following norm) and the best
    agreement is kept.  A genuine gradient bug is a step-size independent
    discrepancy, so it survives every retry.
    """
    if not x.requires_grad:
        raise UsageError("finite_diff_check needs x.requires_grad=True")
    x.grad = None
    y = f(x)
    if y.data.size != 1:
        raise UsageError(f"loss closure must return a scalar, got shape {y.data.shape}")
    y.backward()
    g_ad = np.zeros_like(x.data) if x.grad is None else np.asarray(x.grad, dtype=np.float64)

    flat = x.data.reshape(-1)
    idxs: Iterable[int] = range(flat.size) if indices is None else indices

    def central_diff(i: int, h: float) -> float:
        keep = flat[i]
        flat[i] = keep + h
        with no_grad():
            fp = float(f(x).data)
        flat[i] = keep - h
        with no_grad():
            fm = float(f(x).data)
        flat[i] = keep
        return (fp - fm) / (2.0 * h)

    def rel_err(a: float, b: float) -> float:
        return abs(a - b) / max(abs(a), abs(b), 1e-8)

    g_flat = g_ad.reshape(-1)
    worst = 0.0
    for i in idxs:
        err = rel_err(g_flat[i], central_diff(i, FD_STEP))
        if err > PRIMITIVE_TOL:
            for h in (FD_STEP / 8.0, FD_STEP / 64.0, 8.0 * FD_STEP, 64.0 * FD_STEP):
                err = min(err, rel_err(g_flat[i], central_diff(i, h)))
            for h in (8.0 * FD_STEP, 64.0 * FD_STEP):
                rich = (4.0 * central_diff(i, h / 2.0) - central_diff(i, h)) / 3.0
                err = min(err, rel_err(g_flat[i], rich))
        worst = max(worst, err)
    return worst


def _t(rng, shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _projector(rng):
    """Loss closure factory: fixed random projection, built lazily per shape."""
    weights = {}

    def lose(*outputs) -> Tensor:
        total = None
        for i, out in enumerate(outputs):
            key = (i, out.shape)
            if key not in weights:
                weights[key] = rng.normal(size=out.shape)
            term = ops.tsum(ops.mul(out, weights[key]))
            total = term if total is None else ops.add(total, term)
        return total

    return lose


def _probe_rng(seed: int, name: str) -> np.random.Generator:
    """The generator of one probe, or group sharing inputs: from ``seed`` and ``name`` alone."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def check_primitives(seed: int = 0) -> dict[str, float]:
    """Finite-difference error for every differentiable primitive, small shapes.

    Each probe, or group of probes that share inputs, draws its inputs and
    then its loss projection from its own :func:`_probe_rng`, so adding,
    removing or reordering one probe leaves every other probe's inputs and
    error as they were.
    """
    out = {}

    def run(name, f, x):
        out[name] = finite_diff_check(f, x)

    def one(name, f, shape):
        run(name, f, _t(_probe_rng(seed, name), shape))

    rng = _probe_rng(seed, "conv2d")
    x4 = _t(rng, (2, 3, 6, 6))
    w = _t(rng, (4, 3, 3, 3))
    b = _t(rng, (4,))
    run("conv2d.x", lambda v: ops.tsum(ops.square(ops.conv2d(v, w, b))), x4)
    run("conv2d.w", lambda v: ops.tsum(ops.square(ops.conv2d(x4, v, b))), w)
    run("conv2d.b", lambda v: ops.tsum(ops.square(ops.conv2d(x4, w, v))), b)
    rng = _probe_rng(seed, "conv2d.1x1")
    w1 = _t(rng, (6, 3, 1, 1))
    run("conv2d.1x1", lambda v: ops.tsum(ops.square(ops.conv2d(v, w1))), _t(rng, (2, 3, 5, 5)))
    rng = _probe_rng(seed, "conv2d.depthwise")
    xd = _t(rng, (2, 4, 5, 5))
    wd = _t(rng, (4, 1, 3, 3))
    run("conv2d.depthwise.x", lambda v: ops.tsum(ops.square(ops.conv2d(v, wd, groups=4))), xd)
    run("conv2d.depthwise.w", lambda v: ops.tsum(ops.square(ops.conv2d(xd, v, groups=4))), wd)
    rng = _probe_rng(seed, "conv2d.depthwise5")
    wd5 = _t(rng, (4, 1, 5, 5))
    run("conv2d.depthwise5", lambda v: ops.tsum(ops.square(ops.conv2d(v, wd5, groups=4))), _t(rng, (2, 4, 6, 6)))

    rng = _probe_rng(seed, "linear")
    lw, lb, lx = _t(rng, (4, 6)), _t(rng, (4,)), _t(rng, (3, 6))
    run("linear.x", lambda v: ops.tsum(ops.square(ops.linear(v, lw, lb))), lx)
    run("linear.w", lambda v: ops.tsum(ops.square(ops.linear(lx, v, lb))), lw)
    rng = _probe_rng(seed, "matmul")
    mb = _t(rng, (2, 2, 5, 3))
    run("matmul", lambda v: ops.tsum(ops.square(ops.matmul(v, mb))), _t(rng, (2, 2, 4, 5)))

    one("softmax", lambda v: ops.tsum(ops.square(ops.softmax(v, axis=-1))), (3, 7))
    one("gelu", lambda v: ops.tsum(ops.square(ops.gelu(v))), (3, 7))
    one("relu", lambda v: ops.tsum(ops.square(ops.relu(v))), (3, 7))
    one("sigmoid", lambda v: ops.tsum(ops.square(ops.sigmoid(v))), (3, 7))
    one("exp", lambda v: ops.tsum(ops.square(ops.exp(v))), (3, 4))
    one("abs", lambda v: ops.tsum(ops.absolute(v)), (3, 4))

    # random non-unit weight and bias, which a unit affine would hide
    rng = _probe_rng(seed, "normalize.layer")
    nl, lw, lb = _t(rng, (2, 4, 3, 3)), Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    run("normalize.layer", lambda v, p=_projector(rng): p(ops.normalize(v, lw, lb, 1, 1e-5)), nl)
    rng = _probe_rng(seed, "normalize.group")
    ng = _t(rng, (2, 2, 2, 3, 3))  # (n, groups, channels per group, h, w)
    gw, gb = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    run("normalize.group", lambda v, p=_projector(rng): p(ops.normalize(v, gw, gb, (2, 3, 4), 1e-5)), ng)

    one("gap", lambda v: ops.tsum(ops.square(ops.gap(v))), (2, 3, 4, 4))
    one("mean_std", lambda v: ops.tsum(ops.square(ops.mean_std(v))), (2, 3, 4, 4))

    rng = _probe_rng(seed, "fft2d")
    xf = _t(rng, (1, 2, 6, 5))
    run("fft2d", lambda v, p=_projector(rng): p(ops.fft2d(v)), xf)
    one("ifft2d", lambda v: ops.tsum(ops.square(ops.ifft2d(v))), (1, 4, 5, 7))

    one("pixel_unshuffle", lambda v: ops.tsum(ops.square(ops.pixel_unshuffle(v, 2))), (1, 2, 4, 4))
    one("pixel_shuffle", lambda v: ops.tsum(ops.square(ops.pixel_shuffle(v, 2))), (1, 8, 2, 2))
    one("concat", lambda v: ops.tsum(ops.square(ops.concat([v, v], axis=1))), (2, 3, 2, 2))
    # both operands broadcast: a over the rows, b over the batch and the columns
    rng = _probe_rng(seed, "sub")
    sa, sb = _t(rng, (2, 1, 4)), _t(rng, (3, 1))
    run("sub.a", lambda v: ops.tsum(ops.square(ops.sub(v, sb))), sa)
    run("sub.b", lambda v: ops.tsum(ops.square(ops.sub(sa, v))), sb)
    rng = _probe_rng(seed, "div.denominator")
    dv = Tensor(rng.normal(size=(3, 5)) + 3.0, requires_grad=True)
    dn = Tensor(rng.normal(size=(3, 5)))
    run("div.denominator", lambda v: ops.tsum(ops.square(ops.div(dn, v))), dv)
    # both halves feed the loss: the GELU half and the half it gates
    rng = _probe_rng(seed, "gelu_gate")
    xg = _t(rng, (2, 6, 3, 3))
    run("gelu_gate", lambda v, p=_projector(rng): p(ops.gelu_gate(v)), xg)
    # two heads of three channels; positive temperatures, as exp() makes them
    rng = _probe_rng(seed, "channel_attention")
    qkv = _t(rng, (2, 18, 3, 4))
    tau = Tensor(rng.uniform(0.5, 2.0, size=(2, 2)), requires_grad=True)
    run("channel_attention", lambda v, p=_projector(rng): p(ops.channel_attention(v, 2, tau)), qkv)
    run("channel_attention.tau", lambda v, p=_projector(rng): p(ops.channel_attention(qkv, 2, v)), tau)
    return out


def _check_module(loss_fn, inputs, store, rng) -> float:
    """Worst error over all module inputs (dense) and two sampled entries per parameter."""
    worst = 0.0
    for x in inputs:
        worst = max(worst, finite_diff_check(loss_fn, x))
    for p in store.tensors():
        idxs = rng.choice(p.size, size=min(2, p.size), replace=False)
        worst = max(worst, finite_diff_check(loss_fn, p, indices=idxs))
    return worst


def check_modules(seed: int = 0) -> dict[str, float]:
    """End-module gradients: prompts, attention block, bottleneck, skip fusion.

    Each module draws its inputs, its loss projection and the parameter
    entries it samples from its own :func:`_probe_rng`, named by its report
    key, so a change to one module's draws leaves every other module's
    inputs and error as they were.
    """
    from .attention import TransformerBlock
    from .fusion import GatedSkipFusion
    from .params import ParamStore
    from .prompts import PromptGenerator
    from .spectral import DualDomainBottleneck

    out = {}

    rng = _probe_rng(seed, "prompts")
    store = ParamStore(seed=seed, dtype=np.float64)
    gen = PromptGenerator(store, "p", channels=4, global_dim=8)
    x = _t(rng, (2, 4, 8, 8))
    proj = _projector(rng)

    def prompt_loss(_v):
        ctx = gen(x)
        return proj(ctx.global_feature, *ctx.level_prompts)

    out["prompts"] = _check_module(prompt_loss, [x], store, rng)

    rng = _probe_rng(seed, "attention_block")
    store = ParamStore(seed=seed + 1, dtype=np.float64)
    block = TransformerBlock(store, "b", channels=4, heads=2, prompt_dim=6)
    xb = _t(rng, (2, 4, 8, 8))
    pb = _t(rng, (2, 6))
    proj = _projector(rng)
    out["attention_block"] = _check_module(lambda _v: proj(block(xb, pb)), [xb, pb], store, rng)

    rng = _probe_rng(seed, "dual_domain")
    store = ParamStore(seed=seed + 2, dtype=np.float64)
    neck = DualDomainBottleneck(store, "n", channels=4, global_dim=6)
    xn = _t(rng, (2, 4, 8, 8))
    pn = _t(rng, (2, 6))
    proj = _projector(rng)
    out["dual_domain"] = _check_module(lambda _v: proj(neck(xn, pn)), [xn, pn], store, rng)

    rng = _probe_rng(seed, "skip_fusion")
    store = ParamStore(seed=seed + 3, dtype=np.float64)
    fuse = GatedSkipFusion(store, "f", channels=4)
    fe = _t(rng, (2, 4, 8, 8))
    fd = _t(rng, (2, 4, 8, 8))
    proj = _projector(rng)
    out["skip_fusion"] = _check_module(lambda _v: proj(fuse(fe, fd)), [fe, fd], store, rng)
    return out


def check_model(seed: int = 0, samples: int = 120) -> float:
    """Spot-check a tiny end-to-end model on ``samples`` random parameters."""
    from .model import RestorationModel, tiny_config

    rng = np.random.default_rng(seed)
    model = RestorationModel(tiny_config(seed=seed), dtype=np.float64)
    if not 1 <= samples <= model.param_count():
        raise ConfigError(f"samples must lie in [1, {model.param_count()}], got {samples}")
    x = Tensor(rng.uniform(0.1, 0.9, size=(1, 3, 16, 16)))

    def loss(_v):
        y = model.forward(x)
        return ops.tmean(ops.square(y))

    names = model.store.names()
    sizes = np.array([model.store[n].size for n in names])
    cum = np.cumsum(sizes)
    picks = rng.choice(int(cum[-1]), size=samples, replace=False)
    per_tensor: dict[str, list[int]] = {}
    for flat in picks:
        ti = int(np.searchsorted(cum, flat, side="right"))
        local = int(flat - (cum[ti - 1] if ti else 0))
        per_tensor.setdefault(names[ti], []).append(local)

    worst = 0.0
    for name, idxs in per_tensor.items():
        worst = max(worst, finite_diff_check(loss, model.store[name], indices=idxs))
    return worst
