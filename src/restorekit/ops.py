"""Differentiable operations.

Free functions over :class:`~restorekit.tensor.Tensor`; each builds one (or
a few) tape nodes.  Convolution, softmax, global pooling, FFT and pixel
shuffles are fused nodes with hand-written backwards; norms and small
compositions reuse the primitives and inherit their gradients.

Conventions:
  - conv2d computes stride-1 cross-correlation (no kernel flip) with zero
    padding, default k//2 ("same" for odd k).  It is either dense
    (groups=1) or depthwise (groups = c_in = c_out), the only two kinds the
    network uses; one loop over the kernel taps serves both, forward and
    backward.  The network downsamples with pixel_unshuffle, never a stride.
  - fft2d is the unnormalized forward transform, ifft2d carries the
    1/(h*w) factor, matching ``np.fft``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError
from .tensor import Tensor, accumulate_grad, astensor, make_node

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data + b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g, a.data.shape))
        accumulate_grad(b, _unbroadcast(g, b.data.shape))

    return make_node(data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data - b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g, a.data.shape))
        accumulate_grad(b, _unbroadcast(-g, b.data.shape))

    return make_node(data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data * b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate_grad(b, _unbroadcast(g * a.data, b.data.shape))

    return make_node(data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data / b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g / b.data, a.data.shape))
        accumulate_grad(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return make_node(data, (a, b), backward, "div")


def neg(a) -> Tensor:
    a = astensor(a)

    def backward(g):
        accumulate_grad(a, -g)

    return make_node(-a.data, (a,), backward, "neg")


def exp(a) -> Tensor:
    a = astensor(a)
    data = np.exp(a.data)

    def backward(g):
        accumulate_grad(a, g * data)

    return make_node(data, (a,), backward, "exp")


def sqrt(a) -> Tensor:
    a = astensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        accumulate_grad(a, g / (2.0 * data))

    return make_node(data, (a,), backward, "sqrt")


def square(a) -> Tensor:
    a = astensor(a)

    def backward(g):
        accumulate_grad(a, g * (2.0 * a.data))

    return make_node(a.data * a.data, (a,), backward, "square")


def absolute(a) -> Tensor:
    """Elementwise |x|; subgradient 0 at exactly 0."""
    a = astensor(a)

    def backward(g):
        accumulate_grad(a, g * np.sign(a.data))

    return make_node(np.abs(a.data), (a,), backward, "abs")


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(gg, a.data.shape).copy())

    return make_node(data, (a,), backward, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / data.size

    def backward(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(gg / count, a.data.shape).copy())

    return make_node(data, (a,), backward, "mean")


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = astensor(a)

    def backward(g):
        accumulate_grad(a, g.reshape(a.data.shape))

    return make_node(a.data.reshape(shape), (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    a = astensor(a)
    inv = np.argsort(axes)

    def backward(g):
        accumulate_grad(a, g.transpose(inv))

    return make_node(a.data.transpose(axes), (a,), backward, "transpose")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate_grad(t, g[tuple(idx)])

    return make_node(data, tuple(tensors), backward, "concat")


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = astensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        gx = np.zeros_like(a.data)
        gx[idx] = g
        accumulate_grad(a, gx)

    return make_node(a.data[idx], (a,), backward, "narrow")


def chunk(a, parts: int, axis: int = 1):
    """Split evenly into ``parts`` tensors along ``axis``."""
    a = astensor(a)
    n = a.shape[axis]
    if n % parts:
        raise ShapeError(f"cannot split axis of size {n} into {parts} equal chunks")
    step = n // parts
    return [narrow(a, axis, i * step, step) for i in range(parts)]


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Batched matrix product; leading dims broadcast like ``np.matmul``."""
    a, b = astensor(a), astensor(b)
    data = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        accumulate_grad(a, _unbroadcast(ga, a.data.shape))
        accumulate_grad(b, _unbroadcast(gb, b.data.shape))

    return make_node(data, (a, b), backward, "matmul")


def linear(x, weight, bias=None) -> Tensor:
    """Affine map of row vectors: ``y = x @ weight.T + bias``.

    x: (n, d_in), weight: (d_out, d_in), bias: (d_out,) or None.
    """
    x, weight = astensor(x), astensor(weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: got x {x.shape}, weight {weight.shape}")
    data = x.data @ weight.data.T
    parents = [x, weight]
    if bias is not None:
        bias = astensor(bias)
        if bias.shape != (weight.shape[0],):
            raise ShapeError(f"linear: bias {bias.shape} does not match d_out {weight.shape[0]}")
        data = data + bias.data
        parents.append(bias)

    def backward(g):
        accumulate_grad(x, g @ weight.data)
        accumulate_grad(weight, g.T @ x.data)
        if bias is not None:
            accumulate_grad(bias, g.sum(axis=0))

    return make_node(data, tuple(parents), backward, "linear")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = astensor(a)

    def backward(g):
        accumulate_grad(a, g * (a.data > 0))

    return make_node(np.maximum(a.data, 0), (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    a = astensor(a)
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def backward(g):
        accumulate_grad(a, g * data * (1.0 - data))

    return make_node(data, (a,), backward, "sigmoid")


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU, not the tanh approximation."""
    a = astensor(a)
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * phi

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        accumulate_grad(a, g * (phi + x * pdf))

    return make_node(data, (a,), backward, "gelu")


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-stabilised softmax along ``axis``."""
    a = astensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        accumulate_grad(a, (g - dot) * data)

    return make_node(data, (a,), backward, "softmax")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(x, kind: str = "layer", num_groups: int = 1, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization, before any affine.

    kind="layer": over the channel axis per spatial position for 4-d input,
    over the last axis for 2-d input.  kind="group": channels split into
    ``num_groups`` groups, statistics over (group channels, h, w).
    Biased (population) variance throughout.
    """
    x = astensor(x)
    if kind == "layer":
        if x.ndim == 4:
            axes = (1,)
        elif x.ndim == 2:
            axes = (-1,)
        else:
            raise ShapeError(f"normalize(layer) expects 2-d or 4-d input, got {x.shape}")
        centered = sub(x, tmean(x, axis=axes, keepdims=True))
        var = tmean(square(centered), axis=axes, keepdims=True)
        return div(centered, sqrt(add(var, eps)))
    if kind == "group":
        if x.ndim != 4:
            raise ShapeError("normalize(group) expects 4-d input")
        n, c, h, w = x.shape
        if num_groups < 1 or c % num_groups:
            raise ConfigError(f"{num_groups} groups do not divide {c} channels")
        g = reshape(x, (n, num_groups, c // num_groups, h, w))
        centered = sub(g, tmean(g, axis=(2, 3, 4), keepdims=True))
        var = tmean(square(centered), axis=(2, 3, 4), keepdims=True)
        out = div(centered, sqrt(add(var, eps)))
        return reshape(out, (n, c, h, w))
    raise ConfigError(f"unknown normalize kind '{kind}'")


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """x / ||x||_2 along ``axis`` (eps keeps the zero vector finite)."""
    x = astensor(x)
    norm = sqrt(add(tsum(square(x), axis=axis, keepdims=True), eps))
    return div(x, norm)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _flat_padded(xd: np.ndarray, padding: int, kw: int):
    """Zero-pad the spatial axes of NCHW ``xd`` and flatten them to one axis.

    Returns the (n, c, plane) array and the padded width ``wp``.  Kernel tap
    (u, v) then reads the contiguous run ``[u*wp + v, u*wp + v + oh*wp)`` of
    every channel: output rows are computed at the padded width, and their
    last kw-1 columns, which wrap into the next row, are cropped.  For kw > 1
    one extra zero row at the bottom keeps the last tap's run in bounds.
    """
    extra = int(kw > 1)
    if padding or extra:
        xd = np.pad(xd, ((0, 0), (0, 0), (padding, padding + extra), (padding, padding)))
    return xd.reshape(xd.shape[0], xd.shape[1], -1), xd.shape[3]


def _conv_forward(xd, wd, padding, depthwise):
    """Sum over the kernel taps of the shifted padded input times that tap."""
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    xf, wp = _flat_padded(xd, padding, kw)
    oh, ow = h + 2 * padding - kh + 1, wp - kw + 1
    run = oh * wp
    taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # (kh, kw, cout, cin/groups)
    out = None
    for u in range(kh):
        for v in range(kw):
            win = xf[:, :, u * wp + v:u * wp + v + run]
            term = win * taps[u, v] if depthwise else taps[u, v] @ win
            if out is None:
                out = term
            else:
                out += term
    return out.reshape(n, cout, oh, wp)[:, :, :, :ow]


def _conv_backward(xd, wd, g, padding, depthwise):
    """Input and weight gradients, walking the same taps as the forward."""
    n, cin, h, w = xd.shape
    cout, _, kh, kw = wd.shape
    xf, wp = _flat_padded(xd, padding, kw)
    oh, ow = g.shape[2], g.shape[3]
    run = oh * wp
    if ow < wp:  # zero gradient on the wrapped columns, so they add nothing
        g = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, wp - ow)))
    gf = g.reshape(n, cout, run)
    taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
    gtaps = np.empty_like(taps)
    gxf = np.zeros_like(xf)
    for u in range(kh):
        for v in range(kw):
            tap = slice(u * wp + v, u * wp + v + run)
            if depthwise:
                gxf[:, :, tap] += gf * taps[u, v]
                gtaps[u, v, :, 0] = np.einsum("ncl,ncl->c", gf, xf[:, :, tap])
            else:
                gxf[:, :, tap] += taps[u, v].T @ gf
                gtaps[u, v] = np.einsum("nol,ncl->oc", gf, xf[:, :, tap], optimize=True)
    gx = gxf.reshape(n, cin, -1, wp)[:, :, padding:padding + h, padding:padding + w]
    return gx, np.ascontiguousarray(gtaps.transpose(2, 3, 0, 1))


def conv2d(x, weight, bias=None, stride: int = 1, padding: int | None = None, groups: int = 1) -> Tensor:
    """Stride-1 2-d cross-correlation over NCHW input, dense or depthwise.

    Dense (groups=1): weight (c_out, c_in, k, k).  Depthwise (groups = c_in
    = c_out): weight (c, 1, k, k), one kernel per channel.  padding=None
    means k//2, "same" for odd kernels; output size is h + 2p - k + 1.
    ``stride`` stays in the signature for callers that pass it positionally;
    anything but 1 raises :class:`ConfigError`, as does any other group count.
    """
    x, weight = astensor(x), astensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and weight, got {x.shape} and {weight.shape}")
    n, cin, h, w = x.shape
    cout, cpg, kh, kw = weight.shape
    if padding is None:
        padding = kh // 2
    if stride != 1:
        raise ConfigError(f"conv2d supports stride 1 only, got stride={stride}")
    if groups != 1 and not groups == cin == cout:
        raise ConfigError(f"groups={groups} is neither 1 nor depthwise for c_in={cin} / c_out={cout}")
    if cpg != cin // groups:
        raise ShapeError(f"weight expects {cpg * groups} input channels, input has {cin}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")

    xd, wd = x.data, weight.data
    depthwise = groups > 1
    data = _conv_forward(xd, wd, padding, depthwise)
    parents = [x, weight]
    if bias is not None:
        bias = astensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"bias shape {bias.shape} does not match c_out={cout}")
        data = data + bias.data[None, :, None, None]
        parents.append(bias)

    def backward(g):
        gx, gw = _conv_backward(xd, wd, g, padding, depthwise)
        accumulate_grad(x, gx)
        accumulate_grad(weight, gw)
        if bias is not None:
            accumulate_grad(bias, g.sum(axis=(0, 2, 3)))

    return make_node(data, tuple(parents), backward, "conv2d")


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def gap(x) -> Tensor:
    """Global average pool NCHW -> (n, c)."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError("gap expects 4-d input")
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def backward(g):
        accumulate_grad(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).copy())

    return make_node(data, (x,), backward, "gap")


def mean_std(x) -> Tensor:
    """Per-channel spatial mean and population std, concatenated to (n, 2c).

    std uses the biased variance; its gradient is defined as 0 where the
    channel is constant (std = 0), so constant inputs stay NaN-free.
    """
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError("mean_std expects 4-d input")
    n, c, h, w = x.shape
    count = h * w
    mu = x.data.mean(axis=(2, 3))
    centered = x.data - mu[:, :, None, None]
    sd = np.sqrt((centered * centered).mean(axis=(2, 3)))
    data = np.concatenate([mu, sd], axis=1)

    def backward(g):
        gmu = g[:, :c]
        gsd = g[:, c:]
        safe = np.where(sd > 0, sd, 1.0)
        gx = gmu[:, :, None, None] / count
        gx = gx + (gsd / (count * safe))[:, :, None, None] * centered
        accumulate_grad(x, np.broadcast_to(gx, x.data.shape) if gx.shape != x.data.shape else gx)

    return make_node(data, (x,), backward, "mean_std")


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

@dataclass
class ComplexMap:
    """Real/imaginary planes of a 2-d spectrum, each an NCHW tensor."""

    real: Tensor
    imag: Tensor

    @property
    def shape(self):
        return self.real.shape


def fft2d(x) -> ComplexMap:
    """Unnormalized 2-d DFT over the spatial axes of NCHW input.

    For real input x, d(sum L)/dx = Re(F g_re) + Im(F g_im) with F the
    forward transform, since F is symmetric (F^T = F).
    """
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError("fft2d expects 4-d input")
    spec = np.fft.fft2(x.data, axes=(-2, -1))
    dt = x.data.dtype

    def backward_re(g):
        accumulate_grad(x, np.fft.fft2(g, axes=(-2, -1)).real.astype(dt, copy=False))

    def backward_im(g):
        accumulate_grad(x, np.fft.fft2(g, axes=(-2, -1)).imag.astype(dt, copy=False))

    real = make_node(spec.real.astype(dt, copy=False), (x,), backward_re, "fft2d.re")
    imag = make_node(spec.imag.astype(dt, copy=False), (x,), backward_im, "fft2d.im")
    return ComplexMap(real, imag)


def ifft2d(spec: ComplexMap) -> Tensor:
    """Real part of the normalized inverse 2-d DFT of a ComplexMap."""
    re, im = spec.real, spec.imag
    if re.shape != im.shape:
        raise ShapeError("ifft2d: real/imag shapes differ")
    z = re.data + 1j * im.data
    data = np.fft.ifft2(z, axes=(-2, -1)).real
    dt = re.data.dtype

    def backward(g):
        gz = np.fft.ifft2(g, axes=(-2, -1))
        accumulate_grad(re, gz.real.astype(dt, copy=False))
        accumulate_grad(im, (-gz.imag).astype(dt, copy=False))

    return make_node(data.astype(dt, copy=False), (re, im), backward, "ifft2d")


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def pixel_unshuffle(x, r: int) -> Tensor:
    """Space-to-depth: (n,c,h,w) -> (n, c*r^2, h/r, w/r), row-major subpixels.

    Output channel c*r*r + u*r + v holds input subpixel (row u, col v).
    """
    x = astensor(x)
    n, c, h, w = x.shape
    if h % r or w % r:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by r={r}")

    def fwd(a):
        t = a.reshape(n, c, h // r, r, w // r, r)
        return np.ascontiguousarray(t.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h // r, w // r))

    def inv(a):
        t = a.reshape(n, c, r, r, h // r, w // r)
        return np.ascontiguousarray(t.transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h, w))

    def backward(g):
        accumulate_grad(x, inv(g))

    return make_node(fwd(x.data), (x,), backward, "pixel_unshuffle")


def pixel_shuffle(x, r: int) -> Tensor:
    """Depth-to-space: (n, c*r^2, h, w) -> (n, c, h*r, w*r); inverse of pixel_unshuffle."""
    x = astensor(x)
    n, crr, h, w = x.shape
    if crr % (r * r):
        raise ShapeError(f"channel dim {crr} not divisible by r^2={r * r}")
    c = crr // (r * r)

    def fwd(a):
        t = a.reshape(n, c, r, r, h, w)
        return np.ascontiguousarray(t.transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h * r, w * r))

    def inv(a):
        t = a.reshape(n, c, h, r, w, r)
        return np.ascontiguousarray(t.transpose(0, 1, 3, 5, 2, 4).reshape(n, crr, h, w))

    def backward(g):
        accumulate_grad(x, inv(g))

    return make_node(fwd(x.data), (x,), backward, "pixel_shuffle")


# ---------------------------------------------------------------------------
# operator sugar on Tensor
# ---------------------------------------------------------------------------

Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
