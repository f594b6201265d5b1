"""Differentiable operations.

Free functions over :class:`~restorekit.tensor.Tensor`; each builds one
tape node.  Convolution, softmax, standardize, mean_std, FFT, gelu_gate and
channel_attention are single nodes with hand-written backwards.  gap reuses
tmean and inherits its gradient.

The elementwise, shape and reduction ops state only a value and a gradient
rule; two private builders wire their nodes.  _binary (add, sub, mul, div)
sums each operand's gradient back to its shape, and _unary takes
grad(g, x, y) for the one-input ops, the pixel shuffles (each one's
backward is the other's forward) and, through _reduce, tsum and tmean.
Both call make_node through this module's global, so a wrapper patched
over ``ops.make_node`` sees every node.

Conventions:
  - conv2d computes stride-1 "same" cross-correlation (no kernel flip): an
    odd square kernel, zero padding k//2, output the size of the input, and
    input, weight and bias of one dtype; these are the only calls the
    network makes, and conv2d refuses any other.  It is either dense
    (groups=1) or depthwise (groups = c_in = c_out).  One column-matrix
    walk, _walk (im2col, Chellapilla et al. 2006), serves every kind and
    all three passes.  The forward is the weight, as rows of (groups,
    c_out/groups, c_in/groups * k*k), times the input's column matrix.  The
    input gradient of a "same" correlation is the same correlation of the
    output gradient with the taps flipped in space and transposed in/out
    within each group, so it is the same walk on the output gradient, and
    that walk's column matrix times the input, summed over the batch, is
    the weight gradient.  The walk takes one block of source channels at a
    time, whole depthwise channels or a chunk of a dense conv's input
    channels whose partial sums accumulate, each block's scratch about
    DW_BLOCK_BYTES so that it stays in L2.  Each channel is one flat run
    of h*w pixels at the map's own width: the block is copied once into a
    reused scratch with k//2 zero rows above and below, one copy from a
    read-only strided window over it, built once per call, fills a column
    matrix with the k*k shifted runs, and the entries that a horizontal
    shift wrapped into the neighbouring row are zeroed.  One matmul then
    sums the taps straight into the output; the bias is added once at the
    end.  A dense conv's later chunks sum into one accumulator of a run of
    output rows and add it to the output.  The weight gradient reads the
    conv's input in place.  A 1x1 reads the map itself as its column
    matrix.  No column matrix or padded copy of a whole map is made.  The
    taps are summed in BLAS order, not tap by tap, but each depthwise
    channel's sum is the same call whatever block it falls in, so its
    result does not depend on the block size, and reruns are bit-identical.
    The network downsamples with pixel_unshuffle, never a stride.
  - Ops keep the dtype of their tensor operands: a float32 graph computes
    and differentiates in float32, a float64 graph in float64.  A Python
    or numpy scalar passed to add, sub, mul or div adopts the dtype of the
    float tensor on the other side, so a constant never promotes a float32
    map to float64.
  - Every GELU is one walk, _gelu_walk, over flat chunks of CHUNK
    elements with reused scratch so that the dozen-odd elementwise passes
    stay in cache, Phi from one normal-CDF kernel, _phi: gelu itself, and
    gelu_gate, the feed-forward's gelu(first half) * second half, fused
    into one node.
    float32 builds erf from SIMD ufuncs (within 2e-7 of erf); float64 calls
    scipy's erf, and its results are those of the whole-array formulas.
    scipy.special is imported on the first float64 call, not with the
    package: float32 training and restore, and the CLI, load numpy only.
  - A spectrum is one real NCHW tensor: fft2d maps (n, c, h, w) to
    (n, 2c, h, w) with the real parts in channels [0, c) and the imaginary
    parts in [c, 2c), the layout mean_std uses for its two statistics, and
    ifft2d takes that layout back to (n, c, h, w).  fft2d is the
    unnormalized forward transform, ifft2d carries the 1/(h*w) factor,
    matching ``np.fft``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, accumulate_grad, astensor, make_node, recording

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Abramowitz and Stegun 7.1.26: p, and a1..a5 halved (see _phi)
_AS_P = 0.3275911
_AS_HALF_A = tuple(0.5 * a for a in (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
# Elements of one flat chunk of the GELU walk and of train.adam_step: 256 KB
# of float32, so a chunk and its few scratch buffers stay in L2 while the
# dozen-odd elementwise passes of either run over them.
CHUNK = 64 * 1024
# Bytes of one block of a conv's source channels (see _walk): the source
# with its zero rows, its column matrix and the output run its matmul
# writes, per channel, in either pass.  It sizes depthwise blocks, dense
# input-channel chunks and the runs of output rows one matmul sums into a
# dense conv's accumulator (no call of the benchmark's 32 px training or
# 64 px restore splits its rows), but was tuned on depthwise calls only:
# over the network's call lists (float32, one BLAS thread) 1 MB was fastest
# for both passes.  Over its dw3 calls 512 KB took 5-15 % longer and 2 MB
# 13-17 %.  Without the output run, the tiny preset's batch-8 32 px
# backward blocks grew to 885 KB column matrices that did not fit memory the
# heap had freed, and train-tiny's peak RSS rose 0.8 MB.
DW_BLOCK_BYTES = 1024 * 1024


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

def _operands(a, b):
    """Wrap a binary op's operands; a bare scalar takes a float tensor's dtype."""
    def wrap(x, other):
        if (not isinstance(x, Tensor) and isinstance(other, Tensor)
                and other.data.dtype.kind == "f" and np.ndim(x) == 0):
            return astensor(x, other.data.dtype)
        return astensor(x)

    return wrap(a, b), wrap(b, a)


def _binary(a, b, data, ga, gb, op: str) -> Tensor:
    """A two-input op's node; ``ga(g)``, ``gb(g)`` are its operands' gradients before unbroadcasting."""
    def backward(g):
        accumulate_grad(a, _unbroadcast(ga(g), a.data.shape))
        accumulate_grad(b, _unbroadcast(gb(g), b.data.shape))

    return make_node(data, (a, b), backward, op)


def _unary(a, data, grad, op: str) -> Tensor:
    """A one-input op's node; ``grad(g, x, y)`` is its gradient from g, input x and output y."""
    def backward(g):
        accumulate_grad(a, grad(g, a.data, data))

    return make_node(data, (a,), backward, op)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g, "add")


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g, "sub")


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data, "mul")


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _binary(a, b, a.data / b.data, lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data), "div")


def neg(a) -> Tensor:
    a = astensor(a)
    return _unary(a, -a.data, lambda g, *_: -g, "neg")


def exp(a) -> Tensor:
    a = astensor(a)
    return _unary(a, np.exp(a.data), lambda g, x, y: g * y, "exp")


def sqrt(a) -> Tensor:
    a = astensor(a)
    return _unary(a, np.sqrt(a.data), lambda g, x, y: g / (2.0 * y), "sqrt")


def square(a) -> Tensor:
    a = astensor(a)
    return _unary(a, a.data * a.data, lambda g, x, y: g * (2.0 * x), "square")


def absolute(a) -> Tensor:
    """Elementwise |x|; subgradient 0 at exactly 0."""
    a = astensor(a)
    return _unary(a, np.abs(a.data), lambda g, x, y: g * np.sign(x), "abs")


def _reduce(a, data, axis, keepdims: bool, count, op: str) -> Tensor:
    """A sum's (``count`` None) or mean's node; the backward spreads g or g / count over ``axis``."""
    def grad(g, x, y):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g if count is None else g / count, x.shape).copy()

    return _unary(a, data, grad, op)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    return _reduce(a, a.data.sum(axis=axis, keepdims=keepdims), axis, keepdims, None, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    return _reduce(a, data, axis, keepdims, a.data.size / data.size, "mean")


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = astensor(a)
    return _unary(a, a.data.reshape(shape), lambda g, x, y: g.reshape(x.shape), "reshape")


def transpose(a, axes) -> Tensor:
    a = astensor(a)
    return _unary(a, a.data.transpose(axes), lambda g, *_: g.transpose(np.argsort(axes)), "transpose")


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
    """Contiguous slice of ``length`` entries along ``axis``.

    The backward writes the slice's gradient into a zero map of ``a``.
    """
    a = astensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        gx = np.zeros_like(a.data)
        gx[idx] = g
        accumulate_grad(a, gx)

    return make_node(a.data[idx], (a,), backward, "narrow")


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


def linear(x, weight, bias) -> Tensor:
    """Affine map of row vectors: ``y = x @ weight.T + bias``.

    x: (n, d_in), weight: (d_out, d_in), bias: (d_out,).
    """
    x, weight, bias = astensor(x), astensor(weight), astensor(bias)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: got x {x.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias {bias.shape} does not match d_out {weight.shape[0]}")
    data = x.data @ weight.data.T + bias.data

    def backward(g):
        accumulate_grad(x, g @ weight.data)
        accumulate_grad(weight, g.T @ x.data)
        accumulate_grad(bias, g.sum(axis=0))

    return make_node(data, (x, weight, bias), backward, "linear")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = astensor(a)
    return _unary(a, np.maximum(a.data, 0), lambda g, x, y: g * (x > 0), "relu")


def sigmoid(a) -> Tensor:
    a = astensor(a)
    x = a.data
    # e = exp(-|x|) never overflows; 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _unary(a, data, lambda g, x, y: g * y * (1.0 - y), "sigmoid")


def _phi(x: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """The normal CDF Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) of the flat chunk ``x``, into ``out``.

    ``tmp`` is scratch of ``x``'s size.  float64 runs scipy's ``erf`` in
    the order x * (1/sqrt 2), erf, + 1, * 0.5; scipy.special, the package's
    only use of scipy, is imported here so that loading the package and
    float32 work never pay its import.  float32 builds erf from
    SIMD ufuncs, Abramowitz and Stegun 7.1.26: for z = |x| / sqrt 2 and
    t = 1 / (1 + p z), 1 - erf(z) = P(t) exp(-z^2) with P of degree 5 and
    error at most 1.5e-7.  With h = P(t) exp(-z^2) / 2 (the coefficients
    halved), Phi(x) = 0.5 + copysign(0.5 - h, x).  No masks or branches;
    inf, -inf and nan give 1, 0 and nan as scipy's erf does.
    """
    if x.dtype != np.float32:
        from scipy.special import erf

        np.multiply(x, _INV_SQRT2, out=out)
        erf(out, out=out)
        out += 1.0
        out *= 0.5
        return
    np.abs(x, out=tmp)
    tmp *= _AS_P * _INV_SQRT2
    tmp += 1.0
    np.reciprocal(tmp, out=tmp)
    np.multiply(tmp, _AS_HALF_A[-1], out=out)
    for a in _AS_HALF_A[-2::-1]:
        out += a
        out *= tmp
    np.multiply(x, x, out=tmp)
    tmp *= -0.5
    np.exp(tmp, out=tmp)
    out *= tmp
    np.subtract(0.5, out, out=out)
    np.copysign(out, x, out=out)
    out += 0.5


def _gelu_slope(x: np.ndarray, phi: np.ndarray, out: np.ndarray):
    """d gelu / dx = Phi(x) + x * pdf(x) of the flat chunk ``x``, into ``out``."""
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT2PI
    out *= x
    out += phi


def _gelu_walk(y: Tensor, x: np.ndarray, b: np.ndarray | None, shape, op: str) -> Tensor:
    """gelu(x) * b over the (n, m) runs ``x`` and ``b`` of ``y``'s data, one node of ``shape``.

    ``b`` None gives the plain GELU.  Each run is walked CHUNK elements at a
    time, Phi from :func:`_phi` into reused scratch, so no full-size
    temporary is made.  Phi is kept for the backward only when the node
    goes on the tape.  The backward writes g * b * (Phi(x) + x * pdf(x)),
    b = 1 without a gate, into x's part of y's gradient and, with a gate,
    g * x * Phi(x) into b's.
    """
    n, m = x.shape
    keep = recording((y,))
    data = np.empty((n, m), x.dtype)
    phi = np.empty((n, m), x.dtype) if keep else None
    pbuf, tmp = (np.empty(min(m, CHUNK), x.dtype) for _ in range(2))
    for i in range(n):
        for lo in range(0, m, CHUNK):
            sl = slice(lo, lo + CHUNK)
            a, out = x[i, sl], data[i, sl]
            p = phi[i, sl] if keep else pbuf[:a.size]
            _phi(a, p, tmp[:a.size])
            np.multiply(a, p, out=out)
            if b is not None:
                out *= b[i, sl]

    def backward(g):
        gf = g.reshape(n, m)
        gy = np.empty((n, 1 if b is None else 2, m), x.dtype)
        slope = np.empty(min(m, CHUNK), x.dtype)
        for i in range(n):
            for lo in range(0, m, CHUNK):
                sl = slice(lo, lo + CHUNK)
                a, p, gg, ga = x[i, sl], phi[i, sl], gf[i, sl], gy[i, 0, sl]
                t = slope[:a.size]
                _gelu_slope(a, p, t)
                np.multiply(gg, t if b is None else b[i, sl], out=ga)
                if b is not None:
                    ga *= t
                    gb = gy[i, 1, sl]
                    np.multiply(a, p, out=gb)
                    gb *= gg
        accumulate_grad(y, gy.reshape(y.shape))

    return make_node(data.reshape(shape), (y,), backward, op)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU, not the tanh approximation: x * Phi(x).

    The flat input is one run of :func:`_gelu_walk`, which :func:`gelu_gate`
    shares.
    """
    a = astensor(a)
    return _gelu_walk(a, a.data.reshape(1, -1), None, a.shape, "gelu")


def gelu_gate(y) -> Tensor:
    """Restormer's feed-forward gate: gelu(y[:, :h]) * y[:, h:] of (n, 2h, H, W) input, one node.

    Each image's two halves are contiguous runs of y, walked by
    :func:`_gelu_walk`.  In float64 every element runs the operations of
    ``mul(gelu(a), b)`` over ``narrow`` halves in the same order, so the result
    and the input gradient are bit-identical to that composition.
    """
    y = astensor(y)
    if y.ndim != 4 or y.shape[1] % 2:
        raise ShapeError(f"gelu_gate expects (n, 2h, H, W) input, got {y.shape}")
    n, c2, hh, ww = y.shape
    yd = y.data.reshape(n, 2, -1)
    return _gelu_walk(y, yd[:, 0], yd[:, 1], (n, c2 // 2, hh, ww), "gelu_gate")


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

def standardize(x, axes, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) over ``axes``, biased variance, one node.

    The backward is the closed form (g - mean(g) - y * mean(g * y)) / std
    from the output y and std = sqrt(var + eps), both kept from the forward.
    """
    x = astensor(x)
    centered = x.data - x.data.mean(axis=axes, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=axes, keepdims=True) + eps)
    data = centered / std

    def backward(g):
        gy = (g * data).mean(axis=axes, keepdims=True)
        accumulate_grad(x, (g - g.mean(axis=axes, keepdims=True) - data * gy) / std)

    return make_node(data, (x,), backward, "standardize")


# ---------------------------------------------------------------------------
# channel attention
# ---------------------------------------------------------------------------

def _channel_attention_map(qkv: np.ndarray, heads: int, tau):
    """Restormer's channel-attention map of (n, 3c, h, w) ``qkv``, per head.

    Returns q, k and v, (n, heads, d, h*w) views of ``qkv``; their row
    norms nq and nk, sqrt(sum(x^2) + 1e-12), (n, heads, d, 1); the cosine
    Gram matrix S = (q @ k^T) / nq / nk^T; and the shift-stabilised
    softmax A of S / tau along its rows, both (n, heads, d, d).  ``tau``
    is an (n, heads) array or None (a temperature of 1).  The unit
    vectors q / nq and k / nk are never built.
    """
    n, c3, hh, ww = qkv.shape
    q, k, v = np.moveaxis(qkv.reshape(n, 3, heads, c3 // (3 * heads), hh * ww), 1, 0)
    # the eps keeps a zero row finite
    nq = np.sqrt((q * q).sum(axis=-1, keepdims=True) + 1e-12)
    nk = np.sqrt((k * k).sum(axis=-1, keepdims=True) + 1e-12)
    s = q @ np.swapaxes(k, -1, -2)
    s /= nq
    s /= np.swapaxes(nk, -1, -2)
    logits = s if tau is None else s / tau[:, :, None, None]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return q, k, v, nq, nk, s, e / e.sum(axis=-1, keepdims=True)


def channel_attention(qkv, heads: int, tau=None) -> Tensor:
    """Transposed (channel) attention, MDTA of Restormer: (n, 3c, h, w) -> (n, c, h, w), one node.

    Channels [0, c), [c, 2c) and [2c, 3c) of ``qkv`` are q, k and v, each
    split into ``heads`` heads of d = c / heads channels.  Per head, the
    output is A @ v with A the row softmax of the cosine similarities of
    the rows of q and k, divided by the temperature ``tau`` ((n, heads),
    or None for 1); see :func:`_channel_attention_map`.  The closure keeps
    only A, S, the norms and tau beside ``qkv``, all (n, heads, d, d) or
    smaller.  The backward is closed-form through the softmax and both
    normalisations, into one (n, 3, heads, d, h*w) gradient map of
    ``qkv``; with gL the logits' gradient and gS = gL / tau,

        gq = (gS / nk^T / nq) @ k - (rowsum(gS * S) / nq^2) * q
        gk = (gS^T / nq^T / nk) @ q - (colsum(gS * S)^T / nk^2) * k
        gv = A^T @ g,   gtau = -sum(gL * S / tau) / tau.
    """
    qkv = astensor(qkv)
    if qkv.ndim != 4 or qkv.shape[1] % (3 * heads):
        raise ShapeError(f"channel_attention: cannot split {qkv.shape} into q, k, v of {heads} heads")
    n, c3, hh, ww = qkv.shape
    parents, td = (qkv,), None
    if tau is not None:
        tau = astensor(tau)
        if tau.shape != (n, heads):
            raise ShapeError(f"channel_attention: tau {tau.shape} is not ({n}, {heads})")
        parents, td = (qkv, tau), tau.data
    q, k, v, nq, nk, s, a = _channel_attention_map(qkv.data, heads, td)
    data = (a @ v).reshape(n, c3 // 3, hh, ww)

    def backward(g):
        g = g.reshape(v.shape)
        gx = np.empty((n, 3) + v.shape[1:], v.dtype)
        gq, gk, gv = np.moveaxis(gx, 1, 0)
        np.matmul(np.swapaxes(a, -1, -2), g, out=gv)
        ga = g @ np.swapaxes(v, -1, -2)
        gl = ga - (ga * a).sum(axis=-1, keepdims=True)
        gl *= a
        gs = gl if td is None else gl / td[:, :, None, None]
        gss = gs * s
        np.matmul(gs / np.swapaxes(nk, -1, -2) / nq, k, out=gq)
        gq -= gss.sum(axis=-1, keepdims=True) / (nq * nq) * q
        np.matmul(np.swapaxes(gs, -1, -2) / np.swapaxes(nq, -1, -2) / nk, q, out=gk)
        gk -= np.swapaxes(gss.sum(axis=-2, keepdims=True), -1, -2) / (nk * nk) * k
        accumulate_grad(qkv, gx.reshape(qkv.shape))
        if td is not None:
            # logits = S / tau, so gL * logits / tau = gS * S / tau
            accumulate_grad(tau, -gss.sum(axis=(-2, -1)) / td)

    return make_node(data, parents, backward, "channel_attention")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _tap_window(sbuf: np.ndarray, k: int, w: int, run: int):
    """Read-only (n, step, k, k, run) view of the scratch ``sbuf``: the column matrix.

    ``sbuf`` is (n, step, run + 2*(p*w + p)) with p = k//2: per channel, a
    flattened h*w plane with p*w + p zeros (p rows and p more) before and
    after it.
    Entry [:, j, u, v] is channel j's run of ``run`` elements starting at
    u*w + v, its shift by tap (u, v): output pixel (y, x) reads pixel
    (y + u - p, x + v - p), or a zero above or below the map.  Where x + v - p
    leaves the row, the run reads the neighbouring row instead, and the
    walk zeroes those entries after the copy.  The ndarray constructor
    refuses a view that would reach past ``sbuf``.  A view: it reads
    whatever block was copied last.  It is built directly rather than with
    sliding_window_view, whose dozen-odd temporary objects a call (14 us
    against 1 us) also let train-tiny's peak RSS creep up by 0.5-1.8 MB
    over a 20 s run.
    """
    n, step = sbuf.shape[:2]
    s0, s1 = sbuf.strides[:2]
    item = sbuf.itemsize
    win = np.ndarray((n, step, k, k, run), sbuf.dtype, sbuf, 0, (s0, s1, w * item, item, item))
    win.flags.writeable = False
    return win


def _walk(src, rows, k: int, bias=None, x=None):
    """"Same" correlation of NCHW ``src`` with the grouped weight ``rows``, plus bias.

    ``rows`` is (groups, m, c/groups * k*k): per group, each of its m output
    channels is one row over the group's c/groups source channels and k*k
    taps, channel j's tap (u, v) at column j*k*k + u*k + v.  The walk goes
    one block of source channels at a time: a run of whole groups
    (depthwise) or a run of the one group's channels (dense), as many, at
    least one, as keep the block's scratch near DW_BLOCK_BYTES.  Each
    channel is one flat run of h*w pixels.  The block is copied once into a
    reused scratch with zero rows above and below (see :func:`_tap_window`),
    one copy from the window over it, built once per call, fills a reused
    column matrix with the k*k shifted runs of each channel, and the
    entries of tap column v that wrapped into the neighbouring row are
    zeroed: the last v - k//2 of each row for v > k//2, the first k//2 - v
    for v < k//2, all of them once that reaches w.  Matmuls with the
    block's columns of ``rows`` write the tap sums straight into the
    output, in runs of m's rows (a depthwise group has one row); a dense
    group's later blocks sum into one accumulator of such a run and add it
    to the output.  The bias is added once, at the end.  A 1x1 is one
    block whose column matrix is ``src`` itself.

    With ``x``, the conv's input, ``src`` is the output gradient and
    ``rows`` the flipped, transposed taps, and the walk also returns the
    weight gradient, (groups, c/groups * k*k, x's c/groups): each block's
    column matrix times its groups' x, read in place, summed over the batch
    (at batch 1 the matmul writes it directly).  Row j*k*k + u*k + v pairs
    source channel j shifted by (u - k//2, v - k//2) with x, so the taps
    come out reversed.  Each depthwise channel's sums are the same BLAS
    calls whatever block it falls in, so its results do not depend on the
    block size.
    """
    n, c, h, w = src.shape
    groups, m, _ = rows.shape
    cpg, kk, p = c // groups, k * k, k // 2
    run = h * w
    dt = src.dtype
    out = np.empty((n, groups * m, h, w), dt)
    outg = out.reshape(n, groups, m, run)
    if x is not None:
        xpg = x.shape[1] // groups
        gw = np.empty((groups, cpg * kk, xpg), dt)
    if k == 1:
        step, mstep = c, m
    else:
        pad = p * w + p
        size = run + 2 * pad
        # the padded source, its column matrix and its output run, per channel
        step = min(c, max(1, DW_BLOCK_BYTES // (n * (size + (kk + 1) * run) * dt.itemsize)))
        # output rows per matmul, so that a dense group's partial sum stays
        # near one block too
        mstep = min(m, max(1, DW_BLOCK_BYTES // (n * run * dt.itemsize)))
        sbuf = np.zeros((n, step, size), dt)
        planes = sbuf[..., pad:pad + run].reshape(n, step, h, w)
        win = _tap_window(sbuf, k, w, run)
        colbuf = np.empty((n, step, kk, run), dt)
        if step < cpg:
            acc = np.empty((n, 1, mstep, run), dt)
    for c0 in range(0, c, step):
        cb = min(step, c - c0)
        # groups g0..g0+gb, channels j0..j0+jb of each (one of gb, jb is 1)
        g0, j0 = divmod(c0, cpg)
        gb, jb = -(-cb // cpg), min(cb, cpg)
        r = rows[g0:g0 + gb, :, j0 * kk:(j0 + jb) * kk]
        if k == 1:
            cols = src.reshape(n, groups, cpg, run)
        else:
            planes[:, :cb] = src[:, c0:c0 + cb]
            cols = colbuf[:, :cb]
            np.copyto(cols.reshape(n, cb, k, k, run), win[:, :cb])
            taps = cols.reshape(n, cb, k, k, h, w)
            for v in range(k):
                if v > p:
                    taps[:, :, :, v, :, max(w - v + p, 0):] = 0
                elif v < p:
                    taps[:, :, :, v, :, :min(p - v, w)] = 0
            cols = cols.reshape(n, gb, jb * kk, run)
        for m0 in range(0, m, mstep):
            mb = min(mstep, m - m0)
            o = outg[:, g0:g0 + gb, m0:m0 + mb]
            if j0:
                np.matmul(r[:, m0:m0 + mb], cols, out=acc[:, :, :mb])
                o += acc[:, :, :mb]
            else:
                np.matmul(r[:, m0:m0 + mb], cols, out=o)
        if x is not None:
            xg = x[:, g0 * xpg:(g0 + gb) * xpg].reshape(n, gb, xpg, run)
            # one x channel per group as a column, which numpy hands to gemv
            xt = xg.reshape(n, gb, run, 1) if xpg == 1 else xg.swapaxes(-1, -2)
            gwb = gw[g0:g0 + gb, j0 * kk:(j0 + jb) * kk]
            if n == 1:
                # no batch to sum over: the matmul writes the gradient itself
                np.matmul(cols[0], xt[0], out=gwb)
            else:
                np.matmul(cols, xt).sum(axis=0, out=gwb)
    if bias is not None:
        out += bias[:, None, None]
    return out if x is None else (out, gw)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int | None = None, groups: int = 1) -> Tensor:
    """Stride-1 "same" 2-d cross-correlation over NCHW input, dense or depthwise.

    Dense (groups=1): weight (c_out, c_in, k, k).  Depthwise (groups = c_in
    = c_out): weight (c, 1, k, k), one kernel per channel.  k is odd and the
    padding k//2 (None means k//2), so the output has the input's size.
    ``stride`` stays in the signature for callers that pass it positionally.
    Any other stride, kernel, padding or group count raises
    :class:`ConfigError`; input, weight and bias of different dtypes raise
    :class:`ShapeError`.  The bias is added inside the kernel, in one pass
    over the finished tap sums; the result is C-contiguous.
    """
    x, weight = astensor(x), astensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and weight, got {x.shape} and {weight.shape}")
    cin = x.shape[1]
    cout, cpg, kh, kw = weight.shape
    if stride != 1:
        raise ConfigError(f"conv2d supports stride 1 only, got stride={stride}")
    if kh != kw or kh % 2 == 0:
        raise ConfigError(f"conv2d supports odd square kernels only, got {kh}x{kw}")
    if padding not in (None, kh // 2):
        raise ConfigError(f"conv2d supports 'same' padding only: {kh // 2} for a {kh}x{kw} kernel, got {padding}")
    if groups != 1 and not groups == cin == cout:
        raise ConfigError(f"groups={groups} is neither 1 nor depthwise for c_in={cin} / c_out={cout}")
    if cpg != cin // groups:
        raise ShapeError(f"weight expects {cpg * groups} input channels, input has {cin}")

    parents = [x, weight]
    if bias is not None:
        bias = astensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"bias shape {bias.shape} does not match c_out={cout}")
        parents.append(bias)
    if len({t.data.dtype for t in parents}) > 1:
        raise ShapeError(f"conv2d expects one dtype, got {', '.join(str(t.data.dtype) for t in parents)}")
    xd, wd = x.data, weight.data
    opg, kk = cout // groups, kh * kh
    data = _walk(xd, wd.reshape(groups, opg, cpg * kk), kh, None if bias is None else bias.data)

    def backward(g):
        # the taps flipped in space and transposed in/out within each group:
        # a 1x1's stay a transposed view of the weight, a kxk's are copied so
        # that BLAS, not numpy's own loop, reads them
        flipped = wd.reshape(groups, opg, cpg, kk)[..., ::-1].transpose(0, 2, 1, 3)
        if kh > 1:
            flipped = np.ascontiguousarray(flipped)
        gx, gw = _walk(g, flipped.reshape(groups, cpg, opg * kk), kh, x=xd)
        accumulate_grad(x, gx)
        gw = gw.reshape(groups, opg, kk, cpg)[:, :, ::-1].transpose(0, 1, 3, 2)
        accumulate_grad(weight, np.ascontiguousarray(gw).reshape(wd.shape))
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
    return tmean(x, axis=(2, 3))


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
        accumulate_grad(x, gx)

    return make_node(data, (x,), backward, "mean_std")


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

def fft2d(x) -> Tensor:
    """Unnormalized 2-d DFT over the spatial axes of NCHW input, as (n, 2c, h, w).

    Channels [0, c) hold the real parts and [c, 2c) the imaginary parts.
    For real input x and a gradient [g_re; g_im] on the output,
    d(sum L)/dx = Re(F g_re) + Im(F g_im) = Re(F(g_re - i g_im)) with F the
    forward transform, since F is symmetric (F^T = F): one FFT per backward.
    """
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError("fft2d expects 4-d input")
    c = x.shape[1]
    dt = x.data.dtype
    spec = np.fft.fft2(x.data, axes=(-2, -1))
    data = np.concatenate([spec.real, spec.imag], axis=1, dtype=dt)

    def backward(g):
        gz = np.fft.fft2(g[:, :c] - 1j * g[:, c:], axes=(-2, -1))
        accumulate_grad(x, gz.real.astype(dt, copy=False))

    return make_node(data, (x,), backward, "fft2d")


def ifft2d(z) -> Tensor:
    """Real part of the normalized inverse 2-d DFT of a stacked spectrum.

    z is (n, 2c, h, w) in fft2d's layout (real parts, then imaginary
    parts); the result is (n, c, h, w).
    """
    z = astensor(z)
    if z.ndim != 4 or z.shape[1] % 2:
        raise ShapeError(f"ifft2d expects (n, 2c, h, w) stacked real/imag planes, got {z.shape}")
    c = z.shape[1] // 2
    dt = z.data.dtype
    data = np.fft.ifft2(z.data[:, :c] + 1j * z.data[:, c:], axes=(-2, -1)).real

    def backward(g):
        gz = np.fft.ifft2(g, axes=(-2, -1))
        accumulate_grad(z, np.concatenate([gz.real, -gz.imag], axis=1, dtype=dt))

    return make_node(data.astype(dt, copy=False), (z,), backward, "ifft2d")


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _space_to_depth(a: np.ndarray, r: int) -> np.ndarray:
    """(n, c, h, w) -> (n, c*r^2, h/r, w/r): channel c*r*r + u*r + v holds subpixel (u, v)."""
    n, c, h, w = a.shape
    t = a.reshape(n, c, h // r, r, w // r, r)
    return np.ascontiguousarray(t.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h // r, w // r))


def _depth_to_space(a: np.ndarray, r: int) -> np.ndarray:
    """(n, c*r^2, h, w) -> (n, c, h*r, w*r), the inverse of :func:`_space_to_depth`."""
    n, crr, h, w = a.shape
    t = a.reshape(n, crr // (r * r), r, r, h, w)
    return np.ascontiguousarray(t.transpose(0, 1, 4, 2, 5, 3).reshape(n, crr // (r * r), h * r, w * r))


def pixel_unshuffle(x, r: int) -> Tensor:
    """Space-to-depth: (n,c,h,w) -> (n, c*r^2, h/r, w/r), row-major subpixels.

    Output channel c*r*r + u*r + v holds input subpixel (row u, col v).
    """
    x = astensor(x)
    n, c, h, w = x.shape
    if h % r or w % r:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by r={r}")
    return _unary(x, _space_to_depth(x.data, r), lambda g, *_: _depth_to_space(g, r), "pixel_unshuffle")


def pixel_shuffle(x, r: int) -> Tensor:
    """Depth-to-space: (n, c*r^2, h, w) -> (n, c, h*r, w*r); inverse of pixel_unshuffle."""
    x = astensor(x)
    n, crr, h, w = x.shape
    if crr % (r * r):
        raise ShapeError(f"channel dim {crr} not divisible by r^2={r * r}")
    return _unary(x, _depth_to_space(x.data, r), lambda g, *_: _space_to_depth(g, r), "pixel_shuffle")
