"""Convolution against a direct oracle, plus geometry and errors."""

import tracemalloc

import numpy as np
import pytest

from restorekit import ops
from restorekit.errors import ConfigError, ShapeError
from restorekit.tensor import Tensor


# The four conv kinds the network runs: (x shape, weight shape, groups).
MODEL_KINDS = {
    "1x1": ((2, 3, 5, 6), (4, 3, 1, 1), 1),
    "dense3x3": ((2, 3, 5, 6), (4, 3, 3, 3), 1),
    "depthwise3x3": ((2, 4, 6, 5), (4, 1, 3, 3), 4),
    "depthwise5x5": ((2, 4, 6, 5), (4, 1, 5, 5), 4),
}


def naive_conv2d(x, w, b=None, padding=0, groups=1):
    """Direct cross-correlation: each output position sums its window times the kernel.

    One einsum per output position (all images, groups and output channels
    at once); slow, and obviously correct.
    """
    n, cin, h, wd_ = x.shape
    cout, cpg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - kh + 1
    ow = wd_ + 2 * padding - kw + 1
    wg = w.reshape(groups, cout // groups, cpg, kh, kw)
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for oy in range(oh):
        for ox in range(ow):
            win = xp[:, :, oy:oy + kh, ox:ox + kw].reshape(n, groups, cpg, kh, kw)
            out[:, :, oy, ox] = np.einsum("ngcuv,gocuv->ngo", win, wg).reshape(n, cout)
    if b is not None:
        out += b[None, :, None, None]
    return out


def plain_tap_loop(x, w, padding):
    """Depthwise conv as one unblocked pass per tap over the whole map.

    Tap (0, 0) first, then each later tap in (u, v) order, added one at a
    time: the per-element sum the blocked kernel reproduces up to the order
    of its additions.
    """
    n, c, h, wd_ = x.shape
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = h + 2 * padding - kh + 1, wd_ + 2 * padding - kw + 1
    out = None
    for u in range(kh):
        for v in range(kw):
            term = xp[:, :, u:u + oh, v:v + ow] * w[:, 0, u, v][:, None, None]
            out = term if out is None else out + term
    return out


def test_identity_kernel_reproduces_input(rng):
    x = rng.normal(size=(2, 3, 5, 5))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    y = ops.conv2d(Tensor(x), Tensor(w), padding=1)
    np.testing.assert_allclose(y.data, x, atol=1e-12)


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_matches_naive_oracle(rng, kind):
    xs, ws, groups = MODEL_KINDS[kind]
    x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=(ws[0],))
    got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), groups=groups).data
    want = naive_conv2d(x, w, b, padding=ws[2] // 2, groups=groups)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_output_geometry():
    x = Tensor(np.zeros((1, 1, 8, 11)))
    w = Tensor(np.zeros((2, 1, 3, 3)))
    assert ops.conv2d(x, w, padding=1).shape == (1, 2, 8, 11)
    # default padding is k//2
    assert ops.conv2d(x, Tensor(np.zeros((2, 1, 5, 5)))).shape == (1, 2, 8, 11)


def test_default_padding_is_same_for_odd_kernels(rng):
    x = rng.normal(size=(1, 2, 6, 6))
    for k in (1, 3, 5, 7):
        w = rng.normal(size=(2, 2, k, k))
        assert ops.conv2d(Tensor(x), Tensor(w)).shape == (1, 2, 6, 6)


def test_channel_mismatch_raises(rng):
    x = Tensor(rng.normal(size=(1, 3, 5, 5)))
    w = Tensor(rng.normal(size=(4, 2, 3, 3)))
    with pytest.raises(ShapeError):
        ops.conv2d(x, w)


def test_bad_groups_raise(rng):
    x = Tensor(rng.normal(size=(1, 3, 5, 5)))
    w = Tensor(rng.normal(size=(4, 1, 3, 3)))
    with pytest.raises(ConfigError):
        ops.conv2d(x, w, groups=2)
    # grouped but not depthwise, and any stride but 1: kinds the network never runs
    x4 = Tensor(rng.normal(size=(1, 4, 5, 5)))
    with pytest.raises(ConfigError):
        ops.conv2d(x4, Tensor(rng.normal(size=(4, 2, 3, 3))), groups=2)
    with pytest.raises(ConfigError):
        ops.conv2d(x4, Tensor(rng.normal(size=(2, 4, 3, 3))), stride=2)


# Calls outside the network's "same", odd-kernel, one-dtype convs:
# (weight shape, padding, weight dtype, error); the input is float32.
REFUSED = {
    "pad0-k3": ((2, 2, 3, 3), 0, np.float32, ConfigError),
    "pad1-k5": ((2, 2, 5, 5), 1, np.float32, ConfigError),
    "k2x2": ((2, 2, 2, 2), None, np.float32, ConfigError),
    "k3x5": ((2, 2, 3, 5), None, np.float32, ConfigError),
    "f64-weight": ((2, 2, 3, 3), None, np.float64, ShapeError),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_calls_outside_the_network_kinds_raise(rng, case):
    wshape, padding, wdtype, error = REFUSED[case]
    x = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
    with pytest.raises(error):
        ops.conv2d(x, Tensor(rng.normal(size=wshape).astype(wdtype)), padding=padding)


def test_1x1_input_gradient_is_the_transposed_weight_matmul(rng):
    # the flipped taps of a 1x1 are a transposed view of the weight, read
    # by the same matmul as a direct w.T @ g
    x = rng.normal(size=(2, 6, 5, 4)).astype(np.float32)
    w = rng.normal(size=(3, 6, 1, 1)).astype(np.float32)
    g = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    ops.conv2d(xt, Tensor(w)).backward(g)
    want = w[:, :, 0, 0].T @ g.reshape(2, 3, -1)
    assert np.array_equal(xt.grad, want.reshape(x.shape))


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_backward_matches_naive_numeric(rng, kind):
    # grad wrt x and w via the naive oracle and explicit FD on corner and middle coords
    xs, ws, groups = MODEL_KINDS[kind]
    x, w = rng.normal(size=xs), rng.normal(size=ws)
    p = ws[2] // 2
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    ops.tsum(ops.square(ops.conv2d(xt, wt, groups=groups))).backward()
    eps = 1e-6
    for arr, grad in ((x, xt.grad), (w, wt.grad)):
        for flat in (0, arr.size // 2, arr.size - 1):
            idx = np.unravel_index(flat, arr.shape)
            keep = arr[idx]
            arr[idx] = keep + eps
            fp = np.sum(naive_conv2d(x, w, padding=p, groups=groups) ** 2)
            arr[idx] = keep - eps
            fm = np.sum(naive_conv2d(x, w, padding=p, groups=groups) ** 2)
            arr[idx] = keep
            fd = (fp - fm) / (2 * eps)
            assert abs(grad[idx] - fd) < 1e-6 * max(1.0, abs(fd)), (idx, grad[idx], fd)


# Depthwise maps that cross channel-block edges (ops.DW_BLOCK_BYTES of padded
# source, column matrix and output per block).  In float32 with a 3x3 kernel:
# 23 + 23 + 23 + 1 channels; 21 blocks of 2 channels over a batch of 8; and
# one channel per block, since a single channel's column matrix is already
# larger than a block.
BLOCKED_SHAPES = [(1, 70, 32, 32), (8, 42, 32, 32), (1, 3, 260, 260)]
# The taps sum in BLAS order, not tap by tap: agreement with the tap loop
# within this many of its largest entries.
TAP_ORDER_TOL = {np.float32: 1e-6, np.float64: 1e-13}


def shape_id(shape):
    return "x".join(map(str, shape))


def assert_close_to_tap_loop(got, want, dtype):
    assert np.max(np.abs(got - want)) <= TAP_ORDER_TOL[dtype] * np.max(np.abs(want))


TAP_LOOP_CASES = [pytest.param(dtype, shape, k, bias, id=f"{name}-{shape_id(shape)}-{k}" + ("-bias" if bias else ""))
                  for bias in (False, True)
                  for name, dtype in (("f32", np.float32), ("f64", np.float64))
                  for shape in BLOCKED_SHAPES for k in (3, 5)]


@pytest.mark.parametrize("dtype,shape,k,bias", TAP_LOOP_CASES)
def test_blocked_depthwise_equals_plain_tap_loop(rng, dtype, shape, k, bias):
    # equal up to the order of the additions: the taps sum in BLAS order, and
    # the bias is added to each tap sum
    x = rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(shape[1], 1, k, k)).astype(dtype)
    b = rng.normal(size=shape[1]).astype(dtype) if bias else None
    # the column matrix spans more than one block
    assert x.nbytes * k * k > ops.DW_BLOCK_BYTES
    got = ops.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), groups=shape[1]).data
    assert got.dtype == dtype and got.flags["C_CONTIGUOUS"]
    want = plain_tap_loop(x, w, k // 2)
    assert_close_to_tap_loop(got, want if b is None else want + b[:, None, None], dtype)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("shape", BLOCKED_SHAPES, ids=shape_id)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_blocked_depthwise_does_not_depend_on_block_size(rng, monkeypatch, shape, k, dtype):
    # one channel per block, the default blocks and one block give the same
    # output, input gradient and weight gradient, bit for bit, and so do two
    # calls
    c = shape[1]
    x, g = rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(c, 1, k, k)).astype(dtype)
    b = rng.normal(size=c).astype(dtype)

    def run():
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y = ops.conv2d(xt, wt, Tensor(b), groups=c)
        y.backward(g)
        return y.data, xt.grad, wt.grad

    want = run()
    for budget in (ops.DW_BLOCK_BYTES, 1, 1 << 30):
        monkeypatch.setattr(ops, "DW_BLOCK_BYTES", budget)
        got = run()
        for part in range(3):
            assert np.array_equal(got[part], want[part]), (budget, part)


@pytest.mark.parametrize("shape,k", [(s, 3) for s in BLOCKED_SHAPES] + [(BLOCKED_SHAPES[0], 5)],
                         ids=lambda v: shape_id(v) if isinstance(v, tuple) else f"k{v}")
def test_blocked_depthwise_matches_naive_oracle(rng, shape, k):
    c, p = shape[1], k // 2
    x, w, g = rng.normal(size=shape), rng.normal(size=(c, 1, k, k)), rng.normal(size=shape)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    y = ops.conv2d(xt, wt, groups=c)
    np.testing.assert_allclose(y.data, naive_conv2d(x, w, padding=p, groups=c), rtol=1e-10, atol=1e-10)
    ops.tsum(ops.mul(y, Tensor(g))).backward()
    # sum(g * conv(x, w)) is linear in x and in w, so its derivative along a
    # direction is the same sum with that direction in place of x (or w)
    dx, dw = rng.normal(size=x.shape), rng.normal(size=w.shape)
    np.testing.assert_allclose(np.sum(xt.grad * dx),
                               np.sum(g * naive_conv2d(dx, w, padding=p, groups=c)), rtol=1e-10)
    np.testing.assert_allclose(np.sum(wt.grad * dw),
                               np.sum(g * naive_conv2d(x, dw, padding=p, groups=c)), rtol=1e-10)


@pytest.mark.parametrize("kind", ["depthwise", "dense"])
@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("w_", [1, 2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_maps_within_the_kernel_radius_match_naive_oracle(rng, h, w_, k, kind):
    # maps as narrow or as short as the kernel's reach: a tap can leave a row
    # by a whole row's width or more, so every one of its entries is zeroed
    c = 3
    cout, groups = (c, c) if kind == "depthwise" else (2, 1)
    p = k // 2
    x, w = rng.normal(size=(2, c, h, w_)), rng.normal(size=(cout, c // groups, k, k))
    b, g = rng.normal(size=cout), rng.normal(size=(2, cout, h, w_))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    y = ops.conv2d(xt, wt, Tensor(b), groups=groups)
    np.testing.assert_allclose(y.data, naive_conv2d(x, w, b, padding=p, groups=groups), rtol=1e-10, atol=1e-10)
    ops.tsum(ops.mul(y, Tensor(g))).backward()
    # directional derivatives of the bilinear sum(g * conv(x, w)), as above
    dx, dw = rng.normal(size=x.shape), rng.normal(size=w.shape)
    np.testing.assert_allclose(np.sum(xt.grad * dx),
                               np.sum(g * naive_conv2d(dx, w, padding=p, groups=groups)), rtol=1e-10)
    np.testing.assert_allclose(np.sum(wt.grad * dw),
                               np.sum(g * naive_conv2d(x, dw, padding=p, groups=groups)), rtol=1e-10)


def per_tap_weight_grad(x, g, k):
    """Depthwise weight gradient, one einsum per tap over the padded input.

    Tap (u, v) of channel c is the sum over images and pixels of the output
    gradient times the input shifted by (u - k//2, v - k//2).
    """
    p = k // 2
    h, w = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.empty((x.shape[1], 1, k, k), x.dtype)
    for u in range(k):
        for v in range(k):
            out[:, 0, u, v] = np.einsum("nchw,nchw->c", g, xp[:, :, u:u + h, v:v + w])
    return out


# Depthwise backward calls: the model's at 32 px (tiny preset at batch 8,
# full preset at batch 1), its 7x7 at 64 px, and an odd-sized map.
DW_BACKWARD_CASES = [((8, 42, 32, 32), 3), ((8, 24, 32, 32), 3), ((8, 24, 32, 32), 7),
                     ((1, 254, 32, 32), 3), ((1, 510, 8, 8), 3), ((1, 48, 64, 64), 7),
                     ((2, 5, 7, 9), 5)]


@pytest.mark.parametrize("shape,k", DW_BACKWARD_CASES,
                         ids=[f"{shape_id(s)}-k{k}" for s, k in DW_BACKWARD_CASES])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_depthwise_backward_input_gradient_is_the_flipped_tap_sum(rng, shape, k, dtype):
    # the backward walk, which also forms the weight gradient, runs the
    # forward walk's matmul on the same column matrix of g
    c = shape[1]
    x, g = rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(c, 1, k, k)).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    ops.conv2d(xt, Tensor(w), groups=c).backward(g)
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1]).reshape(c, 1, k * k)
    want = ops._walk(g, flipped, k)
    assert xt.grad.shape == want.shape and xt.grad.dtype == want.dtype == dtype
    assert np.array_equal(xt.grad, want)


@pytest.mark.parametrize("shape,k", DW_BACKWARD_CASES,
                         ids=[f"{shape_id(s)}-k{k}" for s, k in DW_BACKWARD_CASES])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_depthwise_weight_gradient_matches_per_tap_einsum(rng, shape, k, dtype):
    # equal up to the order of the additions, through conv2d's backward
    c = shape[1]
    x, g = rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(c, 1, k, k)).astype(dtype)
    wt = Tensor(w, requires_grad=True)
    ops.conv2d(Tensor(x), wt, groups=c).backward(g)
    assert wt.grad.dtype == dtype and wt.grad.flags["C_CONTIGUOUS"]
    assert_close_to_tap_loop(wt.grad, per_tap_weight_grad(x, g, k), dtype)


def block_scratch(n, h, w, k, dtype):
    """Bytes ``ops._walk`` budgets per source channel: the source with k//2
    zero rows and k//2 zeros above and below it, its column matrix and its
    output run."""
    p = k // 2
    return n * ((h + 2 * p) * w + 2 * p + (k * k + 1) * h * w) * np.dtype(dtype).itemsize


class SliceLoopColumns:
    """Stands in for ``ops._tap_window``: the column matrix by k*k slice copies.

    Indexed as the walk indexes the window, ``[:, :cb]``, it copies each
    tap's shifted run of the scratch's first cb channels, each a flattened
    h*w plane with zero rows above and below, with one slice assignment per
    tap (u, v) from offset u*w + v, and returns them as (n, cb, k, k, run).
    It reads the scratch when indexed, as the window, a view, does.  The
    walk then zeroes the entries that wrapped into the neighbouring row, in
    this copy as in the window's.
    """

    calls = 0

    def __init__(self, sbuf, k, w, run):
        self.sbuf, self.k, self.w, self.run = sbuf, k, w, run
        SliceLoopColumns.calls += 1

    def __getitem__(self, idx):
        k, w, run = self.k, self.w, self.run
        flat = self.sbuf[idx]
        cols = np.empty(flat.shape[:2] + (k * k, run), flat.dtype)
        for u in range(k):
            for v in range(k):
                cols[:, :, u * k + v] = flat[:, :, u * w + v:u * w + v + run]
        return cols.reshape(flat.shape[:2] + (k, k, run))


@pytest.mark.parametrize("budget", ["default", "partial"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("kind", ["depthwise", "dense"])
def test_column_window_equals_the_slice_loop(rng, monkeypatch, kind, k, n, dtype, budget):
    # output, input gradient and weight gradient are bit-identical to a walk
    # whose column matrix is copied tap by tap.  "partial": blocks of 3
    # channels in both passes, the last one partial, so a dense forward sums
    # three blocks
    c, h, w_ = 7, 9, 11
    cout, groups = (c, c) if kind == "depthwise" else (4, 1)
    if budget == "partial":
        monkeypatch.setattr(ops, "DW_BLOCK_BYTES", 3 * block_scratch(n, h, w_, k, dtype))
    x = rng.normal(size=(n, c, h, w_)).astype(dtype)
    w = rng.normal(size=(cout, c // groups, k, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    g = rng.normal(size=(n, cout, h, w_)).astype(dtype)

    def run():
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y = ops.conv2d(xt, wt, Tensor(b), groups=groups)
        y.backward(g)
        return y.data, xt.grad, wt.grad

    want = run()
    monkeypatch.setattr(ops, "_tap_window", SliceLoopColumns)
    calls = SliceLoopColumns.calls
    got = run()
    # the forward walk and the backward walk
    assert SliceLoopColumns.calls == calls + 2
    for part, name in enumerate(("output", "input gradient", "weight gradient")):
        assert np.array_equal(got[part], want[part]), name


# Dense shapes wider than MODEL_KINDS, at batch 1 and 8: (x shape, c_out, k).
# The last two are 3x3 calls the model makes at 32 px: full-preset fusion
# spatial_mid and tiny-preset conv_out.
DENSE_SHAPES = [((1, 48, 16, 16), 96, 1), ((8, 16, 12, 12), 32, 1),
                ((1, 48, 8, 8), 96, 3), ((8, 16, 8, 8), 32, 3),
                ((1, 48, 32, 32), 12, 3), ((8, 8, 32, 32), 3, 3)]


@pytest.mark.parametrize("shape,cout,k", DENSE_SHAPES,
                         ids=[f"{shape_id(s)}-{c}-k{k}" for s, c, k in DENSE_SHAPES])
def test_dense_gradients_match_naive_oracle(rng, shape, cout, k):
    p = k // 2
    x, w = rng.normal(size=shape), rng.normal(size=(cout, shape[1], k, k))
    g = rng.normal(size=(shape[0], cout) + shape[2:])
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    ops.tsum(ops.mul(ops.conv2d(xt, wt), Tensor(g))).backward()
    # directional derivatives of the bilinear sum(g * conv(x, w)), as above
    dx, dw = rng.normal(size=x.shape), rng.normal(size=w.shape)
    np.testing.assert_allclose(np.sum(xt.grad * dx), np.sum(g * naive_conv2d(dx, w, padding=p)), rtol=1e-10)
    np.testing.assert_allclose(np.sum(wt.grad * dw), np.sum(g * naive_conv2d(x, dw, padding=p)), rtol=1e-10)


# Dense kxk calls walked in input-channel chunks: (x shape, c_out, k).  The
# last one's 40 output rows also go in runs, 2 to 4 of them in the forward.
CHUNKED_DENSE = [((2, 10, 9, 11), 6, 3), ((1, 7, 8, 8), 4, 5), ((3, 7, 6, 7), 9, 3),
                 ((1, 9, 6, 7), 40, 3)]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("shape,cout,k", CHUNKED_DENSE,
                         ids=[f"{shape_id(s)}-{c}-k{k}" for s, c, k in CHUNKED_DENSE])
def test_chunked_dense_matches_naive_oracle(rng, monkeypatch, shape, cout, k, chunk):
    # the budget holds ``chunk`` channels of the walk's scratch, so 3 or more
    # partial sums over input channels accumulate in the output; the
    # backward walks the output gradient in chunks of as many.  A matmul
    # writes about (k*k + 2) * chunk output rows at a time.
    n, cin, h, w_ = shape
    p = k // 2
    monkeypatch.setattr(ops, "DW_BLOCK_BYTES", chunk * block_scratch(n, h, w_, k, np.float64))
    assert -(-cin // chunk) >= 3
    x, w = rng.normal(size=shape), rng.normal(size=(cout, cin, k, k))
    b, g = rng.normal(size=cout), rng.normal(size=(n, cout, h, w_))
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    y = ops.conv2d(xt, wt, bt)
    np.testing.assert_allclose(y.data, naive_conv2d(x, w, b, padding=p), rtol=1e-10, atol=1e-10)
    ops.tsum(ops.mul(y, Tensor(g))).backward()
    # directional derivatives of the bilinear sum(g * conv(x, w)), as above
    dx, dw = rng.normal(size=x.shape), rng.normal(size=w.shape)
    np.testing.assert_allclose(np.sum(xt.grad * dx), np.sum(g * naive_conv2d(dx, w, padding=p)), rtol=1e-10)
    np.testing.assert_allclose(np.sum(wt.grad * dw), np.sum(g * naive_conv2d(x, dw, padding=p)), rtol=1e-10)
    np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12)


def traced_peaks(rng, xshape, wshape, groups):
    """Run a float32 conv with bias, then its backward, under tracemalloc.

    Returns the output, input and weight tensors and the forward and
    backward peaks, the backward's above what was held before it started.
    """
    x = rng.normal(size=xshape).astype(np.float32)
    w = rng.normal(size=wshape).astype(np.float32)
    b = rng.normal(size=wshape[0]).astype(np.float32)
    g = rng.normal(size=(xshape[0], wshape[0]) + xshape[2:]).astype(np.float32)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    tracemalloc.start()
    try:
        y = ops.conv2d(xt, wt, bt, groups=groups)
        forward_peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        y.backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return y, xt, wt, forward_peak, backward_peak


def test_dense_peak_memory_has_no_whole_map_column_matrix(rng):
    # a 3x3's column matrix of the whole input (9 x 12.6 MB) never appears,
    # nor a copy of the input at the padded width: beyond the result, both
    # passes hold only block-sized scratch
    y, xt, wt, forward_peak, backward_peak = traced_peaks(rng, (1, 48, 256, 256), (3, 48, 3, 3), 1)
    slack = 8 * ops.DW_BLOCK_BYTES
    assert forward_peak < y.data.nbytes + slack
    assert backward_peak < xt.grad.nbytes + wt.grad.nbytes + slack


def test_depthwise_peak_memory_is_block_local(rng):
    # no full padded copy or column matrix of the input, output or gradient:
    # beyond the result, a call holds only a few block-sized scratches.  The
    # map (16.8 MB) is larger than the slack, so one whole-map copy breaks it.
    y, xt, wt, forward_peak, backward_peak = traced_peaks(rng, (1, 64, 256, 256), (64, 1, 3, 3), 64)
    slack = 8 * ops.DW_BLOCK_BYTES
    assert forward_peak < y.data.nbytes + slack
    assert backward_peak < xt.grad.nbytes + wt.grad.nbytes + slack
