"""Convolution against a six-loop direct oracle, plus geometry and errors."""

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
    """Direct cross-correlation, plain loops. Slow and obviously correct."""
    n, cin, h, wd_ = x.shape
    cout, cpg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - kh + 1
    ow = wd_ + 2 * padding - kw + 1
    og = cout // groups
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            g = oc // og
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cpg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[ni, g * cpg + ic, oy + u, ox + v] * w[oc, ic, u, v]
                    out[ni, oc, oy, ox] = acc
    if b is not None:
        out += b[None, :, None, None]
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


def test_depthwise_equals_per_channel_correlation(rng):
    x = rng.normal(size=(2, 4, 6, 6))
    w = rng.normal(size=(4, 1, 3, 3))
    got = ops.conv2d(Tensor(x), Tensor(w), groups=4).data
    want = naive_conv2d(x, w, padding=1, groups=4)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_output_geometry():
    x = Tensor(np.zeros((1, 1, 8, 11)))
    w = Tensor(np.zeros((2, 1, 3, 3)))
    assert ops.conv2d(x, w, padding=1).shape == (1, 2, 8, 11)
    assert ops.conv2d(x, w, padding=0).shape == (1, 2, 6, 9)
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


def test_kernel_larger_than_padded_input_raises(rng):
    x = Tensor(rng.normal(size=(1, 1, 2, 2)))
    w = Tensor(rng.normal(size=(1, 1, 5, 5)))
    with pytest.raises(ShapeError):
        ops.conv2d(x, w, padding=0)


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
