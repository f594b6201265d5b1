"""Spectral transforms checked against a direct O(N^2) discrete transform."""

import numpy as np
import pytest

from restorekit import ops
from restorekit.errors import ShapeError
from restorekit.tensor import Tensor


def naive_dft2(x: np.ndarray) -> np.ndarray:
    """Straight double-sum definition. x is (h, w) real, result complex."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0j
            for a in range(h):
                for b in range(w):
                    ang = -2j * np.pi * (u * a / h + v * b / w)
                    acc += x[a, b] * np.exp(ang)
            out[u, v] = acc
    return out


@pytest.mark.parametrize("h,w", [(4, 4), (3, 5), (7, 7)])
def test_fft2d_matches_direct_transform(rng, h, w):
    x = rng.normal(size=(1, 1, h, w))
    spec = ops.fft2d(Tensor(x)).data
    assert spec.shape == (1, 2, h, w)
    want = naive_dft2(x[0, 0])
    np.testing.assert_allclose(spec[0, 0], want.real, atol=1e-9)
    np.testing.assert_allclose(spec[0, 1], want.imag, atol=1e-9)


def test_dc_bin_is_sum_of_pixels(rng):
    x = rng.normal(size=(2, 3, 6, 10))
    spec = ops.fft2d(Tensor(x)).data
    np.testing.assert_allclose(spec[:, :3, 0, 0], x.sum(axis=(2, 3)), rtol=1e-10)
    np.testing.assert_allclose(spec[:, 3:, 0, 0], 0.0, atol=1e-9)


@pytest.mark.parametrize("h,w", [(6, 10), (7, 7), (1, 1), (5, 8)])
def test_round_trip_identity(rng, h, w):
    x = rng.normal(size=(2, 3, h, w))
    back = ops.ifft2d(ops.fft2d(Tensor(x))).data
    assert np.max(np.abs(back - x)) <= 1e-6


@pytest.mark.parametrize("h,w", [(6, 10), (7, 7)])
def test_parseval_energy_identity(rng, h, w):
    x = rng.normal(size=(1, 2, h, w))
    spec = ops.fft2d(Tensor(x))
    spatial = float((x ** 2).sum())
    spectral = float((spec.data ** 2).sum()) / (h * w)
    assert abs(spatial - spectral) / max(spatial, 1e-12) <= 1e-6


def test_transform_is_linear(rng):
    x = rng.normal(size=(1, 1, 5, 6))
    y = rng.normal(size=(1, 1, 5, 6))
    a, b = 2.5, -1.25
    lhs = ops.fft2d(Tensor(a * x + b * y))
    fx = ops.fft2d(Tensor(x))
    fy = ops.fft2d(Tensor(y))
    np.testing.assert_allclose(lhs.data, a * fx.data + b * fy.data, atol=1e-9)


def test_constant_image_concentrates_at_dc():
    x = np.full((1, 1, 4, 4), 3.0)
    spec = ops.fft2d(Tensor(x)).data
    assert spec[0, 0, 0, 0] == pytest.approx(48.0)
    off_dc = spec[0, 0].copy()
    off_dc[0, 0] = 0.0
    np.testing.assert_allclose(off_dc, 0.0, atol=1e-10)
    np.testing.assert_allclose(spec[0, 1], 0.0, atol=1e-10)


def test_ifft2d_matches_direct_inverse(rng):
    re = rng.normal(size=(1, 1, 4, 5))
    im = rng.normal(size=(1, 1, 4, 5))
    got = ops.ifft2d(Tensor(np.concatenate([re, im], axis=1))).data
    assert got.shape == (1, 1, 4, 5)
    h, w = 4, 5
    want = np.zeros((h, w))
    z = re[0, 0] + 1j * im[0, 0]
    for a in range(h):
        for b in range(w):
            acc = 0j
            for u in range(h):
                for v in range(w):
                    acc += z[u, v] * np.exp(2j * np.pi * (u * a / h + v * b / w))
            want[a, b] = (acc / (h * w)).real
    np.testing.assert_allclose(got[0, 0], want, atol=1e-9)


def test_fft_gradients_flow_through_both_planes(rng):
    x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
    loss = ops.tsum(ops.square(ops.fft2d(x)))
    loss.backward()
    # Parseval in gradient form: d/dx sum|F(x)|^2 = 2*h*w*x
    np.testing.assert_allclose(x.grad, 2 * 16 * x.data, rtol=1e-9)


def test_fft2d_is_one_node_with_one_backward_fft(rng, monkeypatch):
    x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    spec = ops.fft2d(x)
    assert spec.op == "fft2d" and spec._parents == (x,)
    calls = []
    fft2 = np.fft.fft2
    monkeypatch.setattr(np.fft, "fft2", lambda *a, **k: calls.append(a) or fft2(*a, **k))
    spec.backward(rng.normal(size=spec.shape))
    assert len(calls) == 1


def test_ifft2d_rejects_an_odd_channel_count(rng):
    with pytest.raises(ShapeError, match="stacked"):
        ops.ifft2d(Tensor(rng.normal(size=(1, 3, 4, 4))))
