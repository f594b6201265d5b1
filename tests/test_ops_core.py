"""Pointwise ops, softmax, norms, linear algebra, pooling, resampling."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restorekit import ops
from restorekit.errors import ConfigError, ShapeError
from restorekit.tensor import Tensor

mpmath.mp.dps = 50


def mp_gelu(x: float) -> float:
    xm = mpmath.mpf(x)
    return float(xm * mpmath.mpf(0.5) * (1 + mpmath.erf(xm / mpmath.sqrt(2))))


def mp_softmax(vals):
    es = [mpmath.e ** mpmath.mpf(v) for v in vals]
    z = sum(es)
    return np.array([float(e / z) for e in es])


# -- activations -------------------------------------------------------------

def test_gelu_matches_high_precision_reference():
    pts = np.array([-2.0, 0.0, 1.0, -0.5, 3.0])
    got = ops.gelu(Tensor(pts)).data
    want = np.array([mp_gelu(v) for v in pts])
    np.testing.assert_allclose(got, want, atol=1e-12)
    # frozen spot values
    assert abs(got[0] - (-0.04550026389635842)) < 1e-12
    assert got[1] == 0.0


def test_relu_and_sigmoid_basic_values():
    x = Tensor(np.array([-2.0, 0.0, 3.0]))
    np.testing.assert_array_equal(ops.relu(x).data, [0.0, 0.0, 3.0])
    s = ops.sigmoid(x).data
    assert s[1] == 0.5
    np.testing.assert_allclose(s[0], 1 / (1 + np.e ** 2), rtol=1e-12)
    assert np.all((s > 0) & (s < 1))


def test_sigmoid_stable_at_extremes():
    s = ops.sigmoid(Tensor(np.array([-1000.0, 1000.0]))).data
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 or s[0] < 1e-300
    assert s[1] == 1.0


# -- softmax -----------------------------------------------------------------

def test_softmax_uniform_and_extreme():
    np.testing.assert_allclose(ops.softmax(Tensor(np.zeros(3))).data, np.full(3, 1 / 3), rtol=1e-15)
    big = ops.softmax(Tensor(np.array([1000.0, 0.0]))).data
    np.testing.assert_allclose(big, [1.0, 0.0], atol=1e-300)


def test_softmax_matches_high_precision():
    vals = [1.0, 2.0, 3.0]
    np.testing.assert_allclose(ops.softmax(Tensor(np.array(vals))).data,
                               mp_softmax(vals), atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-30, 30))
def test_softmax_rows_sum_to_one_and_shift_invariant(vals, shift):
    x = np.array(vals)
    p = ops.softmax(Tensor(x)).data
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)
    q = ops.softmax(Tensor(x + shift)).data
    np.testing.assert_allclose(p, q, atol=1e-9)


def test_softmax_entropy_monotone_in_temperature(rng):
    taus = [0.25, 0.5, 1.0, 2.0, 4.0]
    for _ in range(12):
        logits = rng.normal(scale=3.0, size=8)
        ents = []
        for tau in taus:
            p = ops.softmax(Tensor(logits / tau)).data
            ents.append(float(-(p * np.log(p + 1e-300)).sum()))
        diffs = np.diff(ents)
        assert np.all(diffs >= -1e-9), f"entropy not nondecreasing: {ents}"


# -- normalize ---------------------------------------------------------------

def test_layer_norm_zero_mean_unit_var_over_channels(rng):
    x = Tensor(rng.normal(size=(2, 6, 3, 4)) * 5 + 2)
    y = ops.normalize(x, "layer", eps=1e-12).data
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-6)


def test_layer_norm_on_vectors(rng):
    x = Tensor(rng.normal(size=(5, 16)))
    y = ops.normalize(x, "layer", eps=1e-12).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-8)


def test_group_norm_matches_per_group_oracle(rng):
    x = rng.normal(size=(2, 6, 4, 4))
    got = ops.normalize(Tensor(x), "group", num_groups=3, eps=1e-8).data
    want = np.empty_like(x)
    for n in range(2):
        for g in range(3):
            blk = x[n, 2 * g:2 * g + 2]
            want[n, 2 * g:2 * g + 2] = (blk - blk.mean()) / np.sqrt(blk.var() + 1e-8)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_group_norm_num_groups_equals_channels_is_instance_norm(rng):
    x = rng.normal(size=(1, 4, 5, 5))
    got = ops.normalize(Tensor(x), "group", num_groups=4, eps=1e-8).data
    for c in range(4):
        ch = x[0, c]
        np.testing.assert_allclose(got[0, c], (ch - ch.mean()) / np.sqrt(ch.var() + 1e-8),
                                   rtol=1e-10)


def test_normalize_constant_input_is_zero_not_nan():
    x = Tensor(np.full((1, 4, 3, 3), 7.0))
    y = ops.normalize(x, "layer").data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, 0.0, atol=1e-6)


def test_normalize_bad_groups_raise(rng):
    with pytest.raises(ConfigError):
        ops.normalize(Tensor(rng.normal(size=(1, 6, 2, 2))), "group", num_groups=4)


# -- linear / matmul -----------------------------------------------------------

def test_linear_identity_and_known_product():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[3.0, 4.0]]))
    b = Tensor(np.array([0.0]))
    assert ops.linear(x, w, b).data.item() == 11.0
    eye = Tensor(np.eye(4))
    v = Tensor(np.arange(8.0).reshape(2, 4))
    np.testing.assert_array_equal(ops.linear(v, eye).data, v.data)


def test_linear_matches_triple_loop(rng):
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=(4,))
    want = np.zeros((3, 4))
    for i in range(3):
        for j in range(4):
            want[i, j] = b[j] + sum(x[i, k] * w[j, k] for k in range(5))
    np.testing.assert_allclose(ops.linear(Tensor(x), Tensor(w), Tensor(b)).data,
                               want, rtol=1e-12)


def test_linear_shape_errors(rng):
    with pytest.raises(ShapeError):
        ops.linear(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 5))))


def test_batched_matmul_matches_numpy(rng):
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(2, 3, 5, 6))
    np.testing.assert_allclose(ops.matmul(Tensor(a), Tensor(b)).data, a @ b, rtol=1e-12)


# -- pooling -------------------------------------------------------------------

def test_gap_and_mean_std_constant_input():
    x = Tensor(np.full((2, 3, 4, 4), 7.0))
    np.testing.assert_array_equal(ops.gap(x).data, np.full((2, 3), 7.0))
    ms = ops.mean_std(x).data
    np.testing.assert_array_equal(ms[:, :3], np.full((2, 3), 7.0))
    np.testing.assert_array_equal(ms[:, 3:], np.zeros((2, 3)))


def test_mean_std_two_value_channel():
    x = np.zeros((1, 1, 1, 2))
    x[0, 0, 0] = [1.0, 3.0]
    ms = ops.mean_std(Tensor(x)).data
    np.testing.assert_allclose(ms, [[2.0, 1.0]], rtol=1e-12)


def test_mean_std_matches_scalar_accumulation_oracle(rng):
    x = rng.normal(size=(2, 3, 5, 4))
    ms = ops.mean_std(Tensor(x)).data
    for n in range(2):
        for c in range(3):
            vals = x[n, c].reshape(-1)
            mu = sum(vals) / vals.size
            var = sum((v - mu) ** 2 for v in vals) / vals.size
            assert abs(ms[n, c] - mu) < 1e-10
            assert abs(ms[n, 3 + c] - np.sqrt(var)) < 1e-10


# -- shape ops / resampling ------------------------------------------------------

def test_concat_chunk_roundtrip(rng):
    x = rng.normal(size=(2, 6, 3, 3))
    parts = ops.chunk(Tensor(x), 3, axis=1)
    back = ops.concat(parts, axis=1)
    np.testing.assert_array_equal(back.data, x)
    with pytest.raises(ShapeError):
        ops.chunk(Tensor(x), 4, axis=1)


def test_pixel_unshuffle_enumerated_mapping():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    y = ops.pixel_unshuffle(Tensor(x), 2).data
    # row-major subpixel order: (0,0), (0,1), (1,0), (1,1)
    np.testing.assert_array_equal(y.reshape(4), [1.0, 2.0, 3.0, 4.0])
    assert y.shape == (1, 4, 1, 1)


def test_pixel_shuffle_inverts_unshuffle_bitwise(rng):
    x = rng.normal(size=(2, 3, 8, 6)).astype(np.float32)
    y = ops.pixel_shuffle(ops.pixel_unshuffle(Tensor(x), 2), 2).data
    np.testing.assert_array_equal(y, x)
    z = rng.normal(size=(1, 12, 3, 5)).astype(np.float32)
    w = ops.pixel_unshuffle(ops.pixel_shuffle(Tensor(z), 2), 2).data
    np.testing.assert_array_equal(w, z)


def test_resample_shape_errors(rng):
    with pytest.raises(ShapeError):
        ops.pixel_unshuffle(Tensor(rng.normal(size=(1, 1, 5, 4))), 2)
    with pytest.raises(ShapeError):
        ops.pixel_shuffle(Tensor(rng.normal(size=(1, 6, 2, 2))), 2)


def test_l2_normalize_unit_norm(rng):
    x = Tensor(rng.normal(size=(2, 3, 4, 7)))
    y = ops.l2_normalize(x, axis=-1).data
    np.testing.assert_allclose(np.linalg.norm(y, axis=-1), 1.0, rtol=1e-9)
    zero = ops.l2_normalize(Tensor(np.zeros((1, 4))), axis=-1).data
    assert np.all(np.isfinite(zero))
