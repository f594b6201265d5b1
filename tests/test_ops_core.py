"""Pointwise ops, softmax, norms, linear algebra, pooling, resampling."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from restorekit import ops
from restorekit.errors import ConfigError, ShapeError
from restorekit.layers import GroupNorm, LayerNorm
from restorekit.params import ParamStore
from restorekit.tensor import Tensor, no_grad

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


def gate_by_parts(y):
    """The gelu gate as the network built it before gelu_gate: split, gelu, mul."""
    h = y.shape[1] // 2
    a, b = ops.narrow(y, 1, 0, h), ops.narrow(y, 1, h, h)
    return ops.mul(ops.gelu(a), b)


def gate_value_and_grad(gate, y, g):
    leaf = Tensor(y, requires_grad=True)
    out = gate(ops.reshape(leaf, y.shape))  # a tape node, as the dw conv output is
    out.backward(g)
    return out.data, leaf.grad


# Per-half sizes around the chunk length, and batch 8, whose halves are
# runs of one image each rather than one contiguous block.
GATE_SHAPES = {
    "one": (1, 2, 1, 1),
    "chunk-1": (1, 2, 1, ops.CHUNK - 1),
    "chunk": (1, 4, 1, ops.CHUNK // 2),
    "chunk+1": (1, 2, 1, ops.CHUNK + 1),
    "batch8": (8, 6, 5, 7),
    "batch8-over-chunk": (8, 2, 1, ops.CHUNK + 3),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", list(GATE_SHAPES.values()), ids=list(GATE_SHAPES))
def test_gelu_gate_equals_chunk_gelu_mul(rng, shape, dtype):
    y = (3.0 * rng.normal(size=shape)).astype(dtype)
    g = rng.normal(size=(shape[0], shape[1] // 2) + shape[2:]).astype(dtype)
    got, got_grad = gate_value_and_grad(ops.gelu_gate, y, g)
    want, want_grad = gate_value_and_grad(gate_by_parts, y, g)
    assert got.dtype == got_grad.dtype == dtype
    assert np.array_equal(got, want)
    assert np.array_equal(got_grad, want_grad)


def gelu_f64(x):
    return x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))))


def gelu_slope_f64(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def test_float32_gelu_and_gate_track_the_float64_reference():
    x = np.linspace(-10.0, 10.0, 400001).astype(np.float32)
    x64 = x.astype(np.float64)
    tol = 1e-6 * np.maximum(1.0, np.abs(x64))
    slope = gelu_slope_f64(x64)
    leaf = Tensor(x, requires_grad=True)
    got = ops.gelu(leaf)
    got.backward(np.ones_like(x))
    assert np.all(np.abs(got.data - gelu_f64(x64)) <= tol)
    assert np.all(np.abs(leaf.grad - slope) <= tol)
    # the gate with b = 1 is gelu(a), and its b-gradient gelu(a)
    y = np.stack([x, np.ones_like(x)]).reshape(1, 2, 1, -1)
    gate, grad = gate_value_and_grad(ops.gelu_gate, y, np.ones((1, 1, 1, x.size), np.float32))
    assert np.all(np.abs(gate.ravel() - gelu_f64(x64)) <= tol)
    assert np.all(np.abs(grad[0, 0, 0] - slope) <= tol)
    assert np.all(np.abs(grad[0, 1, 0] - gelu_f64(x64)) <= tol)


# Element counts around the chunk length, each as a 1-d input and as rows of
# (n, d) and batch-8 4-d maps: gelu walks the whole map as one flat run, so
# those totals end on other chunk edges.
GELU_SIZES = {"chunk-1": ops.CHUNK - 1, "chunk": ops.CHUNK, "chunk+1": ops.CHUNK + 1,
              "3chunk+5": 3 * ops.CHUNK + 5}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("lead", [(), (3,), (8, 1, 1)], ids=["1d", "2d", "4d"])
@pytest.mark.parametrize("size", list(GELU_SIZES.values()), ids=list(GELU_SIZES))
def test_gelu_at_chunk_edges_matches_the_closed_forms(rng, size, lead, dtype):
    x = (3.0 * rng.normal(size=lead + (size,))).astype(dtype)
    x64 = x.astype(np.float64)
    tol = 1e-6 * np.maximum(1.0, np.abs(x64))
    leaf = Tensor(x, requires_grad=True)
    got = ops.gelu(leaf)
    got.backward(np.ones_like(x))
    assert got.data.dtype == leaf.grad.dtype == dtype
    assert got.data.shape == leaf.grad.shape == x.shape
    if dtype == np.float64:
        assert np.array_equal(got.data, gelu_f64(x))
    else:
        assert np.all(np.abs(got.data - gelu_f64(x64)) <= tol)
    assert np.all(np.abs(leaf.grad - gelu_slope_f64(x64)) <= tol)


def test_gelu_gate_does_not_go_through_gelu(rng, monkeypatch):
    calls = []
    real = ops.gelu
    monkeypatch.setattr(ops, "gelu", lambda a: calls.append(a) or real(a))
    y = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    ops.tsum(ops.gelu_gate(y)).backward()
    assert calls == []


def test_float32_gelu_edge_values_behave_as_scipy_erf():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
    with np.errstate(invalid="ignore"):
        want = x * (np.float32(0.5) * (np.float32(1.0) + erf(x * np.float32(1.0 / np.sqrt(2.0)))))
        got = ops.gelu(Tensor(x)).data
        gate = ops.gelu_gate(Tensor(np.stack([x, np.ones_like(x)]).reshape(1, 2, 1, -1))).data.ravel()
    for out in (got, gate):
        assert out.dtype == np.float32
        assert np.array_equal(out, want, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(want))


def test_gelu_gate_keeps_phi_only_on_the_tape(rng):
    y = rng.normal(size=(1, 2, 1, 16 * ops.CHUNK))
    out_bytes = y.nbytes // 2

    def peak(y):
        tracemalloc.start()
        out = ops.gelu_gate(y)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del out
        return peak

    with no_grad():
        assert peak(Tensor(y, requires_grad=True)) < 1.5 * out_bytes
    assert peak(Tensor(y, requires_grad=True)) >= 2 * out_bytes


def test_gelu_gate_refuses_an_odd_channel_count(rng):
    with pytest.raises(ShapeError):
        ops.gelu_gate(Tensor(rng.normal(size=(1, 3, 2, 2))))
    with pytest.raises(ShapeError):
        ops.gelu_gate(Tensor(rng.normal(size=(2, 4))))


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


def masked_sigmoid(x):
    """The two-branch sigmoid written with boolean masks: the bit-exact reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_sigmoid_equals_masked_two_branch_form(rng, dtype):
    edges = [0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 88.7, -88.7, 104.0, -104.0, np.inf, -np.inf]
    x = np.concatenate([edges, rng.normal(scale=20.0, size=4096)]).astype(dtype)
    got = ops.sigmoid(Tensor(x)).data
    assert got.dtype == dtype
    assert np.array_equal(got, masked_sigmoid(x))


@pytest.mark.parametrize("op", [
    lambda x: ops.add(x, 1e-5),
    lambda x: ops.mul(0.5, x),
    lambda x: ops.div(x, np.float64(3.0)),
    lambda x: ops.sub(1.0, x),
    ops.gelu,
    lambda x: ops.gelu_gate(ops.reshape(x, (1, 2, 2, 3))),
], ids=["add-scalar", "scalar-mul", "div-np-float64", "scalar-sub", "gelu", "gelu_gate"])
def test_scalar_operands_keep_float32(op, rng):
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    y = op(x)
    assert y.data.dtype == np.float32
    ops.tsum(y).backward()
    assert x.grad.dtype == np.float32


# -- softmax -----------------------------------------------------------------

def test_softmax_uniform_and_extreme():
    np.testing.assert_allclose(ops.softmax(Tensor(np.zeros(3))).data, np.full(3, 1 / 3), rtol=1e-15)
    big = ops.softmax(Tensor(np.array([1000.0, 0.0]))).data
    np.testing.assert_allclose(big, [1.0, 0.0], atol=1e-300)


def test_softmax_matches_high_precision():
    vals = [1.0, 2.0, 3.0]
    np.testing.assert_allclose(ops.softmax(Tensor(np.array(vals))).data,
                               mp_softmax(vals), atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant(rng):
    # 60 seeded draws: 2-8 values in [-50, 50], a shift in [-30, 30]; then
    # the ends of those ranges, a zero shift and all-equal entries
    cases = [(rng.uniform(-50, 50, size=rng.integers(2, 9)), rng.uniform(-30, 30)) for _ in range(60)]
    cases += [([-50.0, 50.0], 30.0), ([50.0, -50.0], -30.0),
              ([-50.0, 50.0, 0.0, 50.0, -50.0, 1.0, -1.0, 50.0], 0.0),
              ([0.0, 0.0], -30.0), ([50.0] * 8, 30.0), ([-50.0] * 8, -30.0), ([7.5] * 8, 0.0)]
    for vals, shift in cases:
        x = np.array(vals)
        p = ops.softmax(Tensor(x)).data
        assert abs(p.sum() - 1.0) < 1e-9, vals
        assert np.all(p >= 0), vals
        if np.all(x == x[0]):
            np.testing.assert_array_equal(p, np.full(x.size, 1.0 / x.size))
        q = ops.softmax(Tensor(x + shift)).data
        np.testing.assert_allclose(p, q, atol=1e-9, err_msg=f"{vals} shifted by {shift}")


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
    y = ops.standardize(x, 1, 1e-12).data
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-6)


def test_layer_norm_on_vectors(rng):
    x = Tensor(rng.normal(size=(5, 16)))
    y = ops.standardize(x, -1, 1e-12).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-8)


def _group_norm(x, groups, eps):
    store = ParamStore(seed=0, dtype=np.float64)
    return GroupNorm(store, "g", x.shape[1], groups, eps=eps)(Tensor(x)).data


def test_group_norm_matches_per_group_oracle(rng):
    x = rng.normal(size=(2, 6, 4, 4))
    got = _group_norm(x, 3, 1e-8)
    want = np.empty_like(x)
    for n in range(2):
        for g in range(3):
            blk = x[n, 2 * g:2 * g + 2]
            want[n, 2 * g:2 * g + 2] = (blk - blk.mean()) / np.sqrt(blk.var() + 1e-8)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_group_norm_num_groups_equals_channels_is_instance_norm(rng):
    x = rng.normal(size=(1, 4, 5, 5))
    got = _group_norm(x, 4, 1e-8)
    for c in range(4):
        ch = x[0, c]
        np.testing.assert_allclose(got[0, c], (ch - ch.mean()) / np.sqrt(ch.var() + 1e-8),
                                   rtol=1e-10)


def test_normalize_constant_input_is_zero_not_nan():
    x = Tensor(np.full((1, 4, 3, 3), 7.0), requires_grad=True)
    y = ops.standardize(x, 1, 1e-6)
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data, 0.0, atol=1e-6)
    ops.tsum(ops.mul(y, np.arange(36.0).reshape(1, 4, 3, 3))).backward()
    assert np.all(np.isfinite(x.grad))


def test_normalize_bad_groups_raise():
    for groups in (4, 0):
        with pytest.raises(ConfigError):
            GroupNorm(ParamStore(seed=0), "g", 6, groups)


def _same_forward_and_backward(rng, shape, fused, composed):
    """float64: the single node against the primitive chain it replaces, the reference."""
    x, g = rng.normal(size=shape) * 3 + 1, rng.normal(size=shape)
    results = []
    for f in (fused, composed):
        t = Tensor(x.copy(), requires_grad=True)
        y = f(t)
        y.backward(g)
        results.append((y.data, t.grad))
    for a, b in zip(*results):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape, axes", [((2, 5, 3, 4), 1), ((4, 9), -1), ((2, 3, 2, 3, 3), (2, 3, 4))],
                         ids=["channels", "vectors", "groups"])
def test_standardize_matches_the_composed_chain(rng, shape, axes):
    def composed(x):
        centered = ops.sub(x, ops.tmean(x, axis=axes, keepdims=True))
        var = ops.tmean(ops.square(centered), axis=axes, keepdims=True)
        return ops.div(centered, ops.sqrt(ops.add(var, 1e-6)))

    _same_forward_and_backward(rng, shape, lambda x: ops.standardize(x, axes, 1e-6), composed)


def _norm_nodes(out):
    seen, stack, found = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.op in ("standardize", "mean", "sqrt", "square", "div", "sum"):
                found.append(node.op)
            stack.extend(node._parents)
    return found


def test_each_normalization_records_one_node(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=(3, 9)), requires_grad=True)
    assert _norm_nodes(LayerNorm(store, "ln", 4)(x)) == ["standardize"]
    assert _norm_nodes(LayerNorm(store, "lv", 9)(v)) == ["standardize"]
    assert _norm_nodes(GroupNorm(store, "gn", 4, 2)(x)) == ["standardize"]


# -- linear / matmul -----------------------------------------------------------

def test_linear_identity_and_known_product():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[3.0, 4.0]]))
    b = Tensor(np.array([0.0]))
    assert ops.linear(x, w, b).data.item() == 11.0
    eye = Tensor(np.eye(4))
    v = Tensor(np.arange(8.0).reshape(2, 4))
    np.testing.assert_array_equal(ops.linear(v, eye, Tensor(np.zeros(4))).data, v.data)


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
        ops.linear(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 5))),
                   Tensor(rng.normal(size=(4,))))
    with pytest.raises(ShapeError):
        ops.linear(Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(4, 5))),
                   Tensor(rng.normal(size=(3,))))


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
    parts = [ops.narrow(Tensor(x), 1, 2 * i, 2) for i in range(3)]
    back = ops.concat(parts, axis=1)
    np.testing.assert_array_equal(back.data, x)


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
