"""Dual-domain bottleneck: linearity of the spectral path, gating, residual."""

import numpy as np

from restorekit import ops
from restorekit.params import ParamStore
from restorekit.spectral import DualDomainBottleneck
from restorekit.tensor import Tensor


def build(c=4, dg=6, seed=0):
    store = ParamStore(seed=seed, dtype=np.float64)
    return store, DualDomainBottleneck(store, "dd", c, dg)


def test_frequency_branch_is_homogeneous(rng):
    store, dd = build()
    x = rng.normal(size=(2, 4, 8, 8))
    p = Tensor(rng.normal(size=(2, 6)))
    base = dd.frequency_branch(Tensor(x), p).data
    for alpha in (2.0, -0.5, 10.0):
        scaled = dd.frequency_branch(Tensor(alpha * x), p).data
        denom = max(np.max(np.abs(alpha * base)), 1e-12)
        assert np.max(np.abs(scaled - alpha * base)) / denom <= 1e-6


def test_frequency_branch_is_additive(rng):
    store, dd = build()
    x = rng.normal(size=(1, 4, 6, 6))
    y = rng.normal(size=(1, 4, 6, 6))
    p = Tensor(rng.normal(size=(1, 6)))
    fx = dd.frequency_branch(Tensor(x), p).data
    fy = dd.frequency_branch(Tensor(y), p).data
    fxy = dd.frequency_branch(Tensor(x + y), p).data
    denom = max(np.max(np.abs(fxy)), 1e-12)
    assert np.max(np.abs(fxy - fx - fy)) / denom <= 1e-6


def test_zero_input_maps_to_zero_in_frequency_branch(rng):
    store, dd = build()
    out = dd.frequency_branch(Tensor(np.zeros((1, 4, 5, 5))),
                              Tensor(rng.normal(size=(1, 6)))).data
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_frequency_branch_records_no_split_or_merge_nodes(rng):
    store, dd = build()
    out = dd.frequency_branch(Tensor(rng.normal(size=(1, 4, 6, 6))),
                              Tensor(rng.normal(size=(1, 6))))
    ops_seen, stack = [], [out]
    while stack:
        node = stack.pop()
        ops_seen.append(node.op)
        stack.extend(node._parents)
    assert "concat" not in ops_seen and "narrow" not in ops_seen
    assert ops_seen.count("fft2d") == 1 and ops_seen.count("ifft2d") == 1


def test_gate_strictly_inside_unit_interval(rng):
    store, dd = build()
    g = dd.frequency_gate(Tensor(rng.normal(size=(64, 6)) * 3)).data
    assert np.all(g > 0.0) and np.all(g < 1.0)


def test_gate_saturation_limits(rng):
    store, dd = build()
    dd.gate.weight.data[:] = 0.0
    dd.gate.bias.data[:] = 20.0
    x = rng.normal(size=(1, 4, 6, 6))
    p = Tensor(rng.normal(size=(1, 6)))
    open_out = dd.frequency_branch(Tensor(x), p).data

    # with the gate pinned open, the branch is ifft(mix(fft(x))) exactly
    want = ops.ifft2d(dd.mix(ops.fft2d(Tensor(x)))).data
    np.testing.assert_allclose(open_out, want, rtol=1e-6, atol=1e-9)

    dd.gate.bias.data[:] = -20.0
    closed = dd.frequency_branch(Tensor(x), p).data
    np.testing.assert_allclose(closed, 0.0, atol=1e-7)


def test_identity_when_fuse_is_zeroed(rng):
    store, dd = build()
    dd.fuse.weight.data[:] = 0.0
    dd.fuse.bias.data[:] = 0.0
    x = rng.normal(size=(2, 4, 8, 8))
    y = dd(Tensor(x), Tensor(rng.normal(size=(2, 6)))).data
    np.testing.assert_array_equal(y, x)


def test_output_depends_on_global_prompt(rng):
    store, dd = build()
    x = Tensor(rng.normal(size=(1, 4, 8, 8)))
    y1 = dd(x, Tensor(np.full((1, 6), -2.0))).data
    y2 = dd(x, Tensor(np.full((1, 6), 2.0))).data
    assert np.max(np.abs(y1 - y2)) > 1e-8


def test_spatial_branch_shape_and_nonlinearity(rng):
    store, dd = build()
    x = rng.normal(size=(1, 4, 6, 6))
    y1 = dd.spatial_branch(Tensor(x)).data
    y2 = dd.spatial_branch(Tensor(2 * x)).data
    assert y1.shape == x.shape
    # gelu makes the spatial branch genuinely nonlinear
    assert np.max(np.abs(y2 - 2 * y1)) > 1e-6


def test_gradients_reach_all_parameters(rng):
    store, dd = build()
    x = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
    y = dd(x, Tensor(rng.normal(size=(1, 6))))
    ops.tsum(ops.square(y)).backward()
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    missing = [n for n, p in store.items() if p.grad is None]
    assert not missing, missing


def test_mix_conv_has_no_bias():
    store, dd = build()
    assert dd.mix.bias is None
    names = [n for n, _ in store.items()]
    assert not any(n.endswith("mix.bias") for n in names)
