"""Parameter registry and layer wrappers."""

import numpy as np
import pytest

from restorekit import ops
from restorekit.errors import ConfigError, ShapeError
from restorekit.layers import Conv2d, GroupNorm, LayerNorm
from restorekit.params import ParamStore
from restorekit.tensor import Tensor


def test_initializers_and_registration():
    store = ParamStore(seed=0)
    z = store.param("z", (2, 3))
    o = store.param("o", (4,), init="ones")
    w = store.param("w", (3, 3), init="fan_in", fan_in=9)
    np.testing.assert_array_equal(z.data, 0.0)
    np.testing.assert_array_equal(o.data, 1.0)
    assert np.all(np.abs(w.data) <= 1.0 / 3.0)
    assert z.requires_grad and o.requires_grad and w.requires_grad
    assert store.total_parameters() == 6 + 4 + 9
    assert len(store) == 3 and "z" in store and store["o"] is o


def test_same_seed_same_build_order_bit_identical():
    a = ParamStore(seed=42).param("w", (5, 5), init="fan_in", fan_in=25)
    b = ParamStore(seed=42).param("w", (5, 5), init="fan_in", fan_in=25)
    np.testing.assert_array_equal(a.data, b.data)


def test_duplicate_and_invalid_init_rejected():
    store = ParamStore(seed=0)
    store.param("w", (2,))
    with pytest.raises(ConfigError, match="duplicate"):
        store.param("w", (2,))
    with pytest.raises(ConfigError):
        store.param("x", (2,), init="orthogonal")
    with pytest.raises(ConfigError):
        store.param("y", (2,), init="fan_in")  # fan_in value missing


def test_zero_grads_clears_everything(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    p = store.param("p", (3,), init="ones")
    ops.tsum(ops.square(p)).backward()
    assert p.grad is not None
    store.zero_grads()
    assert p.grad is None


def test_load_arrays_validates_names_and_shapes(rng):
    store = ParamStore(seed=0)
    store.param("a", (2, 2))
    store.param("b", (3,))
    good = {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(3,))}
    store.load_arrays(good)
    np.testing.assert_allclose(store["a"].data, good["a"].astype(np.float32))
    with pytest.raises(ShapeError, match="mismatch"):
        store.load_arrays({"a": good["a"]})
    with pytest.raises(ShapeError, match="shape"):
        store.load_arrays({"a": rng.normal(size=(2, 3)), "b": good["b"]})


def test_conv_layer_registers_dotted_names():
    store = ParamStore(seed=0)
    conv = Conv2d(store, "enc.c1", 3, 8, 3)
    assert set(store.names()) == {"enc.c1.weight", "enc.c1.bias"}
    assert conv.weight.shape == (8, 3, 3, 3)
    assert conv.padding == 1  # same-padding default for k=3
    nb = Conv2d(store, "enc.c2", 3, 8, 3, bias=False)
    assert nb.bias is None and "enc.c2.bias" not in store


def test_layer_norm_affine_on_both_ranks(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    ln = LayerNorm(store, "n", 6)
    ln.weight.data[:] = 2.0
    ln.bias.data[:] = 1.0
    y4 = ln(Tensor(rng.normal(size=(2, 6, 3, 3)))).data
    np.testing.assert_allclose(y4.mean(axis=1), 1.0, atol=1e-6)
    y2 = ln(Tensor(rng.normal(size=(4, 6)))).data
    np.testing.assert_allclose(y2.mean(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(y2.std(axis=-1), 2.0, rtol=1e-3)


def test_group_norm_affine(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    gn = GroupNorm(store, "g", 4, 2)
    gn.bias.data[:] = [1.0, 2.0, 3.0, 4.0]
    gn.weight.data[:] = 0.0
    y = gn(Tensor(rng.normal(size=(1, 4, 5, 5)))).data
    for c in range(4):
        np.testing.assert_allclose(y[0, c], c + 1.0)
