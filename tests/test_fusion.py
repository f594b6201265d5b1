"""Gated skip fusion between encoder and decoder features."""

import numpy as np
import pytest

from restorekit import ops
from restorekit.errors import ConfigError
from restorekit.fusion import GatedSkipFusion, PlainSkipFusion
from restorekit.params import ParamStore
from restorekit.tensor import Tensor


def build(c=4, seed=0):
    store = ParamStore(seed=seed, dtype=np.float64)
    return store, GatedSkipFusion(store, "f", c)


def test_attention_strictly_inside_unit_interval(rng):
    store, fuse = build()
    f_cat = Tensor(rng.normal(size=(4, 8, 6, 6)) * 3)
    a = fuse.attention(f_cat).data
    assert a.shape == (4, 4, 6, 6)
    assert np.all(a > 0.0) and np.all(a < 1.0)


def test_attention_large_sample_stays_open(rng):
    store, fuse = build()
    a = fuse.attention(Tensor(rng.normal(size=(18, 8, 12, 12)))).data
    assert a.size >= 10_000
    assert np.all(a > 0.0) and np.all(a < 1.0)


def test_filter_only_attenuates_encoder_feature(rng):
    store, fuse = build()
    enc = rng.normal(size=(2, 4, 6, 6))
    dec = rng.normal(size=(2, 4, 6, 6))
    a = fuse.attention(ops.concat([Tensor(enc), Tensor(dec)], axis=1)).data
    filtered = enc * a
    assert np.all(np.abs(filtered) <= np.abs(enc))


def test_zero_inputs_give_deterministic_bias_only_output():
    store, fuse = build()
    z = Tensor(np.zeros((1, 4, 4, 4)))
    y = fuse(z, z).data
    # with zero features only biases drive the output; spatial structure is flat
    assert y.shape == (1, 4, 4, 4)
    for c in range(4):
        np.testing.assert_allclose(y[0, c], y[0, c, 0, 0], rtol=1e-10)


def test_compositional_oracle(rng):
    """Recompute the module from its published sub-steps."""
    store, fuse = build()
    enc = Tensor(rng.normal(size=(2, 4, 5, 5)))
    dec = Tensor(rng.normal(size=(2, 4, 5, 5)))
    got = fuse(enc, dec).data

    f_cat = ops.concat([enc, dec], axis=1)
    logits = fuse.spatial_map(f_cat).data + \
        fuse.channel_vector(f_cat).data.reshape(2, 4, 1, 1)
    a = 1.0 / (1.0 + np.exp(-logits))
    merged = fuse.merge(ops.concat([Tensor(enc.data * a), dec], axis=1))
    want = ops.gelu(merged).data
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_channel_vector_matches_hand_squeeze_excite(rng):
    store, fuse = build()
    f_cat = rng.normal(size=(3, 8, 5, 5))
    got = fuse.channel_vector(Tensor(f_cat)).data
    pooled = f_cat.mean(axis=(2, 3))
    h = pooled @ fuse.se_squeeze.weight.data.T + fuse.se_squeeze.bias.data
    h = np.maximum(h, 0.0)
    want = h @ fuse.se_excite.weight.data.T + fuse.se_excite.bias.data
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_batch_rows_are_independent(rng):
    store, fuse = build()
    enc = rng.normal(size=(3, 4, 6, 6))
    dec = rng.normal(size=(3, 4, 6, 6))
    full = fuse(Tensor(enc), Tensor(dec)).data
    solo = fuse(Tensor(enc[2:3]), Tensor(dec[2:3])).data
    np.testing.assert_allclose(full[2], solo[0], rtol=1e-10, atol=1e-12)


def test_plain_fusion_is_pluggable(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    plain = PlainSkipFusion(store, "f", 4)
    enc = Tensor(rng.normal(size=(1, 4, 6, 6)))
    dec = Tensor(rng.normal(size=(1, 4, 6, 6)))
    y = plain(enc, dec)
    assert y.shape == (1, 4, 6, 6)
    # strictly fewer parameters than the gated variant
    gated_store, _ = build()
    assert store.total_parameters() < gated_store.total_parameters()


def test_gradients_reach_all_parameters(rng):
    store, fuse = build()
    enc = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
    dec = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
    ops.tsum(ops.square(fuse(enc, dec))).backward()
    assert enc.grad is not None and dec.grad is not None
    missing = [n for n, p in store.items() if p.grad is None]
    assert not missing, missing


def test_invalid_group_configuration_rejected():
    # 4 GroupNorm groups divide none of these widths
    for channels in (1, 2, 3, 6):
        with pytest.raises(ConfigError):
            GatedSkipFusion(ParamStore(seed=0), "f", channels)
