"""Degradation-conditioning prompt generator."""

import numpy as np
import pytest

from restorekit import ops
from restorekit.errors import ConfigError
from restorekit.params import ParamStore
from restorekit.prompts import DegradationContext, PromptConfig, PromptGenerator
from restorekit.tensor import Tensor


def build(c=4, dg=16, scales=3, seed=0):
    store = ParamStore(seed=seed, dtype=np.float64)
    gen = PromptGenerator(store, "p", PromptConfig(channels=c, num_scales=scales, global_dim=dg))
    return store, gen


def test_branch_kernel_ladder_is_3_5_7():
    store, gen = build()
    for s, (dw, _) in enumerate(gen.branches):
        k = 2 * s + 3
        assert dw.weight.shape[-2:] == (k, k)


def test_output_dims_follow_level_widths(rng):
    store, gen = build(c=4, dg=16)
    ctx = gen(Tensor(rng.normal(size=(2, 4, 8, 8))))
    assert isinstance(ctx, DegradationContext)
    assert ctx.global_feature.shape == (2, 16)
    assert [p.shape for p in ctx.level_prompts] == [(2, 4), (2, 8), (2, 16), (2, 32)]
    # prompt() is 1-indexed by level
    assert ctx.prompt(1) is ctx.level_prompts[0]
    assert ctx.prompt(4) is ctx.level_prompts[3]


def test_self_gate_never_amplifies(rng):
    store, gen = build()
    x = Tensor(rng.normal(size=(2, 4, 6, 6)))
    branches = gen.multi_scale(x)
    fused = gen.fuse(ops.concat(branches, axis=1))
    gated = gen.fuse_and_gate(branches)
    assert np.all(np.abs(gated.data) <= np.abs(fused.data) + 1e-12)


def test_gate_bias_saturation(rng):
    store, gen = build()
    x = Tensor(rng.normal(size=(1, 4, 6, 6)))
    branches = gen.multi_scale(x)
    fused = gen.fuse(ops.concat(branches, axis=1)).data

    gen.gate_dw.bias.data[:] = 20.0
    open_gate = gen.fuse_and_gate(branches).data
    np.testing.assert_allclose(open_gate, fused, rtol=1e-6, atol=1e-8)

    gen.gate_dw.bias.data[:] = -20.0
    gen.gate_dw.weight.data[:] = 0.0
    closed = gen.fuse_and_gate(branches).data
    np.testing.assert_allclose(closed, 0.0, atol=1e-8)


def test_pooled_stats_match_mean_std_op(rng):
    store, gen = build()
    gated = gen.fuse_and_gate(gen.multi_scale(Tensor(rng.normal(size=(2, 4, 5, 5)))))
    stats = ops.mean_std(gated).data
    np.testing.assert_allclose(stats[:, :4], gated.data.mean(axis=(2, 3)), rtol=1e-12)
    np.testing.assert_allclose(stats[:, 4:], gated.data.std(axis=(2, 3)), rtol=1e-10)


def test_zero_weight_mlp_gives_constant_global_vector(rng):
    store, gen = build()
    gen.mlp_out.weight.data[:] = 0.0
    gen.mlp_out.bias.data[:] = 1.5
    ctx_a = gen(Tensor(rng.normal(size=(1, 4, 8, 8))))
    ctx_b = gen(Tensor(rng.normal(size=(1, 4, 8, 8))))
    np.testing.assert_allclose(ctx_a.global_feature.data, 1.5)
    np.testing.assert_array_equal(ctx_a.global_feature.data, ctx_b.global_feature.data)


def test_prompts_depend_on_input_content(rng):
    store, gen = build()
    a = gen(Tensor(rng.normal(size=(1, 4, 8, 8)))).prompt(2).data
    b = gen(Tensor(rng.normal(size=(1, 4, 8, 8)) * 3.0)).prompt(2).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_batch_rows_are_independent(rng):
    store, gen = build()
    x = rng.normal(size=(3, 4, 8, 8))
    full = gen(Tensor(x))
    solo = gen(Tensor(x[1:2]))
    np.testing.assert_allclose(full.global_feature.data[1], solo.global_feature.data[0],
                               rtol=1e-10, atol=1e-12)
    for lv in range(1, 5):
        np.testing.assert_allclose(full.prompt(lv).data[1], solo.prompt(lv).data[0],
                                   rtol=1e-10, atol=1e-12)


def test_gradients_reach_every_parameter(rng):
    store, gen = build(c=2, dg=6)
    ctx = gen(Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True))
    loss = ops.tsum(ops.square(ctx.global_feature))
    for p in ctx.level_prompts:
        loss = ops.add(loss, ops.tsum(ops.square(p)))
    loss.backward()
    missing = [n for n, p in store.items() if p.grad is None]
    assert not missing, missing


def test_param_count_grows_with_scales():
    s2 = ParamStore(seed=0)
    PromptGenerator(s2, "p", PromptConfig(channels=4, num_scales=2, global_dim=8))
    s3 = ParamStore(seed=0)
    PromptGenerator(s3, "p", PromptConfig(channels=4, num_scales=3, global_dim=8))
    assert s3.total_parameters() > s2.total_parameters()


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        PromptConfig(channels=0).validate()
