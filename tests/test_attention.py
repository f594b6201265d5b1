"""Channel attention, temperature and gate modulation, feed-forward, block."""

import numpy as np
import pytest

from restorekit import ops
from restorekit.attention import GatedChannelAttention, GatedFeedForward, TransformerBlock
from restorekit.errors import ConfigError, ShapeError
from restorekit.params import ParamStore
from restorekit.tensor import Tensor, no_grad


def build_attn(c=8, heads=2, pd=6, seed=0, **kw):
    store = ParamStore(seed=seed, dtype=np.float64)
    attn = GatedChannelAttention(store, "a", c, heads, pd, **kw)
    return store, attn


def attention_map(attn, x, prompt):
    """The network's own softmax map of ``attn`` on ``x``: (n, heads, d, d)."""
    qkv = attn.qkv_dw(attn.qkv(x))
    tau = attn.temperatures(prompt)
    return ops._channel_attention_map(qkv.data, attn.heads, None if tau is None else tau.data)[-1]


def row_softmax_sums(attn, x, prompt):
    """The internal attention map's row sums."""
    return attention_map(attn, x, prompt).sum(axis=-1)


def test_temperature_is_exactly_one_at_zero_parameters(rng):
    store, attn = build_attn()
    prompt = Tensor(rng.normal(size=(2, 6)))
    # theta_base and temp_map start at zero init for weight? weight is fan_in init;
    # zero them explicitly to pin the contract.
    attn.theta_base.data[:] = 0.0
    attn.temp_map.weight.data[:] = 0.0
    attn.temp_map.bias.data[:] = 0.0
    tau = attn.temperatures(prompt).data
    np.testing.assert_array_equal(tau, np.ones((2, 2)))


def test_theta_base_log2_gives_temperature_two():
    store, attn = build_attn()
    attn.theta_base.data[:] = np.log(2.0)
    attn.temp_map.weight.data[:] = 0.0
    attn.temp_map.bias.data[:] = 0.0
    tau = attn.temperatures(Tensor(np.zeros((1, 6)))).data
    np.testing.assert_allclose(tau, 2.0, rtol=1e-12)


def test_temperatures_always_positive(rng):
    store, attn = build_attn()
    attn.theta_base.data[:] = rng.normal(size=2) * 4
    tau = attn.temperatures(Tensor(rng.normal(size=(3, 6)) * 5)).data
    assert np.all(tau > 0)


def test_attention_rows_sum_to_one(rng):
    store, attn = build_attn()
    sums = row_softmax_sums(attn, Tensor(rng.normal(size=(2, 8, 5, 5))),
                            Tensor(rng.normal(size=(2, 6))))
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_entropy_nondecreasing_in_temperature(rng):
    store, attn = build_attn()
    x = Tensor(rng.normal(size=(1, 8, 5, 5)))
    attn.temp_map.weight.data[:] = 0.0
    attn.temp_map.bias.data[:] = 0.0
    prompt = Tensor(np.zeros((1, 6)))
    for trial in range(10):
        # fresh logits each trial by reseeding qkv weights
        attn.qkv.weight.data[:] = np.random.default_rng(trial).normal(
            size=attn.qkv.weight.shape) * 0.5
        ents = []
        for tau in [0.25, 0.5, 1.0, 2.0, 4.0]:
            attn.theta_base.data[:] = np.log(tau)
            p = attention_map(attn, x, prompt)
            ents.append(float(-(p * np.log(p + 1e-300)).sum()))
        assert np.all(np.diff(ents) >= -1e-9), ents


def test_gate_values_strictly_inside_unit_interval(rng):
    store, attn = build_attn()
    g = ops.sigmoid(attn.gate(Tensor(rng.normal(size=(4, 6))))).data
    assert np.all(g > 0.0) and np.all(g < 1.0)


def test_zeroed_gate_parameters_halve_the_output(rng):
    store, attn = build_attn()
    attn.gate.weight.data[:] = 0.0
    attn.gate.bias.data[:] = 0.0
    x = Tensor(rng.normal(size=(2, 8, 4, 4)))
    prompt = Tensor(rng.normal(size=(2, 6)))
    np.testing.assert_allclose(attn(x, prompt).data, 0.5 * attn.attend(x, prompt).data,
                               rtol=1e-12)


def test_gate_saturation_recovers_ungated_output(rng):
    store, attn = build_attn()
    attn.gate.weight.data[:] = 0.0
    attn.gate.bias.data[:] = 30.0
    x = Tensor(rng.normal(size=(1, 8, 4, 4)))
    prompt = Tensor(rng.normal(size=(1, 6)))
    np.testing.assert_allclose(attn(x, prompt).data, attn.attend(x, prompt).data, rtol=1e-9)


def test_modulation_toggles(rng):
    store = ParamStore(seed=0)
    plain = GatedChannelAttention(store, "p", 8, 2, None,
                                  adaptive_temp=False, gated_output=False)
    assert plain.temperatures(None) is None
    y = plain(Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32)))
    assert y.shape == (1, 8, 4, 4)
    with pytest.raises(ConfigError):
        GatedChannelAttention(ParamStore(seed=0), "x", 8, 2, None)
    with pytest.raises(ConfigError):
        GatedChannelAttention(ParamStore(seed=0), "x", 8, 3, 6)


def test_feed_forward_hidden_width_and_shapes(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    ffn = GatedFeedForward(store, "f", 8, expansion=2.66)
    assert ffn.project_in.weight.shape[0] == 2 * int(8 * 2.66)
    y = ffn(Tensor(rng.normal(size=(2, 8, 5, 5))))
    assert y.shape == (2, 8, 5, 5)


def test_feed_forward_is_four_tape_nodes(rng):
    store = ParamStore(seed=0, dtype=np.float32)
    ffn = GatedFeedForward(store, "f", 8)
    node, ops_seen = ffn(Tensor(rng.normal(size=(2, 8, 5, 5)).astype(np.float32))), []
    while node.op != "leaf":
        ops_seen.append(node.op)
        node = node._parents[0]
    assert ops_seen == ["conv2d", "gelu_gate", "conv2d", "conv2d"]


def test_feed_forward_zero_gate_branch_kills_output(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    ffn = GatedFeedForward(store, "f", 4)
    hidden = ffn.project_out.weight.shape[1]
    # zero the value branch (second chunk) of both convs: gelu(a) * 0 == 0
    ffn.project_in.weight.data[hidden:] = 0.0
    ffn.project_in.bias.data[hidden:] = 0.0
    ffn.dw.weight.data[hidden:] = 0.0
    ffn.dw.bias.data[hidden:] = 0.0
    ffn.project_out.bias.data[:] = 0.0
    y = ffn(Tensor(rng.normal(size=(1, 4, 6, 6))))
    np.testing.assert_allclose(y.data, 0.0, atol=1e-12)


def test_block_is_identity_when_projections_are_zero(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    blk = TransformerBlock(store, "b", 8, 2, 6)
    blk.attn.proj.weight.data[:] = 0.0
    blk.attn.proj.bias.data[:] = 0.0
    blk.ffn.project_out.weight.data[:] = 0.0
    blk.ffn.project_out.bias.data[:] = 0.0
    x = rng.normal(size=(2, 8, 6, 6))
    y = blk(Tensor(x), Tensor(rng.normal(size=(2, 6))))
    np.testing.assert_array_equal(y.data, x)


def test_block_gradients_reach_all_parameters(rng):
    store = ParamStore(seed=1, dtype=np.float64)
    blk = TransformerBlock(store, "b", 4, 2, 5)
    x = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
    y = blk(x, Tensor(rng.normal(size=(1, 5))))
    ops.tsum(ops.square(y)).backward()
    assert x.grad is not None
    missing = [n for n, p in store.items() if p.grad is None]
    assert not missing, missing


def test_block_output_changes_with_prompt(rng):
    store = ParamStore(seed=2, dtype=np.float64)
    blk = TransformerBlock(store, "b", 8, 2, 6)
    x = Tensor(rng.normal(size=(1, 8, 5, 5)))
    y1 = blk(x, Tensor(np.zeros((1, 6))))
    y2 = blk(x, Tensor(np.full((1, 6), 2.0)))
    assert np.max(np.abs(y1.data - y2.data)) > 1e-8


# -- the channel-attention op ----------------------------------------------------

def unit_rows(t):
    """t / sqrt(sum(t^2) + 1e-12) along the last axis, from primitives."""
    return ops.div(t, ops.sqrt(ops.add(ops.tsum(ops.square(t), axis=-1, keepdims=True), 1e-12)))


def attention_by_parts(qkv, heads, tau):
    """The core as the network built it before channel_attention, from primitives."""
    n, c3, h, w = qkv.shape
    c = c3 // 3
    d = c // heads
    q, k, v = (ops.reshape(ops.narrow(qkv, 1, i * c, c), (n, heads, d, h * w)) for i in range(3))
    q = unit_rows(q)
    k = unit_rows(k)
    logits = ops.matmul(q, ops.transpose(k, (0, 1, 3, 2)))
    if tau is not None:
        logits = ops.div(logits, ops.reshape(tau, (n, heads, 1, 1)))
    return ops.reshape(ops.matmul(ops.softmax(logits, axis=-1), v), (n, c, h, w))


def attention_value_and_grads(core, qkv, heads, tau, g):
    """Output, qkv gradient and tau gradient (None without tau); both inputs are tape nodes."""
    ql = Tensor(qkv, requires_grad=True)
    tl = None if tau is None else Tensor(tau, requires_grad=True)
    out = core(ops.mul(ql, 1.0), heads, None if tl is None else ops.mul(tl, 1.0))
    out.backward(g)
    return out.data, ql.grad, None if tl is None else tl.grad


def rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# (n, heads, d, h, w, with tau)
ATTENTION_CASES = {
    "n1-h1": (1, 1, 4, 5, 7, True),
    "n3-h2": (3, 2, 3, 4, 6, True),
    "n1-h3-no-tau": (1, 3, 2, 6, 4, False),
    "n3-h2-no-tau": (3, 2, 4, 3, 5, False),
}


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)], ids=["f64", "f32"])
@pytest.mark.parametrize("case", list(ATTENTION_CASES.values()), ids=list(ATTENTION_CASES))
def test_channel_attention_matches_the_composition(rng, case, dtype, tol):
    n, heads, d, h, w, with_tau = case
    qkv = rng.normal(size=(n, 3 * heads * d, h, w)).astype(dtype)
    tau = rng.uniform(0.3, 3.0, size=(n, heads)).astype(dtype) if with_tau else None
    g = rng.normal(size=(n, heads * d, h, w)).astype(dtype)
    got = attention_value_and_grads(ops.channel_attention, qkv, heads, tau, g)
    want = attention_value_and_grads(attention_by_parts, qkv, heads, tau, g)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.dtype == dtype
        assert rel(a, b) < tol


def test_channel_attention_records_no_closure_under_no_grad(rng):
    qkv = Tensor(rng.normal(size=(2, 12, 3, 3)), requires_grad=True)
    tau = Tensor(rng.uniform(0.5, 2.0, size=(2, 2)), requires_grad=True)
    with no_grad():
        out = ops.channel_attention(qkv, 2, tau)
    assert out._backward is None and out._parents == () and not out.requires_grad
    assert out.shape == (2, 4, 3, 3)


def test_channel_attention_refuses_shapes_it_cannot_split(rng):
    with pytest.raises(ShapeError):
        ops.channel_attention(Tensor(rng.normal(size=(1, 10, 2, 2))), 2)
    with pytest.raises(ShapeError):
        ops.channel_attention(Tensor(rng.normal(size=(1, 12, 2, 2))), 2, Tensor(np.ones((1, 3))))


def tape_nodes(out):
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t.op != "leaf":
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_block_forward_records_14_nodes_fewer_than_the_composition(rng):
    # 42 with the core built from 15 nodes (narrow x3, reshape x5, a q/k
    # row norm node x2, transpose, matmul x2, div, softmax); one node now
    store = ParamStore(seed=0, dtype=np.float32)
    blk = TransformerBlock(store, "b", 8, 2, 6)
    y = blk(Tensor(rng.normal(size=(2, 8, 5, 5)).astype(np.float32)),
            Tensor(rng.normal(size=(2, 6)).astype(np.float32)))
    assert tape_nodes(y) == 42 - 14
    assert y.dtype == np.float32
