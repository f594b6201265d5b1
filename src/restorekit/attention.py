"""Transposed-channel attention with prompt-conditioned temperature and gate.

Attention runs across channels (a (c/heads)^2 map per head) rather than
across pixels, so cost stays linear in image size.  Its core, from the
depthwise qkv map to the attended values, is one tape node,
:func:`ops.channel_attention` (Restormer's MDTA).  The degradation prompt
can modulate it two ways: a per-head temperature dividing the logits, an
input of that node, and a per-channel sigmoid gate scaling the projected
output.
"""

from __future__ import annotations

from . import ops
from .errors import ConfigError
from .layers import Conv2d, LayerNorm, Linear
from .params import ParamStore
from .tensor import Tensor


class GatedChannelAttention:
    def __init__(self, store: ParamStore, name: str, channels: int, heads: int,
                 prompt_dim: int | None, adaptive_temp: bool = True, gated_output: bool = True):
        if channels % heads:
            raise ConfigError(f"{heads} heads do not divide {channels} channels")
        if (adaptive_temp or gated_output) and prompt_dim is None:
            raise ConfigError("temperature/gate modulation needs a prompt_dim")
        self.channels = channels
        self.heads = heads
        self.adaptive_temp = adaptive_temp
        self.gated_output = gated_output
        self.qkv = Conv2d(store, f"{name}.qkv", channels, 3 * channels, 1)
        self.qkv_dw = Conv2d(store, f"{name}.qkv_dw", 3 * channels, 3 * channels, 3, groups=3 * channels)
        self.proj = Conv2d(store, f"{name}.proj", channels, channels, 1)
        if adaptive_temp:
            # zero-initialised so temperature starts exactly at exp(0) = 1
            self.theta_base = store.param(f"{name}.theta_base", (heads,))
            self.temp_map = Linear(store, f"{name}.temp_map", prompt_dim, heads)
        if gated_output:
            self.gate = Linear(store, f"{name}.gate", prompt_dim, channels)

    def temperatures(self, prompt: Tensor | None) -> Tensor | None:
        """Per-sample, per-head softmax temperature exp(theta + W p), or None if fixed at 1."""
        if not self.adaptive_temp:
            return None
        return ops.exp(ops.add(ops.reshape(self.theta_base, (1, self.heads)), self.temp_map(prompt)))

    def attend(self, x: Tensor, prompt: Tensor | None) -> Tensor:
        """Attention output after projection, before any output gating.

        The core between the qkv depthwise conv and the projection is one
        tape node, :func:`ops.channel_attention`, with the temperatures as
        an input.
        """
        qkv = self.qkv_dw(self.qkv(x))
        return self.proj(ops.channel_attention(qkv, self.heads, self.temperatures(prompt)))

    def __call__(self, x: Tensor, prompt: Tensor | None = None) -> Tensor:
        out = self.attend(x, prompt)
        if self.gated_output:
            g = ops.sigmoid(self.gate(prompt))  # (n, c)
            out = ops.mul(out, ops.reshape(g, (x.shape[0], self.channels, 1, 1)))
        return out


class GatedFeedForward:
    """Restormer's gated feed-forward: 1x1 to 2 * hidden, depthwise 3x3, gelu gate, 1x1 back.

    The depthwise output's first half, through GELU, gates its second half
    (:func:`ops.gelu_gate`, one tape node).
    """

    def __init__(self, store: ParamStore, name: str, channels: int, expansion: float = 2.66):
        hidden = int(channels * expansion)
        self.project_in = Conv2d(store, f"{name}.project_in", channels, 2 * hidden, 1)
        self.dw = Conv2d(store, f"{name}.dw", 2 * hidden, 2 * hidden, 3, groups=2 * hidden)
        self.project_out = Conv2d(store, f"{name}.project_out", hidden, channels, 1)

    def __call__(self, x: Tensor) -> Tensor:
        return self.project_out(ops.gelu_gate(self.dw(self.project_in(x))))


class TransformerBlock:
    """Pre-norm residual block: x + attn(norm(x), p), then x + ffn(norm(x))."""

    def __init__(self, store: ParamStore, name: str, channels: int, heads: int,
                 prompt_dim: int | None, adaptive_temp: bool = True, gated_output: bool = True,
                 ffn_expansion: float = 2.66, norm_eps: float = 1e-6):
        self.norm1 = LayerNorm(store, f"{name}.norm1", channels, eps=norm_eps)
        self.attn = GatedChannelAttention(store, f"{name}.attn", channels, heads,
                                          prompt_dim, adaptive_temp, gated_output)
        self.norm2 = LayerNorm(store, f"{name}.norm2", channels, eps=norm_eps)
        self.ffn = GatedFeedForward(store, f"{name}.ffn", channels, ffn_expansion)

    def __call__(self, x: Tensor, prompt: Tensor | None = None) -> Tensor:
        x = ops.add(x, self.attn(self.norm1(x), prompt))
        return ops.add(x, self.ffn(self.norm2(x)))
