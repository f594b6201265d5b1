"""Degradation-conditioning prompts.

A small network reads the shared shallow feature map, summarises "what is
wrong with this image" into a global vector, and unrolls that vector into
one prompt per resolution level.  The prompts condition attention
temperature, output gates, and the frequency gate in the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ops
from .errors import ConfigError
from .layers import Conv2d, LayerNorm, Linear
from .params import ParamStore
from .tensor import Tensor


@dataclass
class DegradationContext:
    """Per-sample conditioning: one global vector plus one prompt per level."""

    global_feature: Tensor             # (n, global_dim)
    level_prompts: list[Tensor] = field(default_factory=list)  # [(n, C), (n, 2C), ...]

    def prompt(self, level: int) -> Tensor:
        return self.level_prompts[level - 1]


class PromptGenerator:
    """Multi-scale context -> spatial self-gate -> pooled stats -> prompt chain.

    SCALES depthwise branches (kernels 3, 5, 7) read the c-wide map; the chain
    unrolls the global vector into ``levels`` prompts of widths c, 2c, 4c, ...
    """

    SCALES = 3

    def __init__(self, store: ParamStore, name: str, channels: int, global_dim: int, levels: int = 4):
        if channels < 1 or global_dim < 1 or levels < 0:
            raise ConfigError(f"bad prompt sizes: channels={channels}, global_dim={global_dim}, levels={levels}")
        c = channels
        self.branches = []
        for s in range(self.SCALES):
            k = 2 * s + 3  # kernel ladder 3, 5, 7, ...
            dw = Conv2d(store, f"{name}.branch{s}.dw", c, c, k, groups=c)
            pw = Conv2d(store, f"{name}.branch{s}.pw", c, c, 1)
            self.branches.append((dw, pw))
        self.fuse = Conv2d(store, f"{name}.fuse", self.SCALES * c, c, 1)
        self.gate_dw = Conv2d(store, f"{name}.gate_dw", c, c, 3, groups=c)
        self.mlp_in = Linear(store, f"{name}.mlp_in", 2 * c, global_dim)
        self.mlp_out = Linear(store, f"{name}.mlp_out", global_dim, global_dim)
        self.stages = []
        prev = global_dim
        for i in range(levels):
            dim = c * 2 ** i  # the width of level i + 1's features
            lin = Linear(store, f"{name}.stage{i}.linear", prev, dim)
            norm = LayerNorm(store, f"{name}.stage{i}.norm", dim)
            self.stages.append((lin, norm))
            prev = dim

    def multi_scale(self, x: Tensor) -> list[Tensor]:
        """Depthwise-then-pointwise context at each kernel scale."""
        return [pw(dw(x)) for dw, pw in self.branches]

    def fuse_and_gate(self, branches: list[Tensor]) -> Tensor:
        """Fuse scales and attenuate by a sigmoid self-gate (never amplifies)."""
        fused = self.fuse(ops.concat(branches, axis=1))
        return ops.mul(fused, ops.sigmoid(self.gate_dw(fused)))

    def encode_global(self, gated: Tensor) -> Tensor:
        stats = ops.mean_std(gated)  # (n, 2c): spatial mean and spread per channel
        return self.mlp_out(ops.gelu(self.mlp_in(stats)))

    def level_prompt_chain(self, p_global: Tensor) -> list[Tensor]:
        prompts = []
        h = p_global
        for lin, norm in self.stages:
            h = ops.gelu(norm(lin(h)))
            prompts.append(h)
        return prompts

    def __call__(self, x: Tensor) -> DegradationContext:
        gated = self.fuse_and_gate(self.multi_scale(x))
        p_global = self.encode_global(gated)
        return DegradationContext(p_global, self.level_prompt_chain(p_global))
