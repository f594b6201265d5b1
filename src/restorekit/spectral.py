"""Dual-domain bottleneck: spatial conv branch plus a gated frequency branch.

The frequency branch transforms the latent to the Fourier domain, where
``ops.fft2d`` stacks the c real planes and then the c imaginary planes into
one (n, 2c, h, w) tensor.  A single 1x1 conv mixes those 2c planes, a
prompt-conditioned sigmoid scales each mixed plane, and the inverse
transform reads the first c planes as real and the last c as imaginary.  The
mixing conv is bias-free, so for a fixed gate the whole spectral path is
linear in the input (additive and homogeneous), which the tests rely on.
"""

from __future__ import annotations

from . import ops
from .layers import Conv2d, Linear
from .params import ParamStore
from .tensor import Tensor


class DualDomainBottleneck:
    def __init__(self, store: ParamStore, name: str, channels: int, global_dim: int):
        self.channels = channels
        self.spatial_dw = Conv2d(store, f"{name}.spatial_dw", channels, channels, 3, groups=channels)
        self.spatial_pw = Conv2d(store, f"{name}.spatial_pw", channels, channels, 1)
        self.mix = Conv2d(store, f"{name}.mix", 2 * channels, 2 * channels, 1, bias=False)
        self.gate = Linear(store, f"{name}.gate", global_dim, 2 * channels)
        self.fuse = Conv2d(store, f"{name}.fuse", 2 * channels, channels, 1)

    def spatial_branch(self, x: Tensor) -> Tensor:
        return self.spatial_pw(ops.gelu(self.spatial_dw(x)))

    def frequency_gate(self, p_global: Tensor) -> Tensor:
        """Sigmoid gate over the 2c mixed spectral planes, strictly inside (0, 1)."""
        return ops.sigmoid(self.gate(p_global))

    def frequency_branch(self, x: Tensor, p_global: Tensor) -> Tensor:
        n, c = x.shape[:2]
        gate = ops.reshape(self.frequency_gate(p_global), (n, 2 * c, 1, 1))
        return ops.ifft2d(ops.mul(self.mix(ops.fft2d(x)), gate))

    def __call__(self, x: Tensor, p_global: Tensor) -> Tensor:
        y_spa = self.spatial_branch(x)
        y_freq = self.frequency_branch(x, p_global)
        return ops.add(x, self.fuse(ops.concat([y_spa, y_freq], axis=1)))
