"""Thin parameterized layers over the functional ops.

Each layer registers its weights in a ParamStore under a dotted name and
is a plain callable; there is no module base class to inherit from.
"""

from __future__ import annotations

from . import ops
from .errors import ConfigError, ShapeError
from .params import ParamStore
from .tensor import Tensor


class Conv2d:
    """Stride-1 "same" convolution: dense (groups=1) or depthwise (groups = c_in = c_out)."""

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int, kernel: int,
                 groups: int = 1, bias: bool = True):
        self.padding = kernel // 2
        self.groups = groups
        cpg = c_in // groups
        self.weight = store.param(f"{name}.weight", (c_out, cpg, kernel, kernel),
                                  init="fan_in", fan_in=cpg * kernel * kernel)
        self.bias = store.param(f"{name}.bias", (c_out,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, padding=self.padding, groups=self.groups)


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.weight = store.param(f"{name}.weight", (d_out, d_in), init="fan_in", fan_in=d_in)
        self.bias = store.param(f"{name}.bias", (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNorm:
    """Normalizes channels (4-d input) or the last axis (2-d input), then affine: one ops.normalize node."""

    EPS = 1e-6  # Restormer's

    def __init__(self, store: ParamStore, name: str, dim: int):
        self.weight = store.param(f"{name}.weight", (dim,), init="ones")
        self.bias = store.param(f"{name}.bias", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim not in (2, 4):
            raise ShapeError(f"LayerNorm expects 2-d or 4-d input, got {x.shape}")
        return ops.normalize(x, self.weight, self.bias, 1, self.EPS)


class GroupNorm:
    """Normalizes each of ``num_groups`` channel groups over (group channels, h, w), then affine.

    One ops.normalize node on a (n, groups, c/groups, h, w) view of the
    input, between two reshapes that are views.
    """

    EPS = 1e-5

    def __init__(self, store: ParamStore, name: str, channels: int, num_groups: int):
        if num_groups < 1 or channels % num_groups:
            raise ConfigError(f"{num_groups} norm groups do not divide {channels} channels")
        self.num_groups = num_groups
        self.weight = store.param(f"{name}.weight", (channels,), init="ones")
        self.bias = store.param(f"{name}.bias", (channels,))

    def __call__(self, x: Tensor) -> Tensor:
        n, c = x.shape[:2]
        groups = ops.reshape(x, (n, self.num_groups, c // self.num_groups) + x.shape[2:])
        return ops.reshape(ops.normalize(groups, self.weight, self.bias, (2, 3, 4), self.EPS), x.shape)
