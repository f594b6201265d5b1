"""Thin parameterized layers over the functional ops.

Each layer registers its weights in a ParamStore under a dotted name and
is a plain callable; there is no module base class to inherit from.
"""

from __future__ import annotations

import numpy as np

from . import ops
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
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int, bias: bool = True):
        self.weight = store.param(f"{name}.weight", (d_out, d_in), init="fan_in", fan_in=d_in)
        self.bias = store.param(f"{name}.bias", (d_out,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNorm:
    """Normalizes channels (4-d input) or the last axis (2-d input), then affine."""

    def __init__(self, store: ParamStore, name: str, dim: int, eps: float = 1e-6):
        self.eps = eps
        self.dim = dim
        self.weight = store.param(f"{name}.weight", (dim,), init="ones")
        self.bias = store.param(f"{name}.bias", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        y = ops.normalize(x, kind="layer", eps=self.eps)
        if x.ndim == 4:
            w = ops.reshape(self.weight, (1, self.dim, 1, 1))
            b = ops.reshape(self.bias, (1, self.dim, 1, 1))
        else:
            w, b = self.weight, self.bias
        return ops.add(ops.mul(y, w), b)


class GroupNorm:
    def __init__(self, store: ParamStore, name: str, channels: int, num_groups: int, eps: float = 1e-5):
        self.eps = eps
        self.num_groups = num_groups
        self.channels = channels
        self.weight = store.param(f"{name}.weight", (channels,), init="ones")
        self.bias = store.param(f"{name}.bias", (channels,))

    def __call__(self, x: Tensor) -> Tensor:
        y = ops.normalize(x, kind="group", num_groups=self.num_groups, eps=self.eps)
        w = ops.reshape(self.weight, (1, self.channels, 1, 1))
        b = ops.reshape(self.bias, (1, self.channels, 1, 1))
        return ops.add(ops.mul(y, w), b)
