"""Named parameter registry with deterministic initialization.

All trainable tensors of a model live in one ParamStore, keyed by
dotted path names in construction order.  Initialization draws from a
single ``np.random.Generator`` seeded at construction, so the same seed
and the same build order give bit-identical parameters.  A store built
with stored ``arrays`` (a checkpoint) takes each parameter from them
instead and draws nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


class ParamStore:
    def __init__(self, seed: int = 0, dtype=np.float32, arrays: dict[str, np.ndarray] | None = None):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(self.seed)
        self._entries: dict[str, Tensor] = {}
        self._stored = arrays

    def param(self, name: str, shape, init: str = "zeros", fan_in: int | None = None) -> Tensor:
        """Create and register a trainable tensor.

        init: "zeros", "ones", or "fan_in" (uniform in +-1/sqrt(fan_in),
        the usual default for conv/linear weights).  A stored array of
        that name is used as it is (cast only to the store's dtype).
        """
        if name in self._entries:
            raise ConfigError(f"duplicate parameter name '{name}'")
        if self._stored is not None and name in self._stored:
            data = self._fit(name, self._stored[name], tuple(shape))
        elif init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=self.dtype)
        elif init == "fan_in":
            if not fan_in or fan_in < 1:
                raise ConfigError(f"fan_in init for '{name}' needs a positive fan_in")
            bound = 1.0 / np.sqrt(fan_in)
            data = self.rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        else:
            raise ConfigError(f"unknown init '{init}'")
        t = Tensor(data, requires_grad=True)
        self._entries[name] = t
        return t

    # -- access ----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self):
        return self._entries.values()

    def total_parameters(self) -> int:
        return sum(t.size for t in self._entries.values())

    def zero_grads(self):
        for t in self._entries.values():
            t.grad = None

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        """Take values in, validating the name set and every shape.

        An array already of the store's dtype and contiguous is kept, not copied.
        """
        self._check_names(arrays)
        for name, t in self._entries.items():
            t.data = self._fit(name, arrays[name], t.data.shape)

    def check_stored(self):
        """After construction: the stored arrays must name exactly these parameters."""
        if self._stored is not None:
            self._check_names(self._stored)

    def _check_names(self, arrays):
        missing = [n for n in self._entries if n not in arrays]
        extra = [n for n in arrays if n not in self._entries]
        if missing or extra:
            raise ShapeError(f"parameter set mismatch: missing={missing[:3]}, unexpected={extra[:3]}")

    def _fit(self, name: str, arr, shape: tuple) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.shape != shape:
            raise ShapeError(f"parameter '{name}': stored shape {arr.shape} != expected {shape}")
        return np.ascontiguousarray(arr, dtype=self.dtype)
