"""restorekit: degradation-aware gated image restoration, numpy all the way down."""

from .tensor import Tensor, no_grad  # noqa: F401

__version__ = "0.1.0"
