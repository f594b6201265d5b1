"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run tape over numpy arrays: every operation in
:mod:`restorekit.ops` records its parents and a backward closure on the
output tensor, and :meth:`Tensor.backward` replays the closures in reverse
topological order.  Graphs are single-use: backward releases each node's
closure, parents and (for non-leaves) gradient as soon as it has run, and
a second backward through a consumed node raises :class:`UsageError`; run
a fresh forward pass for every backward pass.  Only first-order gradients
are supported (backward closures work on raw numpy arrays, not tensors).
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

from .errors import NumericsError, UsageError

# Per thread (and per asyncio task): no_grad() in one thread leaves
# recording on in every other.
_grad_enabled = contextvars.ContextVar("restorekit_grad_enabled", default=True)
_finite_trace = contextvars.ContextVar("restorekit_finite_trace", default=False)


@contextlib.contextmanager
def _switched(flag: contextvars.ContextVar, value: bool):
    token = flag.set(value)
    try:
        yield
    finally:
        flag.reset(token)


def no_grad():
    """Disable graph recording inside the block (inference, finite differences)."""
    return _switched(_grad_enabled, False)


def finite_trace():
    """Raise :class:`NumericsError` naming the first op emitting a non-finite value.

    Used to localise NaN/inf blow-ups: re-run the failing forward pass under
    this context and the exception points at the producing operation.
    """
    return _switched(_finite_trace, True)


class Tensor:
    """A numpy array plus the tape bookkeeping needed for backprop.

    ``data`` is always C-contiguous.  ``grad`` is a plain numpy array (or
    None), populated by :meth:`backward`.  Leaf tensors created with
    ``requires_grad=True`` act as trainable parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self.op}{flag})"

    # -- backward ------------------------------------------------------
    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every reachable leaf.

        Without an explicit ``grad`` seed, ``self`` must be a scalar.
        """
        if grad is None:
            if self.data.size != 1:
                raise UsageError(
                    f"backward() without a gradient seed needs a scalar, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise UsageError("gradient seed shape must match tensor shape")

        # Iterative DFS: graphs can be deep enough to bother the recursion limit.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node.requires_grad and node.op != "leaf" and node._backward is None:
                raise UsageError(f"graph through op '{node.op}' was already consumed by backward(); "
                                 "run a fresh forward pass")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        accumulate_grad(self, grad)
        # Pop in reverse topological order, so each node (and whatever only
        # its closure kept alive) is released as soon as it has run.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()
            node.grad = None


def accumulate_grad(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t.grad`` without in-place aliasing hazards."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def astensor(x, dtype=None) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def recording(parents) -> bool:
    """Whether an op on ``parents`` goes on the tape: grads are live and one parent needs them."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def make_node(data, parents, backward, op: str) -> Tensor:
    """Create an op output, wiring it into the tape if grads are live."""
    out = Tensor(data)
    out.op = op
    if _finite_trace.get() and not np.all(np.isfinite(out.data)):
        raise NumericsError(f"non-finite values produced by op '{op}' with output shape {out.data.shape}")
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out
