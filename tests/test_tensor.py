"""Tape mechanics: recording, backward traversal, broadcasting, modes."""

import sys
import threading

import numpy as np
import pytest

from restorekit import ops
from restorekit.errors import UsageError
from restorekit.tensor import Tensor, finite_trace, no_grad
from restorekit.errors import NumericsError


def test_backward_sum_of_squares_closed_form(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ops.tsum(ops.square(x)).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)


def test_backward_sum_sigmoid_closed_form(rng):
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)
    ops.tsum(ops.sigmoid(x)).backward()
    s = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(x.grad, s * (1 - s), rtol=1e-10)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    y = ops.square(x)
    with pytest.raises(UsageError):
        y.backward()


def test_grad_accumulates_across_uses(rng):
    x = Tensor(rng.normal(size=(4,)), requires_grad=True)
    # x used twice: d/dx (sum(x) + sum(x*x)) = 1 + 2x
    loss = ops.add(ops.tsum(x), ops.tsum(ops.mul(x, x)))
    loss.backward()
    np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data, rtol=1e-12)


def test_no_grad_blocks_recording(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with no_grad():
        y = ops.tsum(ops.square(x))
    assert not y.requires_grad and y._backward is None


def test_no_grad_in_one_thread_leaves_other_threads_recording(rng):
    entered, release = threading.Event(), threading.Event()

    def hold():
        with no_grad():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert entered.wait(10)
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = ops.tsum(ops.square(x))
        assert y.requires_grad and y._backward is not None
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()


def test_grad_mode_survives_interleaved_threads():
    """Threads entering and leaving no_grad() concurrently never see each other's mode."""
    errors = []
    start = threading.Barrier(4, timeout=10)

    def churn():
        x = Tensor(np.ones(2), requires_grad=True)
        start.wait()
        for i in range(500):
            if i % 2:
                with no_grad():
                    recorded = ops.square(x).requires_grad
                if recorded:
                    errors.append("recorded under no_grad")
            elif not ops.square(x).requires_grad:
                errors.append("not recorded outside no_grad")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert not errors, errors[:3]


def test_broadcast_backward_reduces_to_parameter_shape(rng):
    x = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3, 1)), requires_grad=True)
    ops.tsum(ops.add(x, b)).backward()
    assert b.grad.shape == (1, 3, 1)
    np.testing.assert_allclose(b.grad, np.full((1, 3, 1), 20.0))


def test_deep_chain_backward_does_not_recurse(rng):
    x = Tensor(np.ones(4) * 0.5, requires_grad=True)
    y = x
    for _ in range(3000):  # deeper than the default recursion limit
        y = ops.add(y, 0.001)
    ops.tsum(y).backward()
    np.testing.assert_allclose(x.grad, np.ones(4))


def test_data_stays_contiguous(rng):
    x = Tensor(np.asfortranarray(rng.normal(size=(4, 5))))
    assert x.data.flags["C_CONTIGUOUS"]
    y = ops.transpose(Tensor(rng.normal(size=(2, 3, 4))), (2, 0, 1))
    assert y.data.flags["C_CONTIGUOUS"]


def test_finite_trace_names_offending_op():
    x = Tensor(np.array([[1.0, -1.0]]))
    with np.errstate(invalid="ignore"), finite_trace():
        with pytest.raises(NumericsError, match="sqrt"):
            ops.sqrt(x)


def test_graph_is_fresh_per_forward(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    for _ in range(2):
        x.grad = None
        ops.tsum(ops.square(x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)


def test_second_backward_on_consumed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ops.tsum(ops.square(ops.mul(x, 3.0)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [18.0, 36.0])
    with pytest.raises(UsageError, match="consumed"):
        loss.backward()
    np.testing.assert_allclose(x.grad, [18.0, 36.0])
    # a fresh forward pass gives a fresh graph
    x.grad = None
    ops.tsum(ops.square(ops.mul(x, 3.0))).backward()
    np.testing.assert_allclose(x.grad, [18.0, 36.0])


def test_backward_through_a_consumed_subgraph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ops.mul(x, 3.0)
    ops.tsum(ops.square(y)).backward()
    with pytest.raises(UsageError, match="'mul'"):
        ops.tsum(y).backward()


def test_backward_releases_the_tape_but_keeps_leaf_grads():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ops.square(x)
    loss = ops.tsum(y)
    loss.backward()
    for node in (y, loss):
        assert node.grad is None and node._backward is None and node._parents == ()
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
