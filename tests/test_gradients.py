"""Finite-difference verification of analytic gradients."""

import numpy as np
import pytest

from restorekit import gradcheck, ops
from restorekit.errors import UsageError
from restorekit.tensor import Tensor


def t64(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_sum_gradient_error_is_tiny(rng):
    err = gradcheck.finite_diff_check(lambda t: ops.tsum(t), t64(rng, (3, 4)))
    assert err < 1e-7


def test_conv_square_loss_gradient(rng):
    w = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.3)

    def loss(t):
        return ops.tsum(ops.square(ops.conv2d(t, w)))

    err = gradcheck.finite_diff_check(loss, t64(rng, (1, 3, 6, 6)))
    assert err < gradcheck.PRIMITIVE_TOL


def test_fft_magnitude_loss_gradient(rng):
    def loss(t):
        spec = ops.fft2d(t)
        mag = ops.sqrt(ops.square(spec.real) + ops.square(spec.imag) + 1e-8)
        return ops.tsum(mag)

    err = gradcheck.finite_diff_check(loss, t64(rng, (1, 1, 5, 5)))
    assert err < gradcheck.PRIMITIVE_TOL


def test_module_report_covers_the_four_modules():
    # the five-seed tolerance sweep is acceptance criterion 1; this pins the module set
    report = gradcheck.check_modules(0)
    assert set(report) == {"prompts", "attention_block", "dual_domain", "skip_fusion"}
    assert max(report.values()) < gradcheck.MODULE_TOL, report


def test_model_gradient_spot_check():
    err = gradcheck.check_model(seed=0, samples=60)
    assert err < gradcheck.MODEL_TOL, err


def test_sampled_indices_are_deterministic(rng):
    x = rng.normal(size=(4, 4))

    def loss(t):
        return ops.tsum(ops.square(t))

    e1 = gradcheck.finite_diff_check(loss, Tensor(x.copy(), requires_grad=True),
                                     sample=5, rng=np.random.default_rng(7))
    e2 = gradcheck.finite_diff_check(loss, Tensor(x.copy(), requires_grad=True),
                                     sample=5, rng=np.random.default_rng(7))
    assert e1 == e2


def test_checker_rejects_non_scalar_and_frozen_inputs(rng):
    with pytest.raises(UsageError):
        gradcheck.finite_diff_check(lambda t: t, t64(rng, (2, 2)))
    with pytest.raises(UsageError):
        gradcheck.finite_diff_check(lambda t: ops.tsum(t), Tensor(rng.normal(size=(2, 2))))


def test_checker_flags_a_planted_gradient_bug(rng):
    """A deliberately wrong backward must produce a large error at every step size."""
    from restorekit.tensor import accumulate_grad, make_node

    def bad_double(t):
        def backward(g):
            accumulate_grad(t, 3.0 * g)  # claims 3x, forward computes 2x
        return make_node(2.0 * t.data, (t,), backward, "bad_double")

    err = gradcheck.finite_diff_check(lambda t: ops.tsum(bad_double(t)), t64(rng, (3,)))
    assert err > 0.3


def test_primitive_report_covers_the_op_set():
    report = gradcheck.check_primitives(0)
    assert len(report) >= 25
    for probe in ("conv2d.x", "conv2d.1x1", "conv2d.depthwise.x", "conv2d.depthwise5", "fft2d",
                  "softmax", "normalize.layer", "div.denominator"):
        assert probe in report
