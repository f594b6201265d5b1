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
        re, im = ops.narrow(spec, 1, 0, 1), ops.narrow(spec, 1, 1, 1)
        mag = ops.sqrt(ops.add(ops.add(ops.square(re), ops.square(im)), 1e-8))
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
    # exactly these probes: a dropped one fails, and a new op has to be named here
    report = gradcheck.check_primitives(0)
    assert set(report) == {
        "conv2d.x", "conv2d.w", "conv2d.b", "conv2d.1x1", "conv2d.depthwise.x", "conv2d.depthwise.w",
        "conv2d.depthwise5", "linear.x", "linear.w", "matmul", "softmax", "gelu", "relu", "sigmoid",
        "exp", "abs", "normalize.layer", "normalize.group", "gap", "mean_std", "fft2d", "ifft2d",
        "pixel_unshuffle", "pixel_shuffle", "concat", "sub.a", "sub.b", "div.denominator", "gelu_gate",
        "channel_attention", "channel_attention.tau"}


def probe_inputs(monkeypatch, seed):
    """Each primitive probe's input, by name, without running the finite differences."""
    seen = []
    monkeypatch.setattr(gradcheck, "finite_diff_check", lambda f, x: seen.append(x.data.copy()) or 0.0)
    return dict(zip(gradcheck.check_primitives(seed), seen))


def test_a_probes_inputs_depend_only_on_the_seed_and_its_name(monkeypatch):
    base = probe_inputs(monkeypatch, 0)
    real_projector = gradcheck._projector

    def greedy_projector(rng):
        rng.normal()  # one draw more than the real projector makes
        return real_projector(rng)

    # with one generator shared in sequence, the extra draws would move every later probe
    monkeypatch.setattr(gradcheck, "_projector", greedy_projector)
    moved = probe_inputs(monkeypatch, 0)
    assert set(moved) == set(base)
    for name, x in moved.items():
        assert np.array_equal(x, base[name]), name
    for name, x in probe_inputs(monkeypatch, 1).items():
        assert not np.array_equal(x, base[name]), name
