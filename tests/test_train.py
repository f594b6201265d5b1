"""Loss, optimizer, schedule, training loop determinism and resume."""

import json
import os
import threading
import weakref

import numpy as np
import pytest

from restorekit import ops, train
from restorekit.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from restorekit.degrade import make_patch_set, spec_for_task
from restorekit.errors import ConfigError, DataError, NumericsError, ShapeError, UsageError
from restorekit.model import RestorationModel, config_to_dict, tiny_config
from restorekit.params import ParamStore
from restorekit.tensor import Tensor
from restorekit.train import (OptimizerState, TrainConfig, adam_step, cosine_lr,
                              l1_fourier_loss, train_loop)


# -- loss ---------------------------------------------------------------------

def test_loss_is_zero_for_identical_tensors(rng):
    x = Tensor(rng.normal(size=(2, 3, 8, 8)))
    assert float(l1_fourier_loss(x, Tensor(x.data.copy())).data) == 0.0


def test_loss_on_constant_offset_has_closed_form():
    """pred = target + delta: pixel term |delta|, spectral term all at DC."""
    delta = 0.25
    t = np.zeros((1, 1, 4, 4))
    p = t + delta
    lam = 0.1
    loss = float(l1_fourier_loss(Tensor(p), Tensor(t), lam).data)
    # spectrum of a constant: one bin of magnitude h*w*delta, rest zero
    want = delta + lam * (16 * delta / 16.0)
    assert loss == pytest.approx(want, rel=1e-12)


def test_loss_weight_zero_is_pixel_only(rng):
    p = Tensor(rng.normal(size=(1, 3, 8, 8)))
    t = Tensor(rng.normal(size=(1, 3, 8, 8)))
    pixel = float(np.mean(np.abs(p.data - t.data)))
    parts = {}
    assert float(l1_fourier_loss(p, t, 0.0, parts).data) == pytest.approx(pixel, rel=1e-12)
    assert parts == {"pixel": pytest.approx(pixel, rel=1e-12), "fourier": 0.0}
    assert float(l1_fourier_loss(p, t, 0.1).data) > pixel


def test_loss_matches_numpy_real_and_imaginary_terms(rng):
    p = rng.normal(size=(2, 3, 8, 6))
    t = rng.normal(size=(2, 3, 8, 6))
    d = np.fft.fft2(p, axes=(-2, -1)) - np.fft.fft2(t, axes=(-2, -1))
    lam = 0.3
    pixel = np.mean(np.abs(p - t))
    fourier = lam * (np.mean(np.abs(d.real)) + np.mean(np.abs(d.imag)))
    parts = {}
    got = float(l1_fourier_loss(Tensor(p), Tensor(t), lam, parts).data)
    assert got == pytest.approx(pixel + fourier, rel=1e-12)
    assert parts["pixel"] == pytest.approx(pixel, rel=1e-12)
    assert parts["fourier"] == pytest.approx(fourier, rel=1e-12)
    assert parts["pixel"] + parts["fourier"] == pytest.approx(got, rel=1e-15)
    assert got == float(l1_fourier_loss(Tensor(p), Tensor(t), lam).data)


def test_loss_is_differentiable(rng):
    p = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
    l1_fourier_loss(p, Tensor(rng.normal(size=(1, 3, 8, 8)))).backward()
    assert p.grad is not None and np.all(np.isfinite(p.grad))


# -- schedule -------------------------------------------------------------------

def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 1e-3, 1e-6) == pytest.approx(1e-3)
    assert cosine_lr(100, 100, 1e-3, 1e-6) == pytest.approx(1e-6)
    assert cosine_lr(50, 100, 1e-3, 1e-6) == pytest.approx((1e-3 + 1e-6) / 2)
    assert cosine_lr(500, 100, 1e-3, 1e-6) == pytest.approx(1e-6)  # clamps past end


def test_cosine_schedule_returns_a_python_float():
    # a numpy float64 here would make adam_step build float64 updates
    assert type(cosine_lr(7, 50, 1e-3, 1e-6)) is float


def test_cosine_schedule_is_monotone_decreasing():
    vals = [cosine_lr(t, 50, 1e-3, 1e-6) for t in range(51)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- adam ------------------------------------------------------------------------

def test_adam_first_step_moves_by_lr_times_sign(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    p = store.param("w", (4,), init="fan_in", fan_in=4)
    before = p.data.copy()
    p.grad = np.array([1.0, -2.0, 0.5, -0.1])
    state = OptimizerState(store)
    adam_step(store, state, lr=1e-2)
    # bias-corrected first step: update = g/|g| up to eps
    np.testing.assert_allclose(p.data, before - 1e-2 * np.sign(p.grad), rtol=1e-6)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    store = ParamStore(seed=0, dtype=np.float64)
    p = store.param("w", (3,), init="ones")
    p.grad = np.zeros(3)
    adam_step(store, OptimizerState(store), lr=1.0)
    np.testing.assert_array_equal(p.data, np.ones(3))


def test_adam_requires_gradients():
    store = ParamStore(seed=0)
    store.param("w", (2,))
    with pytest.raises(UsageError, match="'w'"):
        adam_step(store, OptimizerState(store), lr=1e-3)


def test_adam_without_a_gradient_changes_nothing(rng):
    # every gradient is checked before the first write: the step count,
    # the parameters and both moments are as they were
    store = ParamStore(seed=0, dtype=np.float64)
    store.param("a", (3,), init="ones").grad = np.ones(3)
    store.param("b", (2,), init="ones")
    state = OptimizerState(store)
    state.load_arrays({f"{role}.{name}": rng.uniform(size=p.data.shape)
                       for role in "mv" for name, p in store.items()}, t=2)
    before = {name: p.data.copy() for name, p in store.items()}
    moments = {key: arr.copy() for key, arr in state.arrays().items()}
    with pytest.raises(UsageError, match="'b'"):
        adam_step(store, state, lr=1e-1)
    assert state.t == 2
    for name, p in store.items():
        assert np.array_equal(p.data, before[name]), name
    for key, arr in state.arrays().items():
        assert np.array_equal(arr, moments[key]), key


def test_adam_state_counts_steps(rng):
    store = ParamStore(seed=0, dtype=np.float64)
    p = store.param("w", (2,), init="ones")
    state = OptimizerState(store)
    for _ in range(3):
        p.grad = rng.normal(size=2)
        adam_step(store, state, lr=1e-3)
    assert state.t == 3


def textbook_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One whole-tensor Adam update per array, in place: the form adam_step chunks."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        p -= (lr * update).astype(p.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_chunked_adam_is_bit_identical_to_the_whole_tensor_form(rng, dtype):
    # tensors of at least ops.CHUNK elements go chunk by chunk, smaller ones
    # in packs: a few hundred of 1-1000 elements fill several packs, with
    # larger tensors and an empty one between them.  The moments are
    # standalone arrays, not views of OptimizerState's one buffer per role.
    chunk = ops.CHUNK
    shapes = {"one": (1,), "below": (chunk - 1,), "exact": (chunk,), "above": (chunk + 1,),
              "several": (3 * chunk + 5,), "conv": (6, 1, 3, 3)}
    small = {f"s{i}": (int(size),) for i, size in enumerate(rng.integers(1, 1001, size=300))}
    small["s150"] = (0, 2)
    shapes = {**dict(list(small.items())[:100]), **shapes, **dict(list(small.items())[100:])}
    assert sum(np.prod(s) for s in small.values()) > 2 * chunk
    store = ParamStore(seed=0, dtype=dtype)
    for name, shape in shapes.items():
        store.param(name, shape, init="fan_in", fan_in=9)
    state = OptimizerState(store)
    for role in (state.m, state.v):
        for name in role:
            role[name] = (rng.uniform(size=shapes[name]) * 1e-3).astype(dtype)
    params = {name: p.data.copy() for name, p in store.items()}
    m = {name: a.copy() for name, a in state.m.items()}
    v = {name: a.copy() for name, a in state.v.items()}
    for t, lr in enumerate((1e-3, 5e-4, 2e-4), start=1):
        grads = {name: rng.normal(size=shapes[name]).astype(dtype) for name in shapes}
        for name, p in store.items():
            p.grad = grads[name]
        adam_step(store, state, lr)
        textbook_adam(params, grads, m, v, t, lr)
    for name, p in store.items():
        assert p.data.dtype == dtype
        assert np.array_equal(p.data, params[name]), name
        assert np.array_equal(state.m[name], m[name]), name
        assert np.array_equal(state.v[name], v[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_adam_step_returns_the_global_gradient_norm(rng, dtype):
    chunk = ops.CHUNK
    store = ParamStore(seed=0, dtype=dtype)
    for name, shape in {"one": (1,), "above": (chunk + 1,), "several": (3 * chunk + 5,),
                        "conv": (6, 1, 3, 3)}.items():
        store.param(name, shape, init="fan_in", fan_in=9)
    for p in store.tensors():
        p.grad = (10.0 * rng.normal(size=p.data.shape)).astype(dtype)
    want = np.linalg.norm(np.concatenate([p.grad.ravel() for p in store.tensors()]).astype(np.float64))
    got = adam_step(store, OptimizerState(store), lr=1e-3)
    # per-chunk dot products in the gradients' dtype, added in float64
    assert got == pytest.approx(want, rel=16 * np.finfo(dtype).eps)


def test_adam_updates_loaded_moments_that_are_not_contiguous(rng):
    # adam_step writes through flat views; a transposed moment must not turn
    # them into copies that drop the update
    grad = rng.normal(size=(3, 3))
    runs = []
    for layout in (np.ascontiguousarray, np.transpose):
        store = ParamStore(seed=0, dtype=np.float64)
        p = store.param("w", (3, 3), init="ones")
        p.grad = grad
        state = OptimizerState(store)
        state.load_arrays({"m.w": layout(np.full((3, 3), 0.5)), "v.w": layout(np.full((3, 3), 0.25))}, t=1)
        adam_step(store, state, lr=1e-2)
        runs.append((p.data, state.m["w"], state.v["w"]))
    for want, got in zip(*runs):
        assert np.array_equal(got, want)
    assert not np.array_equal(runs[1][1], np.full((3, 3), 0.5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_optimizer_moments_share_one_buffer_per_role(rng, dtype):
    store = ParamStore(seed=0, dtype=dtype)
    for name, shape in {"w": (6, 1, 3, 3), "b": (6,), "empty": (0, 2), "big": (3, 70000)}.items():
        store.param(name, shape, init="fan_in", fan_in=9)
    state = OptimizerState(store)
    bases = []
    for role in (state.m, state.v):
        base = role["w"].base
        assert base is not None and base.size == store.total_parameters()
        for name, p in store.items():
            arr = role[name]
            assert arr.base is base and arr.shape == p.data.shape and arr.dtype == dtype, name
            assert arr.flags.c_contiguous and not np.any(arr), name
        bases.append(base)
    assert bases[0] is not bases[1]
    for p in store.tensors():
        p.grad = rng.normal(size=p.data.shape).astype(dtype)
    adam_step(store, state, lr=1e-3)
    offset = 0
    for name, p in store.items():
        for role, base in zip((state.m, state.v), bases):
            assert np.array_equal(base[offset:offset + p.data.size], role[name].ravel()), name
        offset += p.data.size
    assert np.any(bases[0]) and np.any(bases[1])
    refs = [weakref.ref(base) for base in bases]
    del state, bases, base, role, arr
    assert all(ref() is None for ref in refs)


# -- training loop -----------------------------------------------------------------

def small_pairs(count=8):
    return make_patch_set(spec_for_task("denoise"), count=count, patch=16, seed=0)


def quick_cfg(**kw):
    base = dict(steps=4, batch_size=2, lr0=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def quick_model(seed=0, dtype=np.float64):
    cfg = tiny_config(seed=seed)
    return RestorationModel(cfg, dtype=dtype)


def test_identical_seeds_give_bit_identical_loss_curves():
    pairs = small_pairs()
    r1 = train_loop(quick_model(), pairs, quick_cfg())
    r2 = train_loop(quick_model(), pairs, quick_cfg())
    assert r1.losses == r2.losses  # exact float equality in 64-bit mode
    assert len(r1.losses) == 4


def test_training_writes_report_and_final_checkpoint(tmp_path):
    report = train_loop(quick_model(), small_pairs(), quick_cfg(), out_dir=tmp_path)
    assert (tmp_path / "report.jsonl").exists()
    assert (tmp_path / "ckpt_final.json").exists()
    assert (tmp_path / "ckpt_final.bin").exists()
    lines = (tmp_path / "report.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    assert report.checkpoints


def test_step_log_splits_the_step_time(tmp_path):
    report = train_loop(quick_model(), small_pairs(), quick_cfg(), out_dir=tmp_path)
    logged = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
    assert logged == report.records
    for rec in logged:
        parts = [rec["fwd_ms"], rec["bwd_ms"], rec["optim_ms"]]
        assert all(part >= 0 for part in parts)
        assert sum(parts) <= rec["wall_ms"]
        assert rec["pixel_loss"] > 0 and rec["fourier_loss"] > 0
        assert rec["pixel_loss"] + rec["fourier_loss"] == pytest.approx(rec["loss"], rel=1e-12)
        assert np.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0


def test_train_loop_releases_gradients_before_each_forward(monkeypatch):
    model = quick_model()
    held = []
    real_forward = model.forward

    def forward(x):
        held.append([name for name, p in model.store.items() if p.grad is not None])
        return real_forward(x)

    monkeypatch.setattr(model, "forward", forward)
    train_loop(model, small_pairs(), quick_cfg(steps=3))
    assert held == [[], [], []]


def test_train_loop_keeps_the_last_step_gradients():
    model = quick_model()
    train_loop(model, small_pairs(), quick_cfg(steps=2))
    for name, p in model.store.items():
        assert p.grad is not None and p.grad.shape == p.data.shape, name
        assert np.all(np.isfinite(p.grad)), name


def test_periodic_checkpoints(tmp_path):
    train_loop(quick_model(), small_pairs(), quick_cfg(steps=4, checkpoint_every=2),
               out_dir=tmp_path)
    assert (tmp_path / "ckpt_step000002.json").exists()
    assert not (tmp_path / "ckpt_step000004.json").exists()  # final covers the end


def test_negative_checkpoint_interval_is_rejected(tmp_path):
    # done % -1 == 0 holds at every step, so this used to checkpoint every step
    with pytest.raises(ConfigError, match="checkpoint_every"):
        train_loop(quick_model(), small_pairs(), quick_cfg(checkpoint_every=-1), out_dir=tmp_path)
    assert not list(tmp_path.glob("ckpt_*"))


def test_resume_reproduces_uninterrupted_trajectory(tmp_path):
    """Restart from a mid-run snapshot; the tail must match the straight run."""
    pairs = small_pairs()
    full = train_loop(quick_model(), pairs, quick_cfg(steps=6, checkpoint_every=3),
                      out_dir=tmp_path / "full")
    resumed_model = quick_model()
    cont = train_loop(resumed_model, pairs, quick_cfg(steps=6),
                      resume=tmp_path / "full" / "ckpt_step000003")
    assert len(cont.losses) == 3
    np.testing.assert_allclose(cont.losses, full.losses[3:], rtol=0, atol=1e-6)


def test_resume_ignores_adam_fields_an_older_checkpoint_records(tmp_path):
    """Checkpoints once stored beta1, beta2 and adam_eps in their train config; they still resume."""
    pairs = small_pairs()
    full = train_loop(quick_model(), pairs, quick_cfg(steps=6, checkpoint_every=3),
                      out_dir=tmp_path / "full")
    manifest_path = tmp_path / "full" / "ckpt_step000003.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["train_state"]["train_config"].update(beta1=0.9, beta2=0.999, adam_eps=1e-8)
    manifest_path.write_text(json.dumps(manifest))
    cont = train_loop(quick_model(), pairs, quick_cfg(steps=6),
                      resume=tmp_path / "full" / "ckpt_step000003")
    assert cont.losses == full.losses[3:]


def test_resume_logs_each_step_once(tmp_path):
    """A crash after the step-2 checkpoint left steps 2-3 in the report."""
    pairs = small_pairs()
    train_loop(quick_model(), pairs, quick_cfg(steps=4, checkpoint_every=2), out_dir=tmp_path)
    report = tmp_path / "report.jsonl"
    with report.open("a") as fh:
        fh.write('{"step": 3, "lr": 0.1, "lo')  # torn by the crash
    train_loop(quick_model(), pairs, quick_cfg(steps=4), out_dir=tmp_path,
               resume=tmp_path / "ckpt_step000002")
    steps = [json.loads(line)["step"] for line in report.read_text().splitlines()]
    assert steps == [0, 1, 2, 3]


@pytest.mark.parametrize("line", ['{"step": 1, "lr": 0.1, "lo\n', '{"lr": 0.1}\n', '[1]\n'],
                         ids=["not-json", "no-step", "not-an-object"])
def test_resume_refuses_a_corrupt_report_line(tmp_path, line):
    pairs = small_pairs()
    train_loop(quick_model(), pairs, quick_cfg(steps=4, checkpoint_every=2), out_dir=tmp_path)
    report = tmp_path / "report.jsonl"
    lines = report.read_text().splitlines(keepends=True)
    lines[1] = line
    report.write_text("".join(lines))
    with pytest.raises(DataError, match="report.jsonl line 2 "):
        train_loop(quick_model(), pairs, quick_cfg(steps=4), out_dir=tmp_path,
                   resume=tmp_path / "ckpt_step000002")
    assert report.read_text() == "".join(lines)


@pytest.mark.parametrize("field, value", [("steps", 10), ("batch_size", 3), ("lr0", 1.0)])
def test_resume_refuses_a_different_train_config(tmp_path, field, value):
    pairs = small_pairs()
    train_loop(quick_model(), pairs, quick_cfg(steps=4, checkpoint_every=2), out_dir=tmp_path)
    with pytest.raises(ConfigError, match=f"{field}="):
        train_loop(quick_model(), pairs, quick_cfg(**{"steps": 4, field: value}),
                   resume=tmp_path / "ckpt_step000002")


def test_resume_refuses_a_different_parameter_dtype(tmp_path):
    pairs = small_pairs()
    train_loop(quick_model(dtype=np.float32), pairs, quick_cfg(steps=4, checkpoint_every=2),
               out_dir=tmp_path)
    with pytest.raises(ConfigError, match="dtype='float32'"):
        train_loop(quick_model(dtype=np.float64), pairs, quick_cfg(steps=4),
                   resume=tmp_path / "ckpt_step000002")


def test_resume_keeps_the_loaded_arrays_without_copying(tmp_path, monkeypatch):
    """Parameters and Adam moments of a resumed run live in the loaded payload."""
    pairs = small_pairs()
    train_loop(quick_model(), pairs, quick_cfg(steps=4, checkpoint_every=2), out_dir=tmp_path)
    loaded, states = [], []
    real_load, real_take = train.load_checkpoint, OptimizerState.load_arrays

    def load(path):
        loaded.append(real_load(path))
        return loaded[-1]

    def take(state, arrays, t):
        states.append(state)
        real_take(state, arrays, t)

    monkeypatch.setattr(train, "load_checkpoint", load)
    monkeypatch.setattr(OptimizerState, "load_arrays", take)
    model = quick_model()
    train_loop(model, pairs, quick_cfg(steps=4), resume=tmp_path / "ckpt_step000002")
    (_, arrays), (state,) = loaded[0], states
    for name, p in model.store.items():
        assert np.shares_memory(p.data, arrays[name])
        assert np.shares_memory(state.m[name], arrays[f"optim.m.{name}"])
        assert np.shares_memory(state.v[name], arrays[f"optim.v.{name}"])


def _rewrite_checkpoint(stem, drop=None, reshape=None):
    """Rewrite a checkpoint with one entry dropped or one entry given a new shape."""
    manifest, arrays = load_checkpoint(stem)
    arrays.pop(drop, None)
    if reshape is not None:
        arrays[reshape] = np.zeros(arrays[reshape].size + 1, dtype=arrays[reshape].dtype)
    return save_checkpoint(stem, arrays, manifest["config"], manifest["train_state"])


@pytest.mark.parametrize("edit, named", [
    (dict(drop="optim.m.conv_in.weight"), "no Adam moment 'm.conv_in.weight'"),
    (dict(reshape="optim.v.conv_out.bias"), "Adam moment 'v.conv_out.bias'"),
], ids=["missing", "misshaped"])
def test_resume_refuses_a_bad_adam_moment(tmp_path, edit, named):
    pairs = small_pairs()
    train_loop(quick_model(), pairs, quick_cfg(steps=4, checkpoint_every=2), out_dir=tmp_path)
    stem = _rewrite_checkpoint(tmp_path / "ckpt_step000002", **edit)
    with pytest.raises(DataError, match=named):
        train_loop(quick_model(), pairs, quick_cfg(steps=4), resume=stem)


def test_resume_requires_training_state(tmp_path):
    model = quick_model()
    save_model(model, tmp_path / "bare")
    with pytest.raises(ConfigError, match="no training state"):
        train_loop(model, small_pairs(), quick_cfg(), resume=tmp_path / "bare")


def test_nan_in_parameters_aborts_with_op_name():
    model = quick_model()
    model.conv_in.weight.data[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericsError, match="training aborted at step 0"):
        train_loop(model, small_pairs(), quick_cfg(steps=1))


def test_empty_pairs_rejected():
    with pytest.raises(ConfigError):
        train_loop(quick_model(), [], quick_cfg())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(steps=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr0=1e-4, lr_min=1e-3).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lambda_fourier=-0.1).validate()
    for field in ("lr0", "lr_min", "lambda_fourier"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                TrainConfig(**{field: value}).validate()


# -- checkpoint container ------------------------------------------------------------

def test_checkpoint_preserves_dtypes_and_values(tmp_path, rng):
    arrays = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(5,)).astype(np.float64),
    }
    stem = save_checkpoint(tmp_path / "ck", arrays, {"kind": "test"})
    manifest, back = load_checkpoint(stem)
    assert manifest["config"] == {"kind": "test"}
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype
        np.testing.assert_array_equal(back[name], arr)


def test_checkpoint_rejects_corruption(tmp_path, rng):
    arrays = {"a": rng.normal(size=(4,)).astype(np.float32)}
    stem = save_checkpoint(tmp_path / "ck", arrays, {})
    (tmp_path / "ck.bin").write_bytes(b"\x00" * 3)  # truncate payload
    with pytest.raises(DataError, match="payload"):
        load_checkpoint(stem)
    (tmp_path / "ck.json").write_text("{ not json")
    with pytest.raises(DataError, match="JSON"):
        load_checkpoint(stem)
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "missing")


def test_checkpoint_rejects_payload_with_wrong_checksum(tmp_path, rng):
    stem = save_checkpoint(tmp_path / "ck", {"a": rng.normal(size=(4,))}, {})
    payload = bytearray((tmp_path / "ck.bin").read_bytes())
    payload[5] ^= 0x01
    (tmp_path / "ck.bin").write_bytes(bytes(payload))
    with pytest.raises(DataError, match="CRC-32"):
        load_checkpoint(stem)


def _join_other_threads():
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(timeout=5)
            assert not t.is_alive(), t


def _open_fd_count():
    """Entries in /proc/self/fd, or None where the platform has no such directory."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_a_save_over_a_checkpoint_leaves_only_the_new_pair(tmp_path, rng):
    save_checkpoint(tmp_path / "ck", {"a": rng.normal(size=(64, 64))}, {}, {"step": 1})
    second = {"a": rng.normal(size=(3,)).astype(np.float32), "b": np.arange(5.0)}
    stem = save_checkpoint(tmp_path / "ck", second, {}, {"step": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin", "ck.json"]
    manifest, back = load_checkpoint(stem)
    assert manifest["train_state"] == {"step": 2}
    for name, arr in second.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes()


def test_a_save_succeeds_when_the_old_file_cannot_be_opened(tmp_path, monkeypatch):
    # monkeypatched: run as root, a chmod would not stop the open
    save_checkpoint(tmp_path / "ck", {"a": np.zeros(4)}, {}, {"step": 1})
    refused = []

    def refuse(path, *args, **kwargs):
        refused.append(path)
        raise PermissionError(path)

    monkeypatch.setattr(os, "open", refuse)
    stem = save_checkpoint(tmp_path / "ck", {"a": np.ones(4)}, {}, {"step": 2})
    monkeypatch.undo()
    assert len(refused) == 2  # the old payload, then the old manifest
    manifest, back = load_checkpoint(stem)
    assert manifest["train_state"] == {"step": 2}
    np.testing.assert_array_equal(back["a"], np.ones(4))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin", "ck.json"]


def test_the_threads_a_save_starts_finish_and_release_the_old_files(tmp_path, monkeypatch):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    save_checkpoint(tmp_path / "ck", {"a": np.zeros(4)}, {})
    _join_other_threads()
    fds = _open_fd_count()
    monkeypatch.setattr(threading, "Thread", Recorded)
    save_checkpoint(tmp_path / "ck", {"a": np.ones(8)}, {})
    monkeypatch.undo()
    assert len(started) == 2  # one per replaced file
    for t in started:
        assert not t.daemon
    _join_other_threads()
    assert _open_fd_count() == fds


@pytest.mark.parametrize("fail_on", [".bin", ".json"])
def test_interrupted_save_never_loads_a_mixed_pair(tmp_path, monkeypatch, fail_on):
    first = {"a": np.arange(6.0), "b": np.ones(3, dtype=np.float32)}
    second = {"a": np.arange(6.0) + 1.0, "b": np.zeros(3, dtype=np.float32)}
    stem = save_checkpoint(tmp_path / "ck", first, {}, {"step": 1})
    _join_other_threads()
    fds = _open_fd_count()
    real_replace = os.replace

    def crash(src, dst):
        if str(dst).endswith(fail_on):
            raise OSError("simulated crash")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(stem, second, {}, {"step": 2})
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.tmp"))
    _join_other_threads()
    assert _open_fd_count() == fds
    # same sizes, so only the checksum can tell the pair apart
    try:
        manifest, back = load_checkpoint(stem)
    except DataError:
        return
    assert manifest["train_state"] == {"step": 1}
    for name, arr in first.items():
        np.testing.assert_array_equal(back[name], arr)


@pytest.mark.parametrize("edit", [
    lambda e: e.update(shape=[-5]),
    lambda e: e.pop("offset"),
    lambda e: e.update(offset=-8),
], ids=["negative-dim", "missing-offset", "negative-offset"])
def test_checkpoint_rejects_a_malformed_tensor_entry(tmp_path, edit):
    arrays = {"a": np.zeros((3, 4), dtype=np.float32), "b": np.ones(5)}
    stem = save_checkpoint(tmp_path / "ck", arrays, {})
    manifest = json.loads((tmp_path / "ck.json").read_text())
    edit(manifest["tensors"][1])
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="'b'"):
        load_checkpoint(stem)


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("tensors"),
    lambda m: m.update(tensors={"name": "a"}),
], ids=["missing", "not-a-list"])
def test_checkpoint_rejects_a_manifest_without_a_tensor_list(tmp_path, edit):
    stem = save_checkpoint(tmp_path / "ck", {"a": np.zeros(3)}, {})
    manifest = json.loads((tmp_path / "ck.json").read_text())
    edit(manifest)
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="tensors"):
        load_checkpoint(stem)


@pytest.mark.parametrize("field", ["payload_bytes", "payload_crc32"])
@pytest.mark.parametrize("edit", [
    lambda m, f: m.pop(f),
    lambda m, f: m.update({f: -1}),
    lambda m, f: m.update({f: True}),
    lambda m, f: m.update({f: str(m[f])}),
], ids=["missing", "negative", "bool", "string"])
def test_checkpoint_needs_the_payload_size_and_checksum(tmp_path, field, edit):
    stem = save_model(RestorationModel(tiny_config()), tmp_path / "m")
    manifest = json.loads((tmp_path / "m.json").read_text())
    edit(manifest, field)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    for load in (load_checkpoint, load_model):
        with pytest.raises(DataError, match=field):
            load(stem)


def test_load_model_rejects_a_manifest_without_config(tmp_path):
    stem = save_model(RestorationModel(tiny_config()), tmp_path / "m")
    manifest = json.loads((tmp_path / "m.json").read_text())
    del manifest["config"]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="config"):
        load_model(stem)


def test_loaded_arrays_are_writable_and_private_to_their_load(tmp_path, rng):
    stem = save_checkpoint(tmp_path / "ck", {"a": rng.normal(size=(3, 4)), "b": np.ones(5)}, {})
    _, first = load_checkpoint(stem)
    for arr in first.values():
        assert arr.flags.writeable
        arr[...] = 0
    _, second = load_checkpoint(stem)
    np.testing.assert_array_equal(second["b"], np.ones(5))
    assert not np.any(second["a"] == 0)


def test_checkpoint_loads_a_misaligned_tensor_exactly(tmp_path, rng):
    # three f32 values put the f64 tensor at byte offset 12, not a multiple of 8
    arrays = {"odd": rng.normal(size=3).astype(np.float32), "wide": rng.normal(size=(2, 5))}
    stem = save_checkpoint(tmp_path / "ck", arrays, {})
    manifest, back = load_checkpoint(stem)
    assert manifest["tensors"][1]["offset"] == 12
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and back[name].flags.aligned
        assert back[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize("edit, named", [
    (lambda a: a.update(extra=np.zeros(2, dtype=np.float32)), r"unexpected=\['extra'\]"),
    (lambda a: a.pop("conv_out.bias"), r"missing=\['conv_out.bias'\]"),
    (lambda a: a.update({"conv_in.bias": np.zeros(3, dtype=np.float32)}), "'conv_in.bias'"),
], ids=["unexpected", "missing", "misshaped"])
def test_load_model_rejects_a_parameter_set_mismatch(tmp_path, edit, named):
    model = RestorationModel(tiny_config())
    arrays = {name: t.data for name, t in model.store.items()}
    edit(arrays)
    stem = save_checkpoint(tmp_path / "m", arrays, config_to_dict(model.config))
    with pytest.raises(ShapeError, match=named):
        load_model(stem)


def test_load_model_keeps_only_the_parameter_bytes(tmp_path):
    pairs = small_pairs()
    model = quick_model()
    train_loop(model, pairs, quick_cfg(steps=1), out_dir=tmp_path)
    stem = tmp_path / "ckpt_final"
    manifest, everything = load_checkpoint(stem)
    loaded, _, arrays = load_model(stem)
    param_bytes = sum(t.data.nbytes for t in model.store.tensors())
    assert arrays.keys() == set(model.store.names())
    assert any(n.startswith("optim.") for n in everything)
    for name, p in loaded.store.items():
        assert np.array_equal(p.data, everything[name])
        root = p.data
        while root.base is not None:
            root = root.base
        assert root.nbytes <= param_bytes, name
    # a moment is not kept, but it is still checked
    payload = bytearray((tmp_path / "ckpt_final.bin").read_bytes())
    assert manifest["tensors"][-1]["name"].startswith("optim.")
    payload[-1] ^= 1
    (tmp_path / "ckpt_final.bin").write_bytes(payload)
    with pytest.raises(DataError, match="CRC-32"):
        load_model(stem)


def test_load_model_draws_no_random_numbers(tmp_path):
    seed = 11
    stem = save_model(RestorationModel(tiny_config(seed=seed)), tmp_path / "m")
    untouched = np.random.default_rng(seed).bit_generator.state
    assert RestorationModel(tiny_config(seed=seed)).store.rng.bit_generator.state != untouched
    loaded, _, _ = load_model(stem)
    assert loaded.store.rng.bit_generator.state == untouched


def test_checkpoint_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(DataError, match="dtype"):
        save_checkpoint(tmp_path / "ck", {"a": np.zeros(3, dtype=np.int64)}, {})
