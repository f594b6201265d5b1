"""Backbone assembly: shapes, parameter budgets, toggles, determinism."""

import json
from dataclasses import fields

import numpy as np
import pytest

from restorekit import ops
from restorekit.checkpoint import load_model, save_model
from restorekit.errors import ConfigError, ShapeError
from restorekit.model import (PRESETS, ModelConfig, RestorationModel, ablation_variants,
                              config_by_name, config_from_dict, config_to_dict,
                              full_config, small_config, tiny_config)
from restorekit.tensor import Tensor
from restorekit.train import l1_fourier_loss

FULL_TARGET = 30_860_000
SMALL_TARGET = 13_850_000


@pytest.fixture(scope="module")
def tiny():
    return RestorationModel(tiny_config(), dtype=np.float64)


def test_full_parameter_count_within_twenty_percent():
    n = RestorationModel(full_config()).param_count()
    assert abs(n - FULL_TARGET) / FULL_TARGET <= 0.20, n


def test_small_parameter_count_within_twenty_percent():
    n = RestorationModel(small_config()).param_count()
    assert abs(n - SMALL_TARGET) / SMALL_TARGET <= 0.20, n


def test_conv_in_parameter_count_exact():
    model = RestorationModel(full_config())
    w = dict(model.store.items())["conv_in.weight"]
    b = dict(model.store.items())["conv_in.bias"]
    assert w.size + b.size == 48 * 3 * 3 * 3 + 48 == 1344


def test_skip_fusion_overhead_under_two_percent():
    gated = RestorationModel(full_config()).store
    plain = RestorationModel(ModelConfig(use_agf=False)).store
    overhead = (gated.total_parameters() - plain.total_parameters()) / plain.total_parameters()
    assert 0 < overhead <= 0.02, overhead


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_shape_and_dtype(dtype):
    model = RestorationModel(tiny_config(), dtype=dtype)
    x = np.random.default_rng(0).normal(size=(2, 3, 64, 64)).astype(dtype)
    y = model(Tensor(x))
    assert y.shape == (2, 3, 64, 64)
    assert y.data.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_loss_backward_stay_in_store_dtype(dtype):
    """No constant may promote the tape: every node and gradient keeps the store's dtype."""
    model = RestorationModel(tiny_config(seed=2), dtype=dtype)
    rng = np.random.default_rng(6)
    x = rng.random((2, 3, 32, 32)).astype(dtype)
    y = rng.random((2, 3, 32, 32)).astype(dtype)
    loss = l1_fourier_loss(model(x), Tensor(y), 0.1)
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    promoted = sorted({n.op for n in nodes if n.data.dtype != dtype})
    assert not promoted, promoted
    loss.backward()
    wrong = [n for n, p in model.store.items() if p.grad is None or p.grad.dtype != dtype]
    assert not wrong, wrong


def _output_and_grads(cfg, weights, dtype, x, y):
    model = RestorationModel(cfg, dtype=dtype, arrays=weights)
    pred = model(Tensor(x.astype(dtype)))
    l1_fourier_loss(pred, Tensor(y.astype(dtype)), 0.1).backward()
    return pred.data.astype(np.float64), {n: p.grad.astype(np.float64) for n, p in model.store.items()}


@pytest.mark.parametrize("seed", range(5))
def test_float32_model_tracks_float64_on_the_same_weights(seed):
    """The float32 kernels (the erf polynomial, the chunked walks) against float64, model level.

    grad-check runs in float64 only.  Both models take the same float32
    weights, which float64 holds exactly.  Measured: output within 1.5e-7
    of its largest entry, all gradients within 9.3e-7 in norm, the worst
    tensor (an attention temperature parameter) within 4.1e-5.
    """
    cfg = tiny_config(seed=seed)
    weights = {n: p.data for n, p in RestorationModel(cfg, dtype=np.float32).store.items()}
    x, y = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2, 2, 3, 32, 32))
    out32, grads32 = _output_and_grads(cfg, weights, np.float32, x, y)
    out64, grads64 = _output_and_grads(cfg, weights, np.float64, x, y)
    assert np.max(np.abs(out32 - out64)) <= 1e-6 * np.max(np.abs(out64))
    diff = np.concatenate([(grads32[n] - grads64[n]).ravel() for n in grads64])
    assert np.linalg.norm(diff) <= 1e-5 * np.linalg.norm(np.concatenate([g.ravel() for g in grads64.values()]))
    for name, g in grads64.items():
        assert np.linalg.norm(grads32[name] - g) <= 2e-4 * np.linalg.norm(g), name


def test_forward_rejects_bad_shapes(tiny):
    with pytest.raises(ShapeError):
        tiny(Tensor(np.zeros((1, 3, 60, 64))))
    with pytest.raises(ShapeError):
        tiny(Tensor(np.zeros((1, 4, 64, 64))))
    with pytest.raises(ShapeError):
        tiny(Tensor(np.zeros((3, 64, 64))))
    # 0 % 8 == 0: a zero side passed the multiple-of-8 check and failed deep in a conv
    for shape in ((1, 3, 0, 8), (1, 3, 8, 0), (1, 3, 0, 0)):
        with pytest.raises(ShapeError, match="positive multiples of 8"):
            tiny(Tensor(np.zeros(shape)))


def test_toggles_reduce_parameter_count():
    base = RestorationModel(tiny_config()).param_count()
    for flag in ("use_agf", "use_cgdm", "use_adaptive_temp", "use_gated_output"):
        cfg = tiny_config()
        setattr(cfg, flag, False)
        assert RestorationModel(cfg).param_count() < base, flag


def test_plain_baseline_builds_no_prompt_network():
    cfg = tiny_config()
    cfg.use_agf = cfg.use_cgdm = cfg.use_adaptive_temp = cfg.use_gated_output = False
    model = RestorationModel(cfg)
    assert model.prompts is None
    assert model.bottleneck is None
    names = [n for n, _ in model.store.items()]
    assert not any(n.startswith("prompts.") for n in names)
    y = model(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    assert y.shape == (1, 3, 32, 32)


def test_prompt_network_kept_when_only_bottleneck_needs_it():
    cfg = tiny_config()
    cfg.use_adaptive_temp = cfg.use_gated_output = False
    cfg.use_cgdm = True
    model = RestorationModel(cfg)
    assert model.prompts is not None and model.bottleneck is not None


def test_residual_identity_with_zeroed_output_projection(tiny_zeroed=None):
    model = RestorationModel(tiny_config(), dtype=np.float64)
    model.conv_out.weight.data[:] = 0.0
    model.conv_out.bias.data[:] = 0.0
    x = np.random.default_rng(3).normal(size=(1, 3, 32, 32))
    y = model(Tensor(x)).data
    assert np.array_equal(y, x)


def test_forward_is_deterministic():
    x = np.random.default_rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32)
    a = RestorationModel(tiny_config(seed=5))(Tensor(x.copy())).data
    b = RestorationModel(tiny_config(seed=5))(Tensor(x.copy())).data
    assert np.array_equal(a, b)


def test_different_seed_different_weights():
    a = RestorationModel(tiny_config(seed=0)).conv_in.weight.data
    b = RestorationModel(tiny_config(seed=1)).conv_in.weight.data
    assert not np.array_equal(a, b)


def test_backward_reaches_every_parameter(tiny):
    x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 32, 32)), requires_grad=True)
    y = tiny(x)
    ops.tmean(ops.square(y)).backward()
    assert x.grad is not None
    missing = [n for n, p in tiny.store.items() if p.grad is None]
    assert not missing, missing
    tiny.store.zero_grads()


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    model = RestorationModel(tiny_config(seed=7))
    x = Tensor(np.random.default_rng(4).normal(size=(1, 3, 32, 32)).astype(np.float32))
    before = model(x).data.copy()
    save_model(model, tmp_path / "m")
    loaded, manifest, _ = load_model(tmp_path / "m")
    assert config_to_dict(loaded.config) == config_to_dict(model.config)
    assert manifest["schema_version"] == 1
    after = loaded(x).data
    assert np.array_equal(before, after)


def test_manifest_with_the_retired_config_keys_loads_the_same_model(tmp_path):
    """A manifest carrying all 16 config keys once written, at their defaults, still loads."""
    model = RestorationModel(tiny_config(seed=7))
    save_model(model, tmp_path / "m")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["config"] = {"base_channels": 8, "enc_blocks": [1, 1, 1, 1], "refinement_blocks": 1,
                          "heads": [1, 1, 2, 2], "num_scales": 3, "global_dim": 256,
                          "ffn_expansion": 2.66, "norm_eps": 1e-6, "gn_groups": 4, "se_reduction": 4,
                          "use_agf": True, "use_cgdm": True, "use_caga": True,
                          "use_adaptive_temp": True, "use_gated_output": True, "seed": 7}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    loaded, _, _ = load_model(tmp_path / "m")
    assert loaded.config == model.config
    x = Tensor(np.random.default_rng(4).normal(size=(1, 3, 32, 32)).astype(np.float32))
    assert np.array_equal(loaded(x).data, model(x).data)


def test_every_config_field_but_the_seed_is_varied_by_a_preset_or_an_ablation():
    """A field no preset or ablation row sets to a second value belongs in FIXED, not the config."""
    configs = [make() for make in PRESETS.values()]
    configs += [cfg for base in list(configs) for _, cfg in ablation_variants(base)]
    for f in fields(ModelConfig):
        if f.name != "seed":
            assert len({getattr(c, f.name) for c in configs}) >= 2, f.name


def test_ablation_variants_cover_the_module_matrix():
    rows = ablation_variants(tiny_config())
    labels = [label for label, _ in rows]
    assert len(rows) == 11 and len(set(labels)) == 11
    flags = {(c.use_agf, c.use_cgdm, c.use_adaptive_temp or c.use_gated_output) for _, c in rows}
    assert len(flags) == 8  # all single/pair/full/none combinations appear


def test_ablation_variants_build_and_step(rng):
    x = Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
    counts = {}
    for label, cfg in ablation_variants(tiny_config()):
        model = RestorationModel(cfg)
        y = model(x)
        assert y.shape == (1, 3, 32, 32), label
        ops.tmean(ops.square(y)).backward()
        counts[label] = model.param_count()
    # structurally distinct variants have distinct parameter counts
    assert counts["full"] > counts["plain baseline"]
    assert counts["temperature only"] != counts["output-gate only"]
    assert counts["skip-fusion only"] != counts["dual-domain only"]


def test_config_serialisation_round_trip():
    cfg = small_config(seed=3)
    d = config_to_dict(cfg)
    back = config_from_dict(d)
    assert back == cfg
    with pytest.raises(ConfigError):
        config_from_dict({"bogus_field": 1})


def test_config_by_name_and_validation():
    assert config_by_name("tiny").base_channels == 8
    assert config_by_name("full").base_channels == 48
    with pytest.raises(ConfigError):
        config_by_name("huge")
    with pytest.raises(ConfigError):
        ModelConfig(heads=(5, 2, 4, 8)).validate()  # 5 does not divide 48
    with pytest.raises(ConfigError):
        ModelConfig(enc_blocks=(1, 2, 3)).validate()
    for field in ("ffn_expansion", "norm_eps"):
        with pytest.raises(ConfigError, match=field):
            config_from_dict({**config_to_dict(tiny_config()), field: float("nan")})
