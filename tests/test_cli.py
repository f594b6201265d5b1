"""CLI behaviour: option precedence, exit codes, end-to-end plumbing."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from restorekit import cli, ops
from restorekit.checkpoint import load_checkpoint, save_checkpoint, save_model
from restorekit.model import RestorationModel, tiny_config
from restorekit.params import ParamStore
from restorekit.ppm import read_ppm, write_ppm
from restorekit.train import TrainConfig


def run(argv):
    return cli.main(argv)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "restorekit" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["train", "restore", "grad-check", "ablate", "metrics",
                                     "make-data"])
def test_subcommand_help_exits_zero(capsys, command):
    # every help string goes through argparse's %-formatting
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert f"restorekit {command}" in capsys.readouterr().out


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["polish"])
    assert exc.value.code == 2


def test_make_data_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["make-data", "--out", str(out), "--count", "3",
                    "--height", "32", "--width", "32", "--seed", "5"]) == 0
    for sub in ("clean/img_0000.ppm", "degraded/gaussian_noise-s25/img_0000.ppm"):
        assert (a / sub).read_bytes() == (b / sub).read_bytes()


def test_make_data_respects_task_flags(tmp_path):
    assert run(["make-data", "--out", str(tmp_path), "--count", "2",
                "--height", "24", "--width", "24", "--task", "dehaze",
                "--transmission", "0.5"]) == 0
    assert (tmp_path / "degraded" / "haze-t0.5-a0.9").is_dir()


def test_make_data_composite_applies_flags_to_its_parts(tmp_path, capsys):
    tags = []
    for out, extra in ((tmp_path / "default", []), (tmp_path / "s5", ["--sigma", "5"])):
        assert run(["make-data", "--out", str(out), "--count", "1", "--height", "24",
                    "--width", "24", "--task", "composite", "--seed", "3"] + extra) == 0
        tags.append(capsys.readouterr().out.strip().rsplit("(", 1)[1].rstrip(")"))
    assert tags == ["composite-haze-t0.75-a0.9+gaussian_noise-s15",
                    "composite-haze-t0.75-a0.9+gaussian_noise-s5"]
    default, s5 = (tmp_path / d / "degraded" / t / "img_0000.ppm"
                   for d, t in zip(("default", "s5"), tags))
    assert default.read_bytes() != s5.read_bytes()


def test_make_data_bad_geometry_exits_two(tmp_path):
    assert run(["make-data", "--out", str(tmp_path), "--count", "0"]) == 2


def test_metrics_identical_dirs_hit_the_caps(tmp_path, capsys):
    assert run(["make-data", "--out", str(tmp_path), "--count", "2",
                "--height", "24", "--width", "24"]) == 0
    clean = str(tmp_path / "clean")
    assert run(["metrics", "--reference", clean, "--candidate", clean]) == 0
    out = capsys.readouterr().out
    assert "100.000" in out and "1.00000" in out


def test_metrics_orphan_exits_three(tmp_path, capsys, rng):
    ref, cand = tmp_path / "ref", tmp_path / "cand"
    img = rng.uniform(0.2, 0.8, size=(16, 16, 3))
    write_ppm(ref / "x.ppm", img)
    write_ppm(cand / "x.ppm", img)
    write_ppm(cand / "extra.ppm", img)
    assert run(["metrics", "--reference", str(ref), "--candidate", str(cand)]) == 3
    assert "unpaired" in capsys.readouterr().err


def test_metrics_missing_dir_exits_three(tmp_path):
    assert run(["metrics", "--reference", str(tmp_path / "nope"),
                "--candidate", str(tmp_path / "nope")]) == 3


def test_metrics_on_images_under_the_ssim_window_exits_three(tmp_path, capsys, rng):
    ref, cand = tmp_path / "ref", tmp_path / "cand"
    img = rng.uniform(0.2, 0.8, size=(8, 8, 3))
    write_ppm(ref / "small.ppm", img)
    write_ppm(cand / "small.ppm", img)
    assert run(["metrics", "--reference", str(ref), "--candidate", str(cand)]) == 3
    err = capsys.readouterr().err
    assert "small.ppm" in err and "11x11" in err


def test_train_then_restore_round_trip(tmp_path, capsys, rng):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--steps", "2", "--batch", "2",
                "--count", "4", "--holdout", "2", "--patch", "16", "--seed", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 2 and "psnr_restored" in summary

    img = rng.uniform(0.2, 0.8, size=(16, 16, 3))
    write_ppm(tmp_path / "in.ppm", img)
    assert run(["restore", "--checkpoint", str(out / "ckpt_final"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "out.ppm"),
                "--reference", str(tmp_path / "in.ppm")]) == 0
    assert (tmp_path / "out.ppm").exists()
    assert "psnr" in capsys.readouterr().out


def test_restore_identity_checkpoint_reproduces_input(tmp_path, rng):
    model = RestorationModel(tiny_config())
    model.conv_out.weight.data[:] = 0.0
    model.conv_out.bias.data[:] = 0.0
    save_model(model, tmp_path / "ident")
    # 37x53 forces reflect padding up to 40x56 and a crop back
    img = np.round(rng.uniform(0.1, 0.9, size=(37, 53, 3)) * 255) / 255
    write_ppm(tmp_path / "in.ppm", img)
    assert run(["restore", "--checkpoint", str(tmp_path / "ident"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "out.ppm")]) == 0
    back = read_ppm(tmp_path / "out.ppm")
    assert back.shape == (37, 53, 3)
    np.testing.assert_allclose(back, img.astype(np.float32), atol=1.01 / 255)


def test_restore_missing_input_exits_three(tmp_path):
    model = RestorationModel(tiny_config())
    save_model(model, tmp_path / "m")
    assert run(["restore", "--checkpoint", str(tmp_path / "m"),
                "--input", str(tmp_path / "nope.ppm"),
                "--output", str(tmp_path / "o.ppm")]) == 3


# no reference file; a reference of another size; an input and reference
# both under ssim's 11x11 window
@pytest.mark.parametrize("in_side,ref_side,message", [(16, None, "not found"), (8, 16, "shapes differ"),
                                                      (8, 8, "11x11")])
def test_restore_with_an_unusable_reference_exits_three_before_writing(tmp_path, capsys, rng,
                                                                       in_side, ref_side, message):
    save_model(RestorationModel(tiny_config()), tmp_path / "m")
    write_ppm(tmp_path / "in.ppm", rng.uniform(0.2, 0.8, size=(in_side, in_side, 3)))
    if ref_side is not None:
        write_ppm(tmp_path / "ref.ppm", rng.uniform(0.2, 0.8, size=(ref_side, ref_side, 3)))
    assert run(["restore", "--checkpoint", str(tmp_path / "m"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "o.ppm"),
                "--reference", str(tmp_path / "ref.ppm")]) == 3
    err = capsys.readouterr().err
    assert message in err and "ref.ppm" in err
    assert not (tmp_path / "o.ppm").exists()


def test_restore_checkpoint_without_tensor_list_exits_three(tmp_path, rng):
    save_model(RestorationModel(tiny_config()), tmp_path / "m")
    manifest = json.loads((tmp_path / "m.json").read_text())
    del manifest["tensors"]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    write_ppm(tmp_path / "in.ppm", rng.uniform(0.2, 0.8, size=(16, 16, 3)))
    assert run(["restore", "--checkpoint", str(tmp_path / "m"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "o.ppm")]) == 3


@pytest.mark.parametrize("field", ["payload_bytes", "payload_crc32"])
def test_restore_checkpoint_without_a_payload_check_exits_three(tmp_path, capsys, rng, field):
    save_model(RestorationModel(tiny_config()), tmp_path / "m")
    manifest = json.loads((tmp_path / "m.json").read_text())
    del manifest[field]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    write_ppm(tmp_path / "in.ppm", rng.uniform(0.2, 0.8, size=(16, 16, 3)))
    assert run(["restore", "--checkpoint", str(tmp_path / "m"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "o.ppm")]) == 3
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o.ppm").exists()


# ffn_expansion 0.01 gives the feed-forward 0 hidden channels, so its
# depthwise conv 0 groups; a negative seed is refused by numpy's generators;
# json writes nan as NaN and reads it back
# use_caga and global_dim are keys of older manifests, taken only at the
# value that builds the same network; the rest are values of the wrong type
@pytest.mark.parametrize("field,value", [("gn_groups", 0), ("se_reduction", 0), ("heads", [1, 0, 2, 2]),
                                         ("ffn_expansion", 0.01), ("seed", -1), ("ffn_expansion", float("nan")),
                                         ("use_caga", False), ("global_dim", 128),
                                         ("base_channels", 8.0), ("enc_blocks", [1, 1, 1, 1.5]),
                                         ("enc_blocks", "1111"), ("heads", 3), ("refinement_blocks", True),
                                         ("use_agf", 1), ("seed", 1.0)])
def test_restore_checkpoint_with_a_zero_divisor_exits_two(tmp_path, capsys, rng, field, value):
    save_model(RestorationModel(tiny_config()), tmp_path / "m")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["config"][field] = value
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    write_ppm(tmp_path / "in.ppm", rng.uniform(0.2, 0.8, size=(16, 16, 3)))
    assert run(["restore", "--checkpoint", str(tmp_path / "m"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "o.ppm")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train", "--out", "o", "--steps", "1"],
                                  ["make-data", "--out", "o", "--count", "1"],
                                  ["grad-check", "--only", "primitives"]],
                         ids=lambda argv: argv[0])
def test_negative_seed_exits_two(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a == "o" else a for a in argv]
    assert run(argv + ["--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, field", [
    (["make-data", "--task", "derain", "--angle-deg", "nan"], "angle_deg"),
    (["make-data", "--task", "derain", "--streak-length", "inf"], "streak_length"),
    (["make-data", "--sigma", "inf"], "sigma"),
    (["make-data", "--task", "lowlight", "--gamma", "nan"], "gamma"),
    (["train", "--lr0", "nan"], "lr0"),
    (["train", "--lr0", "inf"], "lr0"),
    (["train", "--lambda-fourier", "nan"], "lambda_fourier"),
    (["train", "--sigma", "nan"], "sigma"),
], ids=lambda v: f"{v[0]}{v[-2]}={v[-1]}" if isinstance(v, list) else None)
def test_a_non_finite_float_flag_exits_two(tmp_path, capsys, argv, field):
    out = tmp_path / "o"
    sizes = ["--steps", "1", "--patch", "16", "--holdout", "0"] if argv[0] == "train" else []
    assert run(argv[:1] + ["--out", str(out), "--count", "1"] + sizes + argv[1:]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_restore_nan_checkpoint_exits_four(tmp_path, rng):
    model = RestorationModel(tiny_config())
    model.conv_out.bias.data[:] = np.nan
    save_model(model, tmp_path / "bad")
    write_ppm(tmp_path / "in.ppm", rng.uniform(0.2, 0.8, size=(16, 16, 3)))
    assert run(["restore", "--checkpoint", str(tmp_path / "bad"),
                "--input", str(tmp_path / "in.ppm"),
                "--output", str(tmp_path / "o.ppm")]) == 4


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"steps": 3, "count": 4, "holdout": 0,
                               "patch": 16, "batch": 2}))
    out = tmp_path / "run"
    # explicit --steps beats the config file's 3
    assert run(["train", "--out", str(out), "--config", str(cfg), "--steps", "2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 2
    assert summary["train_pairs"] == 4  # from the config file


def test_config_file_unknown_field_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"stepz": 3}))
    assert run(["train", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    assert "stepz" in capsys.readouterr().err


def test_config_file_wrong_type_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"steps": "many"}))
    assert run(["train", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "steps" in err and "int" in err


@pytest.mark.parametrize("field,value", [
    ("precision", "f16"),      # outside the flag's choices
    ("lr0", True),             # JSON booleans are not numbers
    ("steps", True),
    ("sigma", False),          # a float field with no built-in default
    ("steps", None),           # null only stands in for a flag whose default is None
    ("lr0", None),
    ("precision", None),
])
def test_config_file_value_the_flag_would_reject_exits_two(tmp_path, capsys, field, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"steps": 1, "count": 2, "holdout": 0, "patch": 16,
                               "batch": 1, field: value}))
    assert run(["train", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_null_trains_with_the_flags_default(tmp_path):
    # --sigma has no default of its own: null leaves the task's sigma, as an absent field does
    base = {"steps": 1, "count": 2, "holdout": 0, "patch": 16, "batch": 1}
    for name, extra in (("absent", {}), ("null", {"sigma": None})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**base, **extra}))
        assert run(["train", "--out", str(tmp_path / name), "--config", str(cfg)]) == 0
    stems = [tmp_path / name / "ckpt_final" for name in ("absent", "null")]
    assert load_checkpoint(stems[1])[0]["train_state"]["data_recipe"]["sigma"] is None
    assert stems[0].with_suffix(".bin").read_bytes() == stems[1].with_suffix(".bin").read_bytes()


def test_config_file_invalid_json_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{")
    assert run(["train", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    assert run(["train", "--out", str(tmp_path / "x"),
                "--config", str(tmp_path / "missing.json")]) == 2


def trained_with_checkpoints(out):
    """Train two tiny steps with a checkpoint after each; returns the argv used."""
    argv = ["train", "--out", str(out), "--steps", "2", "--batch", "2", "--count", "4",
            "--holdout", "0", "--patch", "16", "--checkpoint-every", "1"]
    assert run(argv) == 0
    return argv


@pytest.mark.parametrize("flag, value, named", [("--steps", "3", "steps="), ("--lr0", "1.0", "lr0="),
                                                ("--precision", "f64", "dtype='float32'"),
                                                ("--size", "small", "parameter")])
def test_resume_with_a_different_setup_exits_two(tmp_path, capsys, flag, value, named):
    out = tmp_path / "run"
    argv = trained_with_checkpoints(out)
    assert run(argv + ["--resume", str(out / "ckpt_step000001"), flag, value]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--task", "derain", "task="), ("--sigma", "5", "sigma="), ("--count", "6", "count="),
    ("--patch", "24", "patch="), ("--data", "{clean}", "data="),
], ids=["task", "degradation", "count", "patch", "data"])
def test_resume_on_different_data_exits_two(tmp_path, capsys, flag, value, named):
    clean = tmp_path / "clean"
    clean.mkdir()
    write_ppm(clean / "a.ppm", np.full((32, 32, 3), 128, dtype=np.uint8))
    out = tmp_path / "run"
    argv = trained_with_checkpoints(out)
    resume = ["--resume", str(out / "ckpt_step000001"), flag, value.format(clean=clean)]
    assert run(argv + resume) == 2
    assert named in capsys.readouterr().err


def test_resume_on_changed_data_contents_exits_two(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    write_ppm(clean / "a.ppm", np.full((32, 32, 3), 0.5))
    out = tmp_path / "run"
    argv = trained_with_checkpoints(out) + ["--data", str(clean)]
    assert run(argv) == 0
    resume = ["--resume", str(out / "ckpt_step000001")]
    assert run(argv + resume) == 0  # same path, same bytes
    write_ppm(clean / "a.ppm", np.full((32, 32, 3), 0.25))
    capsys.readouterr()
    assert run(argv + resume) == 2
    assert "data_crc32=" in capsys.readouterr().err


class NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"a resume drew from the parameter initializer ({name})")


def test_resume_builds_the_model_from_the_checkpoint(tmp_path, monkeypatch):
    out = tmp_path / "run"
    argv = trained_with_checkpoints(out)
    real_init = ParamStore.__init__

    def no_draws(store, *args, **kwargs):
        real_init(store, *args, **kwargs)
        store.rng = NoDraws()

    monkeypatch.setattr(ParamStore, "__init__", no_draws)
    resumed = tmp_path / "resumed"
    assert run(argv + ["--resume", str(out / "ckpt_step000001"), "--out", str(resumed)]) == 0
    # the straight run's second step, which a resume from step 1 reproduces bit for bit
    _, want = load_checkpoint(out / "ckpt_final")
    _, got = load_checkpoint(resumed / "ckpt_final")
    assert got.keys() == want.keys() and any(n.startswith("optim.") for n in got)
    for name, arr in want.items():
        assert np.array_equal(got[name], arr), name


def test_resume_without_an_adam_moment_exits_three(tmp_path, capsys):
    out = tmp_path / "run"
    argv = trained_with_checkpoints(out)
    manifest, arrays = load_checkpoint(out / "ckpt_step000001")
    del arrays["optim.m.conv_in.weight"]
    stem = save_checkpoint(out / "ckpt_step000001", arrays, manifest["config"],
                           manifest["train_state"])
    assert run(argv + ["--resume", str(stem)]) == 3
    assert "m.conv_in.weight" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("rng_state", None), ("rng_state", {"x": 1}), ("step", "1"),
                                          ("step", 99), ("step", -1)],
                         ids=["no-rng_state", "bad-rng_state", "string-step", "step-past-steps",
                              "negative-step"])
def test_resume_from_a_bad_training_state_exits_three(tmp_path, capsys, field, value):
    out = tmp_path / "run"
    argv = trained_with_checkpoints(out)
    manifest_path = out / "ckpt_step000001.json"
    manifest = json.loads(manifest_path.read_text())
    if value is None:
        del manifest["train_state"][field]
    else:
        manifest["train_state"][field] = value
    manifest_path.write_text(json.dumps(manifest))
    before = {path: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert run(argv + ["--resume", str(out / "ckpt_step000001")]) == 3
    assert field in capsys.readouterr().err
    assert {path: path.read_bytes() for path in out.iterdir()} == before


def test_train_bad_patch_exits_two(tmp_path):
    assert run(["train", "--out", str(tmp_path), "--patch", "30", "--steps", "1"]) == 2


def test_train_negative_holdout_exits_two(tmp_path, capsys):
    # a negative holdout used to slice pairs off the training set
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--steps", "1", "--batch", "1", "--count", "6",
                "--holdout", "-2", "--patch", "16"]) == 2
    assert "holdout" in capsys.readouterr().err
    assert not out.exists()


def test_train_records_the_train_config_defaults(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--steps", "1", "--batch", "1", "--count", "1",
                "--holdout", "0", "--patch", "16"]) == 0
    recorded = load_checkpoint(out / "ckpt_final")[0]["train_state"]["train_config"]
    defaults = asdict(TrainConfig())
    for field in ("lr0", "lr_min", "lambda_fourier", "checkpoint_every"):
        assert recorded[field] == defaults[field]


def test_grad_check_primitives_pass(capsys):
    assert run(["grad-check", "--only", "primitives", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "all gradient checks passed" in out
    assert "primitive/" in out


@pytest.mark.parametrize("samples", [0, -1, RestorationModel(tiny_config()).param_count() + 1])
def test_grad_check_samples_out_of_range_exits_two(capsys, samples):
    assert run(["grad-check", "--only", "model", "--samples", str(samples)]) == 2
    assert "samples" in capsys.readouterr().err


def test_grad_check_detects_wrong_gradient(capsys, monkeypatch):
    """Corrupt one backward rule and the checker must exit 5."""
    true_sigmoid = ops.sigmoid

    def bad_sigmoid(x):
        y = true_sigmoid(x)
        if y._backward is not None:
            orig = y._backward
            y._backward = lambda g: orig(2.0 * g)  # doubles the flowed gradient
        return y

    monkeypatch.setattr(ops, "sigmoid", bad_sigmoid)
    assert run(["grad-check", "--only", "primitives", "--seed", "0"]) == 5
    assert "FAIL" in capsys.readouterr().out


def test_ablate_dry_run_lists_all_variants(capsys):
    assert run(["ablate", "--size", "tiny", "--dry-run"]) == 0
    out = capsys.readouterr().out
    for label in ("full", "plain baseline", "temperature only", "output-gate only"):
        assert label in out


def test_ablate_writes_json_table(tmp_path):
    table = tmp_path / "ablate.json"
    assert run(["ablate", "--size", "tiny", "--image", "16", "--out", str(table)]) == 0
    rows = json.loads(table.read_text())
    assert len(rows) == 11
    assert len({r["variant"] for r in rows}) == 11
    assert all(r["status"] == "ok" for r in rows)


def test_ablate_bad_image_size_exits_two():
    assert run(["ablate", "--size", "tiny", "--image", "30", "--dry-run"]) == 2


@pytest.mark.parametrize("image", ["0", "-8"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_ablate_image_must_be_a_positive_multiple_of_eight(capsys, image, dry_run):
    # 0 and -8 are multiples of 8; they used to reach the forward and die with a traceback
    assert run(["ablate", "--size", "tiny", "--image", image] + dry_run) == 2
    assert "positive multiple of 8" in capsys.readouterr().err
