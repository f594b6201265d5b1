"""Command-line interface.

Subcommands: train, restore, grad-check, ablate, metrics, make-data.
Option precedence is argparse defaults < train's --config JSON file <
explicit flags.  Exit codes: 0 success, 2 configuration/usage, 3 data
problems, 4 numerical abort, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ops
from .checkpoint import load_checkpoint, load_model, split_optim
from .degrade import (TASKS, clean_sources_crc32, degrade, make_patch_set, procedural_image,
                      spec_for_task)
from .errors import ConfigError, DataError, NumericsError, ShapeError, UsageError
from .gradcheck import (MODEL_TOL, MODULE_TOL, PRIMITIVE_TOL, check_model, check_modules,
                        check_primitives)
from .metrics import check_pair, psnr, ssim
from .model import PRESETS, RestorationModel, ablation_variants, config_by_name
from .ppm import chw_to_image, image_to_chw, read_ppm, write_ppm
from .tensor import Tensor, no_grad
from .train import TrainConfig, train_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5

_DEGRADE_KEYS = ("sigma", "transmission", "airlight", "num_streaks", "streak_length",
                 "angle_deg", "intensity", "gain", "gamma")


def _add_degradation_flags(p: argparse.ArgumentParser):
    p.add_argument("--task", choices=TASKS, default="denoise",
                   help="degradation family (default %(default)s)")
    p.add_argument("--sigma", type=float, help="gaussian noise sigma, 8-bit units")
    p.add_argument("--transmission", type=float, help="haze transmission in (0,1]")
    p.add_argument("--airlight", type=float, help="haze airlight in [0,1]")
    p.add_argument("--num-streaks", type=int, dest="num_streaks", help="rain streak count")
    p.add_argument("--streak-length", type=float, dest="streak_length",
                   help="rain streak length, px")
    p.add_argument("--angle-deg", type=float, dest="angle_deg",
                   help="rain tilt from vertical, degrees")
    p.add_argument("--intensity", type=float, help="rain streak brightness")
    p.add_argument("--gain", type=float, help="lowlight gain in (0,1]")
    p.add_argument("--gamma", type=float, help="lowlight gamma > 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="restorekit",
                                     description="degradation-aware image restoration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train", help="train a model on synthetic pairs")
    pt.add_argument("--out", required=True, help="output directory (reports, checkpoints)")
    pt.add_argument("--config", help="JSON file with option defaults")
    pt.add_argument("--size", choices=PRESETS, default="tiny",
                    help="model preset (default %(default)s)")
    pt.add_argument("--steps", type=int, default=TrainConfig.steps,
                    help="optimizer steps (default %(default)s)")
    pt.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                    help="batch size (default %(default)s)")
    pt.add_argument("--lr0", type=float, default=TrainConfig.lr0,
                    help="peak learning rate (default %(default)s)")
    pt.add_argument("--lr-min", type=float, dest="lr_min", default=TrainConfig.lr_min,
                    help="final learning rate (default %(default)s)")
    pt.add_argument("--lambda-fourier", type=float, dest="lambda_fourier",
                    default=TrainConfig.lambda_fourier,
                    help="spectral loss weight (default %(default)s)")
    pt.add_argument("--count", type=int, default=64, help="training pairs (default %(default)s)")
    pt.add_argument("--holdout", type=int, default=16,
                    help="held-out eval pairs (default %(default)s)")
    pt.add_argument("--patch", type=int, default=32, help="patch size (default %(default)s)")
    pt.add_argument("--seed", type=int, default=TrainConfig.seed,
                    help="master seed (default %(default)s)")
    pt.add_argument("--precision", choices=["f32", "f64"], default="f32",
                    help="compute precision (default %(default)s)")
    pt.add_argument("--checkpoint-every", type=int, dest="checkpoint_every",
                    default=TrainConfig.checkpoint_every,
                    help="periodic checkpoint interval, 0 = final only (default %(default)s)")
    pt.add_argument("--data", help="directory of clean .ppm images (default: procedural)")
    pt.add_argument("--resume", help="checkpoint stem to resume from")
    _add_degradation_flags(pt)

    pr = sub.add_parser("restore", help="run a checkpoint on one image")
    pr.add_argument("--checkpoint", required=True, help="checkpoint stem or .json path")
    pr.add_argument("--input", required=True, help="degraded input .ppm")
    pr.add_argument("--output", required=True, help="restored output .ppm")
    pr.add_argument("--reference", help="clean reference .ppm for metrics")

    pg = sub.add_parser("grad-check", help="verify gradients against finite differences")
    pg.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    pg.add_argument("--only", choices=["all", "primitives", "modules", "model"], default="all",
                    help="restrict the check set (default %(default)s)")
    pg.add_argument("--samples", type=int, default=120,
                    help="model parameters to spot-check (default %(default)s)")

    pa = sub.add_parser("ablate", help="build and exercise the module on/off matrix")
    pa.add_argument("--size", choices=PRESETS, default="full",
                    help="base preset (default %(default)s)")
    pa.add_argument("--image", type=int, default=32, help="square input size (default %(default)s)")
    pa.add_argument("--out", help="write the table as JSON here")
    pa.add_argument("--dry-run", action="store_true", dest="dry_run",
                    help="only build and count parameters, skip forward/backward")

    pm = sub.add_parser("metrics", help="psnr/ssim between two image directories")
    pm.add_argument("--reference", required=True, help="directory of reference .ppm images")
    pm.add_argument("--candidate", required=True, help="directory of images to score")

    pd = sub.add_parser("make-data", help="write clean/degraded ppm pairs")
    pd.add_argument("--out", required=True, help="output root directory")
    pd.add_argument("--count", type=int, default=16, help="number of images (default %(default)s)")
    pd.add_argument("--height", type=int, default=64, help="image height (default %(default)s)")
    pd.add_argument("--width", type=int, default=64, help="image width (default %(default)s)")
    pd.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    _add_degradation_flags(pd)
    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; a --config file's values become the subcommand's defaults.

    Precedence is argparse defaults < config file < explicit flags.  Each
    file value must pass what its flag would: type (JSON true/false are not
    numbers, though Python takes them as 1/0) and choices.  A null is taken
    only for a flag whose default is None (--data, --resume, the
    degradation parameters).
    """
    ns = parser.parse_args(argv)
    config_path = getattr(ns, "config", None)
    if not config_path:
        return ns
    try:
        raw = json.loads(Path(config_path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {config_path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {config_path}: expected a JSON object")
    subparser = next(a for a in parser._actions if a.dest == "command").choices[ns.command]
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    for key, value in raw.items():
        if key not in actions:
            raise ConfigError(f"config file {config_path}: unknown field '{key}'")
        action = actions[key]
        want = action.type or str
        if value is None:
            if action.default is not None:
                raise ConfigError(f"config file {config_path}: field '{key}' cannot be null")
            continue
        if (not isinstance(value, (int, float) if want is float else want)
                or isinstance(value, bool)):
            raise ConfigError(f"config file {config_path}: field '{key}' expects "
                              f"{want.__name__}, got {type(value).__name__}")
        if action.choices and value not in action.choices:
            raise ConfigError(f"config file {config_path}: field '{key}' must be one of "
                              f"{', '.join(map(str, action.choices))}, got {value!r}")
    subparser.set_defaults(**raw)
    return parser.parse_args(argv)


def _degradation_spec(ns):
    spec = spec_for_task(ns.task, **{k: getattr(ns, k) for k in _DEGRADE_KEYS})
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(ns) -> int:
    spec = _degradation_spec(ns)
    cfg = TrainConfig(steps=ns.steps, batch_size=ns.batch, lr0=ns.lr0,
                      lr_min=ns.lr_min, lambda_fourier=ns.lambda_fourier,
                      seed=ns.seed, checkpoint_every=ns.checkpoint_every)
    cfg.validate()
    if ns.patch % 8:
        raise ConfigError("patch size must be a multiple of 8")
    if ns.count < 1 or ns.holdout < 0:
        raise ConfigError("need count >= 1 and holdout >= 0")

    dtype = np.float64 if ns.precision == "f64" else np.float32
    # a resume builds the model from the checkpoint it loads once, drawing nothing
    resume = load_checkpoint(ns.resume) if ns.resume else None
    params = None if resume is None else split_optim(resume[1])[0]
    model = RestorationModel(config_by_name(ns.size, seed=ns.seed), dtype=dtype, arrays=params)
    total = ns.count + ns.holdout
    pairs = make_patch_set(spec, total, patch=ns.patch, seed=ns.seed, clean_dir=ns.data)
    train_pairs = pairs[:ns.count]
    eval_pairs = pairs[ns.count:]
    # everything besides cfg.seed that decides train_pairs; a resume must match it
    recipe = {key: getattr(ns, key) for key in ("task", *_DEGRADE_KEYS, "count", "patch", "data")}
    # the same --data path with other images must not resume
    recipe["data_crc32"] = clean_sources_crc32(ns.data) if ns.data else None
    out_dir = Path(ns.out)

    def log(rec):
        if rec["step"] % 50 == 0 or rec["step"] == cfg.steps - 1:
            print(f"step {rec['step']:5d}  lr {rec['lr']:.3e}  loss {rec['loss']:.5f}")

    report = train_loop(model, train_pairs, cfg, out_dir=out_dir, resume=resume, log=log,
                        data_recipe=recipe)

    summary = {"steps": cfg.steps, "train_pairs": len(train_pairs),
               "wall_time_s": report.wall_time_s,
               "final_loss": report.losses[-1] if report.losses else None,
               "checkpoints": report.checkpoints}
    if eval_pairs:
        deg_db, res_db = [], []
        with no_grad():
            for deg, clean in eval_pairs:
                pred = np.clip(model.forward(deg[None]).data[0], 0.0, 1.0)
                deg_db.append(psnr(deg, clean))
                res_db.append(psnr(pred, clean))
        summary["psnr_degraded"] = float(np.mean(deg_db))
        summary["psnr_restored"] = float(np.mean(res_db))
        summary["psnr_gain_db"] = summary["psnr_restored"] - summary["psnr_degraded"]
        print(f"holdout ({len(eval_pairs)} pairs): degraded {summary['psnr_degraded']:.2f} dB, "
              f"restored {summary['psnr_restored']:.2f} dB "
              f"({summary['psnr_gain_db']:+.2f} dB)")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    return EXIT_OK


def _pad_to_multiple(chw: np.ndarray, m: int) -> tuple[np.ndarray, int, int]:
    _, h, w = chw.shape
    ph = (-h) % m
    pw = (-w) % m
    if ph == 0 and pw == 0:
        return chw, h, w
    mode = "reflect" if (ph < h and pw < w) else "edge"
    return np.pad(chw, ((0, 0), (0, ph), (0, pw)), mode=mode), h, w


def _scorable(name, a: np.ndarray, b: np.ndarray):
    """Refuse, as a data problem naming ``name``, a pair psnr and ssim cannot score."""
    try:
        check_pair(a, b)
    except ShapeError as e:
        raise DataError(f"{name}: {e}") from None


def cmd_restore(ns) -> int:
    model, _, _ = load_model(ns.checkpoint)
    img = read_ppm(ns.input)
    if ns.reference:  # one the metrics cannot use fails before the model runs
        ref = read_ppm(ns.reference)
        _scorable(ns.reference, img, ref)
    chw = image_to_chw(img).astype(model.dtype)
    padded, h, w = _pad_to_multiple(chw, model.DOWNSCALE)
    with no_grad():
        pred = model.forward(padded[None]).data[0]
    if not np.all(np.isfinite(pred)):
        raise NumericsError("restoration produced non-finite pixels")
    restored = np.clip(pred[:, :h, :w], 0.0, 1.0)
    write_ppm(ns.output, chw_to_image(restored))
    print(f"wrote {ns.output} ({w}x{h})")
    if ns.reference:
        before = psnr(img, ref)
        after = psnr(chw_to_image(restored), ref)
        print(f"psnr {before:.2f} -> {after:.2f} dB   "
              f"ssim {ssim(img, ref):.4f} -> {ssim(chw_to_image(restored), ref):.4f}")
    return EXIT_OK


def cmd_grad_check(ns) -> int:
    failures = []

    def report(name: str, err: float, tol: float):
        status = "ok" if err <= tol else "FAIL"
        print(f"{name:28s} {err:.3e}  (tol {tol:.0e})  {status}")
        if err > tol:
            failures.append(name)

    if ns.only in ("all", "primitives"):
        for name, err in sorted(check_primitives(ns.seed).items()):
            report(f"primitive/{name}", err, PRIMITIVE_TOL)
    if ns.only in ("all", "modules"):
        for name, err in check_modules(ns.seed).items():
            report(f"module/{name}", err, MODULE_TOL)
    if ns.only in ("all", "model"):
        report("model/end_to_end", check_model(ns.seed, samples=ns.samples), MODEL_TOL)
    if failures:
        print(f"{len(failures)} gradient check(s) failed: {', '.join(failures)}")
        return EXIT_GRADCHECK
    print("all gradient checks passed")
    return EXIT_OK


def cmd_ablate(ns) -> int:
    if ns.image < 8 or ns.image % 8:
        raise ConfigError(f"--image must be a positive multiple of 8, got {ns.image}")
    base = config_by_name(ns.size)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, size=(1, 3, ns.image, ns.image))
    rows = []
    print(f"{'variant':26s} {'params':>12s}  fwd/bwd")
    for label, cfg in ablation_variants(base):
        t0 = time.time()
        model = RestorationModel(cfg)
        row = {"variant": label, "params": model.param_count(),
               "use_agf": cfg.use_agf, "use_cgdm": cfg.use_cgdm,
               "use_adaptive_temp": cfg.use_adaptive_temp,
               "use_gated_output": cfg.use_gated_output}
        if ns.dry_run:
            row["status"] = "built"
        else:
            target = Tensor(np.zeros_like(x, dtype=model.dtype))
            loss = ops.tmean(ops.square(ops.sub(model.forward(x.astype(model.dtype)), target)))
            model.store.zero_grads()
            loss.backward()
            missing = [n for n, p in model.store.items() if p.grad is None]
            if missing:
                raise UsageError(f"variant '{label}': no gradient for {missing[:3]}")
            row["status"] = "ok"
            row["loss"] = float(loss.data)
        row["seconds"] = time.time() - t0
        rows.append(row)
        print(f"{label:26s} {row['params']:12,d}  {row['status']} ({row['seconds']:.1f}s)")
    if ns.out:
        Path(ns.out).parent.mkdir(parents=True, exist_ok=True)
        Path(ns.out).write_text(json.dumps(rows, indent=1))
    return EXIT_OK


def cmd_metrics(ns) -> int:
    ref_dir, cand_dir = Path(ns.reference), Path(ns.candidate)
    for d in (ref_dir, cand_dir):
        if not d.is_dir():
            raise DataError(f"not a directory: {d}")
    ref_names = {p.name for p in ref_dir.glob("*.ppm")}
    cand_names = {p.name for p in cand_dir.glob("*.ppm")}
    if not ref_names:
        raise DataError(f"no .ppm files in {ref_dir}")
    orphans = sorted(ref_names ^ cand_names)
    if orphans:
        raise DataError(f"unpaired images ({len(orphans)}): {', '.join(orphans[:5])}")
    p_all, s_all = [], []
    for name in sorted(ref_names):
        a = read_ppm(ref_dir / name)
        b = read_ppm(cand_dir / name)
        _scorable(name, a, b)
        p, s = psnr(b, a), ssim(b, a)
        p_all.append(p)
        s_all.append(s)
        print(f"{name:24s} psnr {p:8.3f}  ssim {s:.5f}")
    print(f"{'mean':24s} psnr {np.mean(p_all):8.3f}  ssim {np.mean(s_all):.5f}")
    return EXIT_OK


def cmd_make_data(ns) -> int:
    if ns.count < 1 or ns.height < 8 or ns.width < 8:
        raise ConfigError("need count >= 1 and height/width >= 8")
    spec = _degradation_spec(ns)
    root = Path(ns.out)
    clean_dir = root / "clean"
    deg_dir = root / "degraded" / spec.tag()
    rng = np.random.default_rng(ns.seed)
    for i in range(ns.count):
        clean = procedural_image(ns.height, ns.width, rng)
        pair_seed = int(rng.integers(0, 2 ** 62))
        degraded = degrade(clean, replace(spec, seed=pair_seed))
        write_ppm(clean_dir / f"img_{i:04d}.ppm", clean)
        write_ppm(deg_dir / f"img_{i:04d}.ppm", degraded)
    print(f"wrote {ns.count} pairs under {root} ({spec.tag()})")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "restore": cmd_restore,
    "grad-check": cmd_grad_check,
    "ablate": cmd_ablate,
    "metrics": cmd_metrics,
    "make-data": cmd_make_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = _parse(parser, argv)
        # numpy's generators take no negative seed; refuse it before any work
        if getattr(ns, "seed", 0) < 0:
            raise ConfigError(f"--seed must be non-negative, got {ns.seed}")
        return _COMMANDS[ns.command](ns)
    except (ConfigError, UsageError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
