"""One benchmark workload, run in a process of its own.

    PYTHONPATH=src python3 perfbench/workload.py --workload train-tiny --seed 1 \
        --seconds 20 --trace 0 --run-dir .perfbench-runs/x [--setup-only]

``run.py`` starts this with BLAS threads pinned.  The process sets the
workload up, runs whole rounds of timed operations until ``--seconds`` of
them have run, checks the outputs untimed, and prints one JSON line.
Between operations it runs the host-speed probe of ``hostspeed.py``.
With ``--setup-only`` it stops once set-up is done.  With ``--trace 1`` it
measures twice: once plain and once under the tracer in ``spans.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from restorekit import checkpoint, degrade, metrics, ppm
from restorekit.model import RestorationModel, config_by_name, full_config
from restorekit.tensor import no_grad
from restorekit.train import TrainConfig, train_loop

import checks
import hostspeed
from spans import Tracer

SIGMA = 25.0                       # the denoise recipe of acceptance criterion 7
TRAIN = {
    # 8 steps a round, final checkpoint only
    "train-tiny": {"preset": "tiny", "batch": 8, "steps": 8, "checkpoint_every": 0,
                   "lr0": 1e-3, "loss_window": 4},
    # 6 steps a round with a periodic checkpoint at step 3, optimizer moments included
    "train-full": {"preset": "full", "batch": 1, "steps": 6, "checkpoint_every": 3,
                   "lr0": 2e-4, "loss_window": 2},
}
TRAIN_PAIRS, HOLDOUT, PATCH = 64, 16, 32
RESTORE_IMAGES, RESTORE_H, RESTORE_W = 4, 64, 60
CHECK_W = 28                       # restore checks after training crop to 32x28


def blas_threads():
    """OpenBLAS's own thread count, read through its C API when it can be found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def write_pair(directory: Path, tag: str, degraded_chw, clean_chw, width: int):
    """Write a degraded input and its clean reference as PPMs, cropped to ``width``."""
    paths = directory / f"{tag}_in.ppm", directory / f"{tag}_ref.ppm"
    for path, chw in zip(paths, (degraded_chw, clean_chw)):
        ppm.write_ppm(path, ppm.chw_to_image(chw)[:, :width])
    return paths


def pad_to_multiple(chw: np.ndarray, m: int):
    """The restore command's padding: reflect up to a multiple of m, edge if too small."""
    _, h, w = chw.shape
    ph, pw = (-h) % m, (-w) % m
    if ph == 0 and pw == 0:
        return chw, h, w
    mode = "reflect" if (ph < h and pw < w) else "edge"
    return np.pad(chw, ((0, 0), (0, ph), (0, pw)), mode=mode), h, w


def restore_image(model, in_path, out_path, ref_path) -> dict:
    """The restore path: read, pad, no-grad forward, crop, write, score."""
    img = ppm.read_ppm(in_path)
    chw = ppm.image_to_chw(img).astype(model.dtype)
    padded, h, w = pad_to_multiple(chw, model.DOWNSCALE)
    with no_grad():
        pred = model.forward(padded[None]).data[0]
    if not np.all(np.isfinite(pred)):
        raise FloatingPointError("restoration produced non-finite pixels")
    restored = ppm.chw_to_image(np.clip(pred[:, :h, :w], 0.0, 1.0))
    ppm.write_ppm(out_path, restored)
    ref = ppm.read_ppm(ref_path)
    return {"shape": restored.shape, "in_shape": img.shape,
            "psnr": (metrics.psnr(img, ref), metrics.psnr(restored, ref)),
            "ssim": (metrics.ssim(img, ref), metrics.ssim(restored, ref))}


class Phase:
    """Timings of one measured phase: per-operation seconds and whole-loop totals.

    ``op_s`` and ``loop_s`` are wall seconds; ``op_ref`` and ``loop_ref`` are
    the same times at reference host speed, scaled by the probes taken around
    them (see hostspeed.py).
    """

    def __init__(self):
        self.op_s: list[float] = []
        self.op_ref: list[float] = []
        self.loop_s = 0.0
        self.loop_ref = 0.0
        self.samples = 0
        self.ops = 0


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def check(self, name: str, result, quiet: bool = False):
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(f"{name}: {detail}")
        if not (ok and quiet):
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)

    def crashed(self, what: str, ops: int):
        self.attempted += ops
        self.failed += ops
        print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)


class TrainWorkload:
    """train_loop rounds on 32 px sigma-25 denoise patches."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.spec = TRAIN[name]
        self.seed = seed
        self.run_dir = run_dir
        self.model = RestorationModel(config_by_name(self.spec["preset"], seed=seed))
        pairs = degrade.make_patch_set(degrade.DegradationSpec(kind="gaussian_noise", sigma=SIGMA),
                                       TRAIN_PAIRS + HOLDOUT, patch=PATCH, seed=seed)
        self.pairs, self.holdout = pairs[:TRAIN_PAIRS], pairs[TRAIN_PAIRS:]
        self.rounds = 0
        self.losses: list[list[float]] = []
        self.last_report = None

    def round(self, phase: Phase, count: Counter):
        s = self.spec
        cfg = TrainConfig(steps=s["steps"], batch_size=s["batch"], lr0=s["lr0"],
                          seed=self.seed * 1000 + self.rounds, checkpoint_every=s["checkpoint_every"])
        self.rounds += 1
        stamps = []   # (log call entered, probe seconds, log call left), one per step

        def log(_rec):
            entered = time.perf_counter()
            stamps.append((entered, hostspeed.probe(), time.perf_counter()))

        t0 = time.perf_counter()
        try:
            report = train_loop(self.model, self.pairs, cfg, out_dir=self.run_dir / "train", log=log)
        except Exception:
            count.crashed("train_loop", s["steps"])
            return
        t_end = time.perf_counter()
        # Interval i runs from the end of log call i-1 (or the loop's start) to
        # the start of log call i (or the loop's end), and is scaled by the
        # probes on either side.  Interval 0 holds loop start-up, the last one
        # the final checkpoint, and interval i a periodic checkpoint taken
        # after step i-1; the others are one optimizer step each.
        starts = [t0] + [left for _, _, left in stamps]
        ends = [entered for entered, _, _ in stamps] + [t_end]
        probes = [p for _, p, _ in stamps]
        every = s["checkpoint_every"]
        for i, (start, end) in enumerate(zip(starts, ends)):
            around = probes[max(i - 1, 0):i + 1]
            wall = end - start
            ref = wall * hostspeed.scale(sum(around) / len(around))
            phase.loop_s += wall
            phase.loop_ref += ref
            if 0 < i < len(stamps) and not (every and i % every == 0):
                phase.op_s.append(wall)
                phase.op_ref.append(ref)
        phase.samples += s["steps"] * s["batch"]
        phase.ops += s["steps"]
        self.last_report = report

    def check_round(self, count: Counter):
        report, self.last_report = self.last_report, None
        if report is None:
            return
        self.losses.append(report.losses)
        for i, loss in enumerate(report.losses):
            count.check(f"loss_finite.step{i}", (bool(np.isfinite(loss)), f"loss {loss}"), quiet=True)
        count.check("checkpoint_reload", checks.reload_check(report.checkpoints[-1], self.model.store))

    def final_checks(self, count: Counter):
        if not self.losses:
            count.check("training", (False, "no round completed"))
            return
        w = self.spec["loss_window"]
        first, last = self.losses[0][:w], self.losses[-1][-w:]
        count.check("loss_decreases", (float(np.mean(last)) < float(np.mean(first)),
                                       f"first {np.mean(first):.4f}, last {np.mean(last):.4f}"))
        count.check("finite_differences", checks.finite_difference_check(self.spec["preset"], self.seed))
        count.check("adam_formula", checks.adam_check(self.model.store, self.seed))
        stem = self.run_dir / "train" / "ckpt_final"
        in_path, ref_path = write_pair(self.run_dir, "holdout", *self.holdout[0], CHECK_W)
        result = restore_image(self.model, in_path, self.run_dir / "holdout_out.ppm", ref_path)
        count.check("restore_size", checks.size_check(result, self.run_dir / "holdout_out.ppm"))
        calls = checks.FirstConvCalls()
        with calls.capture():
            count.check("global_residual", checks.residual_check(stem, self.run_dir, in_path))
        for name, res in checks.conv_checks(calls, self.seed).items():
            count.check(name, res)


class RestoreWorkload:
    """The restore path on full-preset 64x60 images from a checkpoint it wrote itself."""

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        # the seeded model is not kept: a second full model in memory made
        # peak RSS jump between 505 and 542 MB from run to run
        self.stem = checkpoint.save_model(RestorationModel(full_config(seed=seed)), run_dir / "seeded")
        pairs = degrade.make_patch_set(degrade.DegradationSpec(kind="gaussian_noise", sigma=SIGMA),
                                       RESTORE_IMAGES, patch=RESTORE_H, seed=seed)
        self.images = [write_pair(run_dir, f"img{i}", deg, clean, RESTORE_W)
                       for i, (deg, clean) in enumerate(pairs)]
        self.model, _, _ = checkpoint.load_model(self.stem)
        self.next_image = 0
        self.last = None
        self.probe_s = None

    def round(self, phase: Phase, count: Counter):
        in_path, ref_path = self.images[self.next_image % RESTORE_IMAGES]
        self.next_image += 1
        out_path = self.run_dir / "restored.ppm"
        before = self.probe_s if self.probe_s is not None else hostspeed.probe()
        t0 = time.perf_counter()
        try:
            result = restore_image(self.model, in_path, out_path, ref_path)
        except Exception:
            count.crashed("restore", 1)
            return
        dt = time.perf_counter() - t0
        self.probe_s = hostspeed.probe()
        ref = dt * hostspeed.scale(0.5 * (before + self.probe_s))
        phase.op_s.append(dt)
        phase.op_ref.append(ref)
        phase.loop_s += dt
        phase.loop_ref += ref
        phase.samples += 1
        phase.ops += 1
        self.last = (result, out_path)

    def check_round(self, count: Counter):
        if self.last is not None:
            count.check("restore_size", checks.size_check(*self.last), quiet=True)
            self.last = None

    def final_checks(self, count: Counter):
        # the same seed builds bit-identical parameters, so a rebuild stands in for the original
        seeded = RestorationModel(full_config(seed=self.seed))
        count.check("checkpoint_reload", checks.reload_check(self.stem, seeded.store))
        calls = checks.FirstConvCalls()
        with calls.capture():
            count.check("global_residual",
                        checks.residual_check(self.stem, self.run_dir, self.images[0][0]))
        for name, res in checks.conv_checks(calls, self.seed).items():
            count.check(name, res)


def measure(work, seconds: float, count: Counter) -> Phase:
    """Whole rounds until ``seconds`` of timed work have run (checks excluded)."""
    phase = Phase()
    while phase.loop_s < seconds:
        before = phase.loop_s
        work.round(phase, count)
        work.check_round(count)
        if phase.loop_s == before:
            break  # the round failed; do not spin on a broken program
    return phase


def measure_traced(work, seconds: float, count: Counter, tracer: Tracer) -> tuple[Phase, Phase]:
    """Plain and traced rounds in A-B-B-A order until each has ``seconds`` of work."""
    plain, traced = Phase(), Phase()
    order = [(plain, False), (traced, True)]
    while plain.loop_s < seconds or traced.loop_s < seconds:
        progress = plain.loop_s + traced.loop_s
        for phase, on in order:
            if on:
                tracer.install()
                tracer.per_op = True
            work.round(phase, count)
            tracer.per_op = False
            work.check_round(count)
            if on:
                tracer.uninstall()
        order.reverse()
        if plain.loop_s + traced.loop_s == progress:
            break
    return plain, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(TRAIN) + ["restore-full"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    if args.workload == "restore-full":
        work = RestoreWorkload(args.seed, run_dir)
    else:
        work = TrainWorkload(args.workload, args.seed, run_dir)
    ready_at = time.monotonic()
    hostspeed.probe()  # warm-up: first-touch page faults
    setup_probe_s = statistics.median(hostspeed.probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "probe_s": setup_probe_s,
                          "scale": hostspeed.scale(setup_probe_s)}))
        return 0

    count = Counter()
    result = {"ready_at": ready_at, "probe_s": setup_probe_s,
              "scale": hostspeed.scale(setup_probe_s), "env": environment()}
    if tracer is None:
        phase = measure(work, args.seconds, count)
    else:
        tracer.uninstall()
        plain, phase = measure_traced(work, args.seconds, count, tracer)
        tracer.install()  # the checks' checkpoint, PPM and metric calls are timed per call
    # the probe's own arrays are resident from import on; they are not the program's
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                             - hostspeed.RESIDENT_MB)
    work.final_checks(count)
    if tracer is not None:
        layers = tracer.metrics(max(phase.ops, 1), training=args.workload != "restore-full")
        if plain.op_ref and phase.op_ref:
            ratio = statistics.median(phase.op_ref) / statistics.median(plain.op_ref)
            layers["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
        result["layers"] = layers
    result.update(op_s=phase.op_s, op_ref=phase.op_ref, loop_s=phase.loop_s,
                  loop_ref=phase.loop_ref, samples=phase.samples,
                  attempted=count.attempted, failed=count.failed, wrong=count.wrong)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
