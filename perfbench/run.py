"""restorekit benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and writes only under ``.perfbench-runs/``, which it removes again.  The
workload runs in a child process (``workload.py``) with BLAS threads
pinned; ``setup_s`` is the median over that child and SETUP_PROBES extra
children that only set up.  Times are scaled to the reference host speed
of ``hostspeed.py``; the plain wall-clock figures go to a ``wall:`` line.
With ``--trace 1`` the result carries the per-layer metrics instead of the
end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train-tiny", "train-full", "restore-full")
SETUP_PROBES = 2
# One BLAS thread: on a 2-vCPU VM shared with other tenants, two OpenBLAS
# threads made one full-preset 64 px forward take anywhere from 4.0 to
# 12.9 s, one thread 4.3 to 5.5 s.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0
RUNS_DIR = Path(".perfbench-runs")
HERE = Path(__file__).resolve().parent


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, run_dir: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    """Start workload.py, wait for it, and return its JSON line plus its set-up time."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready_at"] - spawned
    result["setup_s"] = result["setup_wall_s"] * result["scale"]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="restorekit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not Path("src/restorekit/__init__.py").is_file():
        print("error: run from the root of a restorekit checkout (src/restorekit not found)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(BLAS_THREADS)
    run_root = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = run_child(args, run_root / f"probe{i}", env, deadline, setup_only=True)
                setups.append(probe["setup_s"])
        main_run = run_child(args, run_root / "main", env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        if RUNS_DIR.is_dir() and not any(RUNS_DIR.iterdir()):
            RUNS_DIR.rmdir()

    op_ref = main_run["op_ref"]
    if not op_ref:
        print("error: no operation completed", file=sys.stderr)
        return 1
    for line in main_run["wrong"]:
        print(f"wrong output: {line}", file=sys.stderr)
    print("env: " + json.dumps(main_run["env"]))
    print("wall: " + json.dumps({"op_ms": statistics.median(main_run["op_s"]) * 1000.0,
                                 "samples_per_s": main_run["samples"] / main_run["loop_s"],
                                 "setup_s": main_run["setup_wall_s"],
                                 "probe_ms": main_run["probe_s"] * 1000.0}))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(main_run["layers"].items())}
    else:
        setups.append(main_run["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_ms": {"value": statistics.median(op_ref) * 1000.0, "unit": "ms"},
            "samples_per_s": {"value": main_run["samples"] / main_run["loop_ref"],
                              "unit": "1/s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not main_run["wrong"], "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), (".calls", "count"), (".nodes", "count"),
                         (".gflop", "GFLOP"), (".mb_moved", "MB"), (".mb", "MB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric '{name}'")


if __name__ == "__main__":
    sys.exit(main())
