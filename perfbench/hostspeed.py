"""A fixed reference kernel that gauges how fast the shared host runs right now.

The benchmark runs on a few vCPUs of a host shared with other tenants.  The
host's speed drifts over tens of seconds: in one 180 s loop the tiny-preset
step took 0.52 to 1.03 s, and the medians of 28-step windows spread by 32 %
between quartiles.  The drift is slower execution, not preemption: process
CPU time moves with wall time.

``probe()`` times a small fixed piece of work just before and after each
measured operation.  The benchmark reports each operation's wall time
multiplied by ``scale(probe)``: its time at the speed the host had when
``REF_S`` was fixed.  The kernel has two halves of about equal time.  One is
a depthwise 3x3 correlation forward and backward on strided windows, with
elementwise and reduction passes, on arrays that fit in L2 as the program's
small maps do.  The other streams through two 16 MB arrays, as the
full-preset maps and weights do.  It uses none of the program's code, and
``np.einsum`` without ``optimize`` and the ufuncs never call BLAS, so a
change in the program's BLAS threading cannot move the probe.

The program slows down somewhat less than the probe does.  In a noisy
period the slope of log(operation time) against log(probe time) was 0.92 on
train-tiny and 0.67 on restore-full, and ``ELASTICITY`` corrects by 0.8 of
the probe.  That cut the spread between quartiles of the medians of
28-step windows from 33 % to 5 % on train-tiny, and of 4-image windows from
12 % to 5 % on restore-full.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REF_S = 0.047          # median probe() on the reference 2-vCPU VM
ELASTICITY = 0.8

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((8, 16, 34, 34)).astype(np.float32)
_W = _rng.standard_normal((16, 3, 3)).astype(np.float32)
_A = _rng.standard_normal(4_000_000, dtype=np.float32)
_B = _A.copy()         # touched now, so peak RSS holds both arrays from the start
RESIDENT_MB = (_X.nbytes + _W.nbytes + _A.nbytes + _B.nbytes) / 2**20


def _conv() -> float:
    win = sliding_window_view(_X, (3, 3), axis=(2, 3))
    y = np.einsum("ncxyuv,cuv->ncxy", win, _W)
    g = np.tanh(y) * 0.5 + y.mean(axis=(2, 3), keepdims=True)
    gw = np.einsum("ncxyuv,ncxy->cuv", win, g)
    gx = np.zeros_like(_X)
    for u in range(3):
        for v in range(3):
            gx[:, :, u:u + 32, v:v + 32] += g * _W[:, u, v][None, :, None, None]
    return float(gw.sum()) + float(gx.mean())


def _stream() -> float:
    np.multiply(_A, 1.0001, out=_B)
    np.add(_A, _B, out=_B)
    return float(_B[::4096].sum())


def probe() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(2):
        _conv()
    for _ in range(4):
        _stream()
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that takes a wall time measured at ``probe_s`` to reference speed."""
    return (REF_S / probe_s) ** ELASTICITY
