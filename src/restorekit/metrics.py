"""Image quality metrics on [0, 1] float images.

psnr caps at 100 dB for (near-)identical inputs.  ssim follows the
standard recipe: 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03,
dynamic range 1, valid-window means, averaged over channels.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

PSNR_CAP = 100.0


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr shapes differ: {a.shape} vs {b.shape}")
    mse = np.mean((a - b) ** 2)
    if mse <= 0:
        return PSNR_CAP
    return float(min(10.0 * np.log10(1.0 / mse), PSNR_CAP))


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g1 = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g1, g1)
    return win / win.sum()


_WINDOW = _gaussian_window()


def _filter_valid(x: np.ndarray, win: np.ndarray) -> np.ndarray:
    view = sliding_window_view(x, win.shape)
    return np.tensordot(view, win, axes=([2, 3], [0, 1]))


def check_pair(a: np.ndarray, b: np.ndarray):
    """Raise ShapeError unless :func:`ssim`, and so :func:`psnr`, can score ``a`` against ``b``."""
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ShapeError(f"ssim expects (h, w) or (h, w, c), got {a.shape}")
    side = _WINDOW.shape[0]
    if a.shape[0] < side or a.shape[1] < side:
        raise ShapeError(f"ssim needs images at least {side}x{side}, got {a.shape[1]}x{a.shape[0]}")


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM over valid windows, averaged across the channel axis."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    check_pair(a, b)
    if a.ndim == 2:
        a, b = a[..., None], b[..., None]
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    scores = []
    for ch in range(a.shape[2]):
        x, y = a[:, :, ch], b[:, :, ch]
        mx = _filter_valid(x, _WINDOW)
        my = _filter_valid(y, _WINDOW)
        mxx = _filter_valid(x * x, _WINDOW)
        myy = _filter_valid(y * y, _WINDOW)
        mxy = _filter_valid(x * y, _WINDOW)
        vx = mxx - mx * mx
        vy = myy - my * my
        cov = mxy - mx * my
        num = (2 * mx * my + c1) * (2 * cov + c2)
        den = (mx * mx + my * my + c1) * (vx + vy + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))
