"""Synthetic degradations and procedural clean images.

Every degradation is a pure function of (clean image, DegradationSpec):
the record carries its own RNG seed, so a given (record, image) pair
always produces the same degraded output.  Images are float (h, w, 3)
in [0, 1].

The procedural generator keeps pixels away from the [0, 1] rails so that
additive noise is rarely clipped; sigma=25/255 noise on these images
measures within a couple tenths of a dB of the unclipped 20.17 dB PSNR.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, require_finite

KINDS = ("gaussian_noise", "haze", "rain", "lowlight", "composite")


@dataclass(frozen=True)
class DegradationSpec:
    kind: str = "gaussian_noise"
    seed: int = 0
    # gaussian_noise: sigma in 8-bit units (applied as sigma/255)
    sigma: float = 25.0
    # haze: y = x*t + airlight*(1 - t)
    transmission: float = 0.6
    airlight: float = 0.9
    # rain: additive anti-aliased streaks
    num_streaks: int = 60
    streak_length: float = 12.0
    angle_deg: float = 15.0           # tilt from vertical
    intensity: float = 0.35
    # lowlight: y = gain * x^gamma
    gain: float = 0.6
    gamma: float = 2.2
    # composite: applied in order, each part reseeded from this spec's seed
    parts: tuple = field(default_factory=tuple)

    def validate(self):
        require_finite(self)
        if self.kind not in KINDS:
            raise ConfigError(f"unknown degradation kind '{self.kind}'")
        if self.kind == "gaussian_noise" and self.sigma < 0:
            raise ConfigError("sigma must be >= 0")
        if self.kind == "haze" and not (0 < self.transmission <= 1 and 0 <= self.airlight <= 1):
            raise ConfigError("haze needs transmission in (0,1] and airlight in [0,1]")
        if self.kind == "rain" and (self.num_streaks < 0 or self.streak_length <= 0 or self.intensity < 0):
            raise ConfigError("rain needs non-negative streak count/intensity and positive length")
        if self.kind == "lowlight" and (self.gain <= 0 or self.gain > 1 or self.gamma <= 0):
            raise ConfigError("lowlight needs gain in (0,1] and gamma > 0")
        if self.kind == "composite":
            if not self.parts:
                raise ConfigError("composite needs at least one part")
            for p in self.parts:
                if p.kind == "composite":
                    raise ConfigError("composite parts cannot nest")
                p.validate()

    def tag(self) -> str:
        """Short label for directory names, e.g. 'gaussian_noise-s25'."""
        if self.kind == "gaussian_noise":
            return f"gaussian_noise-s{self.sigma:g}"
        if self.kind == "haze":
            return f"haze-t{self.transmission:g}-a{self.airlight:g}"
        if self.kind == "rain":
            return f"rain-n{self.num_streaks}-i{self.intensity:g}"
        if self.kind == "lowlight":
            return f"lowlight-g{self.gain:g}-e{self.gamma:g}"
        return "composite-" + "+".join(p.tag() for p in self.parts)


def _rain_overlay(shape, rng: np.random.Generator, spec: DegradationSpec) -> np.ndarray:
    h, w = shape
    overlay = np.zeros((h, w))
    for _ in range(spec.num_streaks):
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        ang = np.deg2rad(spec.angle_deg + rng.uniform(-6, 6))
        dx, dy = np.sin(ang), np.cos(ang)
        length = spec.streak_length * rng.uniform(0.7, 1.3)
        x0, y0 = cx - dx * length / 2, cy - dy * length / 2
        x1, y1 = cx + dx * length / 2, cy + dy * length / 2
        lo_x = max(int(np.floor(min(x0, x1))) - 1, 0)
        hi_x = min(int(np.ceil(max(x0, x1))) + 2, w)
        lo_y = max(int(np.floor(min(y0, y1))) - 1, 0)
        hi_y = min(int(np.ceil(max(y0, y1))) + 2, h)
        if lo_x >= hi_x or lo_y >= hi_y:
            continue
        ys, xs = np.mgrid[lo_y:hi_y, lo_x:hi_x]
        # distance from pixel center to the streak segment
        px, py = xs + 0.5 - x0, ys + 0.5 - y0
        seg = np.array([x1 - x0, y1 - y0])
        t = np.clip((px * seg[0] + py * seg[1]) / (seg @ seg), 0.0, 1.0)
        dist = np.hypot(px - t * seg[0], py - t * seg[1])
        alpha = np.clip(1.0 - dist, 0.0, 1.0) * spec.intensity * rng.uniform(0.6, 1.0)
        np.maximum(overlay[lo_y:hi_y, lo_x:hi_x], alpha, out=overlay[lo_y:hi_y, lo_x:hi_x])
    return overlay


def degrade(clean: np.ndarray, spec: DegradationSpec) -> np.ndarray:
    """Apply one degradation; output clipped to [0, 1], same shape/dtype rules."""
    spec.validate()
    img = np.asarray(clean, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"degrade expects (h, w, 3), got {img.shape}")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian_noise":
        out = img + rng.normal(0.0, spec.sigma / 255.0, size=img.shape)
    elif spec.kind == "haze":
        t = spec.transmission
        out = img * t + spec.airlight * (1.0 - t)
    elif spec.kind == "rain":
        out = img + _rain_overlay(img.shape[:2], rng, spec)[..., None]
    elif spec.kind == "lowlight":
        out = spec.gain * np.power(img, spec.gamma)
    else:  # composite
        out = img
        for i, part in enumerate(spec.parts):
            out = degrade(out, replace(part, seed=spec.seed * 1000003 + i))
        return out.astype(clean.dtype, copy=False)
    return np.clip(out, 0.0, 1.0).astype(clean.dtype, copy=False)


def procedural_image(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Gradient base + soft rectangles + faint sinusoid, pixels mostly in [0.1, 0.9]."""
    yy, xx = np.mgrid[0:height, 0:width]
    yy = yy / max(height - 1, 1)
    xx = xx / max(width - 1, 1)
    theta = rng.uniform(0, 2 * np.pi)
    ramp = (np.cos(theta) * xx + np.sin(theta) * yy)
    ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-9)
    c0 = rng.uniform(0.25, 0.75, size=3)
    c1 = rng.uniform(0.25, 0.75, size=3)
    img = c0 + (c1 - c0) * ramp[..., None]
    for _ in range(int(rng.integers(2, 6))):
        x0, x1 = np.sort(rng.uniform(0, width, size=2)).astype(int)
        y0, y1 = np.sort(rng.uniform(0, height, size=2)).astype(int)
        if x1 - x0 < 2 or y1 - y0 < 2:
            continue
        color = rng.uniform(0.2, 0.8, size=3)
        blend = rng.uniform(0.4, 0.9)
        img[y0:y1, x0:x1] = (1 - blend) * img[y0:y1, x0:x1] + blend * color
    fx, fy = rng.uniform(1.5, 7.0, size=2)
    phase = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(0.02, 0.07)
    wave = np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
    img = img + amp * wave[..., None] * rng.uniform(0.5, 1.0, size=3)
    return np.clip(img, 0.0, 1.0)


def _clean_source_paths(clean_dir) -> list[Path]:
    paths = sorted(Path(clean_dir).glob("*.ppm"))
    if not paths:
        raise DataError(f"no .ppm files found in {clean_dir}")
    return paths


def _load_clean_sources(clean_dir) -> list[np.ndarray]:
    from .ppm import read_ppm

    return [read_ppm(p).astype(np.float64) for p in _clean_source_paths(clean_dir)]


def clean_sources_crc32(clean_dir) -> str:
    """CRC-32 (8 hex digits) over the sorted names and bytes of the PPMs that
    :func:`make_patch_set` reads from ``clean_dir``."""
    crc = 0
    for p in _clean_source_paths(clean_dir):
        crc = zlib.crc32(p.name.encode() + b"\0", crc)
        crc = zlib.crc32(p.read_bytes(), crc)
    return f"{crc:08x}"


def make_patch_set(spec: DegradationSpec, count: int, patch: int = 32, seed: int = 0,
                   clean_dir=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic (degraded, clean) pairs as float32 CHW arrays.

    Clean content comes from ``clean_dir`` PPMs (cycled, randomly cropped)
    or from the procedural generator.  Each pair gets its own derived
    degradation seed, so two pairs never share a noise sample.
    """
    spec.validate()
    if count < 1 or patch < 1:
        raise ConfigError("count and patch must be positive")
    rng = np.random.default_rng(seed)
    sources = _load_clean_sources(clean_dir) if clean_dir else None
    pairs = []
    for i in range(count):
        if sources is None:
            src = procedural_image(patch * 2, patch * 2, rng)
        else:
            src = sources[i % len(sources)]
            if src.shape[0] < patch or src.shape[1] < patch:
                raise DataError(f"clean image {src.shape} smaller than patch {patch}")
        y0 = int(rng.integers(0, src.shape[0] - patch + 1))
        x0 = int(rng.integers(0, src.shape[1] - patch + 1))
        clean = src[y0:y0 + patch, x0:x0 + patch]
        if rng.uniform() < 0.5:
            clean = clean[:, ::-1]
        pair_seed = int(rng.integers(0, 2 ** 62))
        degraded = degrade(clean, replace(spec, seed=pair_seed))
        pairs.append((
            np.ascontiguousarray(np.transpose(degraded, (2, 0, 1)), dtype=np.float32),
            np.ascontiguousarray(np.transpose(clean, (2, 0, 1)), dtype=np.float32),
        ))
    return pairs


# CLI task name -> degradation spec with that task's defaults
TASKS = {
    "denoise": DegradationSpec(kind="gaussian_noise"),
    "dehaze": DegradationSpec(kind="haze"),
    "derain": DegradationSpec(kind="rain"),
    "lowlight": DegradationSpec(kind="lowlight"),
    "composite": DegradationSpec(kind="composite", parts=(
        DegradationSpec(kind="haze", transmission=0.75),
        DegradationSpec(kind="gaussian_noise", sigma=15.0),
    )),
}


def spec_for_task(task: str, **overrides) -> DegradationSpec:
    """The task's spec from TASKS with every non-None override applied.

    A composite's overrides also go to each of its parts, since ``degrade``
    reads a part's own fields; each part uses only those of its kind.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task '{task}' (expected one of {sorted(TASKS)})")
    spec = TASKS[task]
    clean = {k: v for k, v in overrides.items() if v is not None}
    if not clean:
        return spec
    if spec.kind == "composite":
        clean["parts"] = tuple(replace(p, **clean) for p in spec.parts)
    return replace(spec, **clean)
