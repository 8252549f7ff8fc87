"""Grayscale raster utilities: interpolation, photometric noise, PGM I/O.

Images are 2D float32 arrays with values in [0, 1].  All computation stays
in float; quantization to 8 bits happens only when reading or writing PGM
files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_KINDS = (
    "gaussian_additive",
    "speckle",
    "salt_pepper",
    "motion_blur",
    "brightness_shift",
    "contrast_scale",
    "shade_gradient",
    "random_erase",
)

# Magnitudes used when a noise kind is applied "at its default strength"
# (per-kind experiment protocols and the augmentation battery caps).
DEFAULT_MAGNITUDES = {
    "gaussian_additive": 0.06,
    "speckle": 0.25,
    "salt_pepper": 0.03,
    "motion_blur": 5.0,
    "brightness_shift": 0.15,
    "contrast_scale": 0.5,
    "shade_gradient": 0.4,
    "random_erase": 0.05,
}


class DimensionMismatch(ValueError):
    pass


class TruncatedFile(ValueError):
    """A file ends before a field its header or layout promises."""


def as_image(arr) -> np.ndarray:
    """Clamp to [0,1] float32."""
    return np.clip(np.asarray(arr, dtype=np.float32), 0.0, 1.0)


# ---------------------------------------------------------------------------
# interpolation


def bilinear_many(img: np.ndarray, xs, ys) -> np.ndarray:
    """Vectorized 4-tap bilinear sampling; out-of-range coordinates clamp."""
    img = np.asarray(img)
    hgt, wdt = img.shape
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, wdt - 1)
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, hgt - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, wdt - 1)
    y1 = np.minimum(y0 + 1, hgt - 1)
    fx = xs - x0
    fy = ys - y0
    v00 = img[y0, x0]
    v01 = img[y0, x1]
    v10 = img[y1, x0]
    v11 = img[y1, x1]
    top = v00 + (v01 - v00) * fx
    bot = v10 + (v11 - v10) * fx
    return top + (bot - top) * fy


def _catmull_rom_weights(t: np.ndarray) -> tuple[np.ndarray, ...]:
    # Cubic convolution kernel with a = -0.5 (Catmull-Rom); interpolating,
    # reproduces linear polynomials exactly.
    t2 = t * t
    t3 = t2 * t
    w0 = -0.5 * t3 + t2 - 0.5 * t
    w1 = 1.5 * t3 - 2.5 * t2 + 1.0
    w2 = -1.5 * t3 + 2.0 * t2 + 0.5 * t
    w3 = 0.5 * t3 - 0.5 * t2
    return w0, w1, w2, w3


def bicubic_many(img: np.ndarray, xs, ys) -> np.ndarray:
    """16-tap Catmull-Rom sampling of every (..., H, W) plane at the points, giving (..., N); replicated borders."""
    img = np.asarray(img)
    hgt, wdt = img.shape[-2:]
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    wx = _catmull_rom_weights(fx)
    wy = _catmull_rom_weights(fy)
    out = np.zeros(img.shape[:-2] + xs.shape, dtype=np.float64)
    for j in range(4):
        yj = np.clip(y0 + j - 1, 0, hgt - 1)
        row = np.zeros_like(out)
        for i in range(4):
            xi = np.clip(x0 + i - 1, 0, wdt - 1)
            row += wx[i] * img[..., yj, xi]
        out += wy[j] * row
    return out


# ---------------------------------------------------------------------------
# photometric noise


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.magnitude < 0.0:
            raise ValueError("magnitude must be >= 0")


def _motion_blur_kernel(length: int, theta: float) -> np.ndarray:
    # Oriented line splatted with bilinear footprints, normalized to sum 1.
    k = np.zeros((length, length), dtype=np.float64)
    c = (length - 1) / 2.0
    ts = np.linspace(-(length - 1) / 2.0, (length - 1) / 2.0, 2 * length + 1)
    for t in ts:
        x = c + t * np.cos(theta)
        y = c + t * np.sin(theta)
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        fx, fy = x - x0, y - y0
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dx, wx in ((0, 1 - fx), (1, fx)):
                yy, xx = y0 + dy, x0 + dx
                if 0 <= yy < length and 0 <= xx < length:
                    k[yy, xx] += wy * wx
    return k / k.sum()


def _convolve2d_edge(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    py, px = kh // 2, kw // 2
    padded = np.pad(img.astype(np.float64), ((py, kh - 1 - py), (px, kw - 1 - px)), mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("hwkl,kl->hw", view, kernel)


def add_noise(img: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Apply one noise kind; deterministic per seed, output clamped to [0,1].

    Magnitude 0 is a no-op for every kind.
    """
    img = np.asarray(img, dtype=np.float32)
    if spec.magnitude == 0.0:
        return img.copy()
    rng = np.random.default_rng(spec.seed)
    mag = float(spec.magnitude)
    kind = spec.kind
    if kind == "gaussian_additive":
        out = img + rng.normal(0.0, mag, img.shape)
    elif kind == "speckle":
        out = img * (1.0 + rng.normal(0.0, mag, img.shape))
    elif kind == "salt_pepper":
        u = rng.random(img.shape)
        flip = u < mag
        salt = rng.random(img.shape) < 0.5
        out = np.where(flip, np.where(salt, 1.0, 0.0), img)
    elif kind == "motion_blur":
        length = int(np.ceil(mag))
        if length <= 1:
            return img.copy()
        out = _convolve2d_edge(img, _motion_blur_kernel(length, rng.uniform(0.0, np.pi)))
    elif kind == "brightness_shift":
        out = img + mag
    elif kind == "contrast_scale":
        out = 0.5 + (img - 0.5) * mag
    elif kind == "shade_gradient":
        hgt, wdt = img.shape
        theta = rng.uniform(0.0, 2.0 * np.pi)
        xx, yy = np.meshgrid(np.arange(wdt), np.arange(hgt))
        ramp = xx * np.cos(theta) + yy * np.sin(theta)
        lo, hi = ramp.min(), ramp.max()
        ramp = (ramp - lo) / (hi - lo) if hi > lo else np.zeros_like(ramp)
        out = img * (1.0 - mag * ramp)
    elif kind == "random_erase":
        hgt, wdt = img.shape
        area = mag * hgt * wdt
        rw = int(max(1, min(wdt, rng.integers(1, max(2, int(np.sqrt(area)) + 1)))))
        rh = int(max(1, min(hgt, area // rw)))
        y0 = int(rng.integers(0, hgt - rh + 1))
        x0 = int(rng.integers(0, wdt - rw + 1))
        out = img.copy()
        out[y0 : y0 + rh, x0 : x0 + rw] = 0.0
    else:  # pragma: no cover - guarded by NoiseSpec
        raise ValueError(kind)
    return as_image(out)


def apply_noise_battery(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Default augmentation battery: every kind, random strength up to its cap."""
    out = img
    for kind in NOISE_KINDS:
        cap = DEFAULT_MAGNITUDES[kind]
        if kind == "motion_blur":
            mag = float(rng.choice([0.0, 3.0, 5.0]))
        elif kind == "contrast_scale":
            mag = float(rng.uniform(1.0 - cap, 1.0 + cap))
        else:
            mag = float(rng.uniform(0.0, cap))
        out = add_noise(out, NoiseSpec(kind, mag, int(rng.integers(0, 2**31))))
    return out


def noise_blend(clean: np.ndarray, noisy: np.ndarray, random_img: np.ndarray, s: float) -> np.ndarray:
    """Interpolate clean (s=0) -> noisy (s=1) -> pure random noise (s=2)."""
    if not (clean.shape == noisy.shape == random_img.shape):
        raise DimensionMismatch("images must share dimensions")
    if not 0.0 <= s <= 2.0:
        raise ValueError("s must lie in [0, 2]")
    if s <= 1.0:
        out = (1.0 - s) * clean.astype(np.float64) + s * noisy.astype(np.float64)
    else:
        out = (2.0 - s) * noisy.astype(np.float64) + (s - 1.0) * random_img.astype(np.float64)
    return as_image(out)


# ---------------------------------------------------------------------------
# PGM I/O (binary P5, 8-bit)


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    hgt, wdt = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{wdt} {hgt}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    # Header: magic, width, height, maxval; '#' comments allowed between tokens.
    tokens = []
    pos = 0
    for field in ("magic", "width", "height", "maxval"):
        while True:
            while pos < len(raw) and raw[pos : pos + 1].isspace():
                pos += 1
            if raw[pos : pos + 1] != b"#":
                break
            while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        if pos >= len(raw):
            raise TruncatedFile(f"{path}: PGM header ends at byte {pos}, before the {field}")
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
        if field == "magic" and tokens[0] != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        if field != "magic" and not tokens[-1].isdigit():
            raise ValueError(f"{path}: PGM {field} at byte {start} is {tokens[-1]!r}, not a number")
    wdt, hgt, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < hgt * wdt:
        raise TruncatedFile(
            f"{path}: PGM pixel data from byte {pos} needs {hgt * wdt} bytes for {wdt}x{hgt}, "
            f"but the file ends at byte {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=hgt * wdt, offset=pos)
    return (pixels.reshape(hgt, wdt).astype(np.float32)) / 255.0


def overlay_points(img: np.ndarray, points: np.ndarray) -> np.ndarray:
    """White crosses with 3-px arms at point locations, for overlays."""
    out = np.asarray(img, dtype=np.float32).copy()
    hgt, wdt = out.shape
    for x, y in np.asarray(points)[:, :2]:
        xi, yi = int(round(float(x))), int(round(float(y)))
        if not (0 <= xi < wdt and 0 <= yi < hgt):
            continue
        out[yi, max(0, xi - 3) : min(wdt, xi + 4)] = 1.0
        out[max(0, yi - 3) : min(hgt, yi + 4), xi] = 1.0
    return out
