"""Homography algebra, random homography sampling, and projective warping.

Conventions used throughout the package:

* Points are (x, y) pixel coordinates, origin at the top-left pixel center,
  x growing rightward and y downward.  Pixel centers sit at integer
  coordinates, so an H x W image spans [0, W-1] x [0, H-1].
* A homography is a plain 3x3 float64 ndarray acting on homogeneous
  column vectors (x, y, 1).
* Random homographies are sampled in unit-square coordinates ([0,1]^2,
  center at (0.5, 0.5)) and converted to the pixel frame of a concrete
  image with :func:`to_pixel_frame`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DET_EPS = 1e-12


class Singular(ValueError):
    """Homography is not invertible (|det| below tolerance)."""


class DegenerateProjection(ValueError):
    """A point maps to (or too close to) the plane at infinity."""


def identity() -> np.ndarray:
    return np.eye(3, dtype=np.float64)


def translation(tx: float, ty: float) -> np.ndarray:
    h = identity()
    h[0, 2] = tx
    h[1, 2] = ty
    return h


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def scaling(sx: float, sy: float) -> np.ndarray:
    return np.diag([float(sx), float(sy), 1.0])


def normalize(h: np.ndarray) -> np.ndarray:
    """Scale so the bottom-right entry is exactly 1."""
    h = np.asarray(h, dtype=np.float64)
    if abs(h[2, 2]) < DET_EPS:
        raise Singular("cannot normalize: bottom-right entry ~ 0")
    return h / h[2, 2]


def invert(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if abs(np.linalg.det(h)) < DET_EPS:
        raise Singular(f"determinant {np.linalg.det(h):g} below {DET_EPS:g}")
    return np.linalg.inv(h)


def apply(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Map an (N, 2) array of points through ``h`` with homogeneous division.

    Raises DegenerateProjection if any point lands too close to the plane
    at infinity.  Output row order matches input row order.
    """
    h = np.asarray(h, dtype=np.float64)
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    w = h[2, 0] * pts[:, 0] + h[2, 1] * pts[:, 1] + h[2, 2]
    if np.any(np.abs(w) < DET_EPS):
        raise DegenerateProjection("homogeneous coordinate ~ 0")
    x = (h[0, 0] * pts[:, 0] + h[0, 1] * pts[:, 1] + h[0, 2]) / w
    y = (h[1, 0] * pts[:, 0] + h[1, 1] * pts[:, 1] + h[1, 2]) / w
    return np.stack([x, y], axis=1)


@dataclass(frozen=True)
class HomographyRanges:
    """Sampling ranges for random homographies (unit-square frame).

    All sigmas parameterize zero-mean truncated normals except scale,
    whose mean is 1.  ``crop_ratio`` is the side fraction kept by the
    root center crop applied before the random transforms.
    """

    crop_ratio: float = 0.8
    translation_sigma: float = 0.1
    scale_sigma: float = 0.15
    rotation_sigma: float = math.pi / 8
    perspective_sigma: float = 0.1
    truncation: float = 2.0
    preset: str = "adaptation"

    def __post_init__(self):
        if not 0.0 < self.crop_ratio <= 1.0:
            raise ValueError(f"crop_ratio must be in (0,1], got {self.crop_ratio}")
        for name in ("translation_sigma", "scale_sigma", "rotation_sigma", "perspective_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.truncation <= 0.0:
            raise ValueError("truncation must be > 0")


# Joint training warps are milder: extreme in-plane rotations and strong
# perspective are rare in matching pairs, so the training preset narrows both.
PRESETS = {
    "adaptation": HomographyRanges(preset="adaptation"),
    "training": HomographyRanges(
        rotation_sigma=math.pi / 24, perspective_sigma=0.05, preset="training"
    ),
}


def ranges_preset(name: str) -> HomographyRanges:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown homography preset {name!r}") from None


def truncated_normal(rng: np.random.Generator, mean: float, sigma: float, truncation: float) -> float:
    """Normal draw rejected outside mean +- truncation*sigma."""
    if sigma == 0.0:
        return mean
    bound = truncation * sigma
    while True:
        x = rng.normal(0.0, sigma)
        if abs(x) <= bound:
            return mean + x


def _about_center(m: np.ndarray) -> np.ndarray:
    c = translation(0.5, 0.5)
    cinv = translation(-0.5, -0.5)
    return c @ m @ cinv


def sample_homography(ranges: HomographyRanges, rng: np.random.Generator) -> np.ndarray:
    """Draw a random homography as perspective . rotation . scale . translation . crop.

    Every parameter comes from a truncated normal; the crop, scale,
    rotation, and perspective components act about the unit-square center.
    Deterministic for a fixed generator state.  The (rare) draw of a
    non-invertible matrix is resampled, up to 100 attempts.
    """
    for _ in range(100):
        crop = _about_center(scaling(ranges.crop_ratio, ranges.crop_ratio))
        t = translation(
            truncated_normal(rng, 0.0, ranges.translation_sigma, ranges.truncation),
            truncated_normal(rng, 0.0, ranges.translation_sigma, ranges.truncation),
        )
        s = truncated_normal(rng, 1.0, ranges.scale_sigma, ranges.truncation)
        scale = _about_center(scaling(s, s))
        rot = _about_center(rotation(truncated_normal(rng, 0.0, ranges.rotation_sigma, ranges.truncation)))
        persp = identity()
        persp[2, 0] = truncated_normal(rng, 0.0, ranges.perspective_sigma, ranges.truncation)
        persp[2, 1] = truncated_normal(rng, 0.0, ranges.perspective_sigma, ranges.truncation)
        persp = _about_center(persp)
        h = persp @ rot @ scale @ t @ crop
        if abs(np.linalg.det(h)) >= DET_EPS:
            return normalize(h)
    raise Singular("no invertible homography in 100 draws")


def to_pixel_frame(h_unit: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Conjugate a unit-square homography into the pixel frame of an H x W image."""
    hgt, wdt = shape
    s = scaling(max(wdt - 1, 1), max(hgt - 1, 1))
    return normalize(s @ np.asarray(h_unit, dtype=np.float64) @ invert(s))


def warp_image(img: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Warp an image by a pixel-frame homography.

    Output pixel (u, v) is the bilinear sample of ``img`` at
    ``invert(h) @ (u, v, 1)``.  The boolean mask marks pixels whose source
    location lies inside [0, W-1] x [0, H-1]; everything else is 0.
    """
    img = np.asarray(img)
    hgt, wdt = img.shape
    hinv = invert(h)
    uu, vv = np.meshgrid(np.arange(wdt, dtype=np.float64), np.arange(hgt, dtype=np.float64))
    w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
    finite = np.abs(w) >= DET_EPS
    wsafe = np.where(finite, w, 1.0)
    sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / wsafe
    sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / wsafe
    mask = finite & (sx >= 0.0) & (sx <= wdt - 1) & (sy >= 0.0) & (sy <= hgt - 1)

    from .imaging import bilinear_many  # local import to avoid cycle at module load

    out = bilinear_many(img, sx.ravel(), sy.ravel()).reshape(hgt, wdt)
    out = np.where(mask, out, 0.0).astype(img.dtype, copy=False)
    return out, mask


def save_homography(path, h: np.ndarray) -> None:
    """Write the nine row-major entries, one decimal float per line (.htxt)."""
    h = np.asarray(h, dtype=np.float64)
    with open(path, "w") as f:
        for v in h.ravel():
            f.write(f"{v:.17g}\n")


def load_homography(path) -> np.ndarray:
    with open(path) as f:
        vals = [float(tok) for tok in f.read().split()]
    if len(vals) != 9:
        raise ValueError(f"{path}: expected 9 values, found {len(vals)}")
    return np.array(vals, dtype=np.float64).reshape(3, 3)
