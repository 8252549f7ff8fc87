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


def invert_many(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``invert`` over a (..., 3, 3) stack: the inverses (NaN where singular)
    and the mask of the matrices ``invert`` accepts."""
    ok = ~(np.abs(np.linalg.det(h)) < DET_EPS)
    out = np.full(h.shape, np.nan)
    out[ok] = np.linalg.inv(h[ok])
    return out, ok


def project(h: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Homogeneous image (x numerator, y numerator, w) of (..., N, 2) points
    under one (3, 3) homography or a stack of (..., 3, 3) ones, each (..., N),
    before any division."""
    x, y = pts[..., 0], pts[..., 1]
    rows = []
    for r in range(3):
        t = h[..., r, 0, None] * x
        t += h[..., r, 1, None] * y
        t += h[..., r, 2, None]
        rows.append(t)
    return tuple(rows)


def apply(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Map an (N, 2) array of points through ``h`` with homogeneous division.

    Also maps a stack: (..., 3, 3) homographies with (..., N, 2) points.
    Raises DegenerateProjection if any point lands too close to the plane
    at infinity.  Output row order matches input row order.
    """
    h = np.asarray(h, dtype=np.float64)
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    u, v, w = project(h, pts)
    if np.any(np.abs(w) < DET_EPS):
        raise DegenerateProjection("homogeneous coordinate ~ 0")
    return np.stack([u / w, v / w], axis=-1)


def in_bounds(xy: np.ndarray, shape) -> np.ndarray:
    """Mask of the (N, 2+) points (x, y) inside an H x W image: 0 <= x <= W-1, 0 <= y <= H-1."""
    hgt, wdt = shape
    return (xy[:, 0] >= 0) & (xy[:, 0] <= wdt - 1) & (xy[:, 1] >= 0) & (xy[:, 1] <= hgt - 1)


# Every homography draw takes the root center crop, then translation and
# scale from these truncated normals (scale's mean is 1).
CROP_RATIO = 0.8
TRANSLATION_SIGMA = 0.1
SCALE_SIGMA = 0.15
TRUNCATION = 2.0  # draws are rejected beyond TRUNCATION sigmas


@dataclass(frozen=True)
class HomographyRanges:
    """Sigmas of the zero-mean truncated normals for rotation (radians) and
    perspective (unit-square frame), the two ranges the presets differ on."""

    rotation_sigma: float = math.pi / 8
    perspective_sigma: float = 0.1


# Joint training warps are milder: extreme in-plane rotations and strong
# perspective are rare in matching pairs, so the training preset narrows both.
PRESETS = {
    "adaptation": HomographyRanges(),
    "training": HomographyRanges(rotation_sigma=math.pi / 24, perspective_sigma=0.05),
}


def ranges_preset(name: str) -> HomographyRanges:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown homography preset {name!r}") from None


def truncated_normal(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """Normal draw rejected outside mean +- TRUNCATION*sigma."""
    bound = TRUNCATION * sigma
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
    Deterministic for a fixed generator state.
    """
    crop = _about_center(scaling(CROP_RATIO, CROP_RATIO))
    t = translation(truncated_normal(rng, 0.0, TRANSLATION_SIGMA), truncated_normal(rng, 0.0, TRANSLATION_SIGMA))
    s = truncated_normal(rng, 1.0, SCALE_SIGMA)
    scale = _about_center(scaling(s, s))
    rot = _about_center(rotation(truncated_normal(rng, 0.0, ranges.rotation_sigma)))
    persp = identity()
    persp[2, 0] = truncated_normal(rng, 0.0, ranges.perspective_sigma)
    persp[2, 1] = truncated_normal(rng, 0.0, ranges.perspective_sigma)
    persp = _about_center(persp)
    # rotation and perspective have det 1, so det(h) = CROP_RATIO**2 * s**2 >= 0.8**2 * 0.7**2 = 0.3136
    return normalize(persp @ rot @ scale @ t @ crop)


def to_pixel_frame(h_unit: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Conjugate a unit-square homography into the pixel frame of an H x W image."""
    hgt, wdt = shape
    s = scaling(max(wdt - 1, 1), max(hgt - 1, 1))
    return normalize(s @ np.asarray(h_unit, dtype=np.float64) @ invert(s))


# output pixels per band of whole rows in warp_image, so that the band's
# coordinate and interpolation temporaries stay small
WARP_BAND_PIXELS = 32768


def warp_image(img: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Warp an image by a pixel-frame homography.

    Output pixel (u, v) is the bilinear sample of ``img`` at
    ``invert(h) @ (u, v, 1)``.  The boolean mask marks pixels whose source
    location lies inside [0, W-1] x [0, H-1]; everything else is 0.  The
    output is computed in bands of whole rows; every pixel's value comes
    from its own coordinates alone, so the bands give the bytes of one pass
    over the whole image.
    """
    from .imaging import bilinear_many  # local import to avoid cycle at module load

    img = np.asarray(img)
    hgt, wdt = img.shape
    hinv = invert(h)
    out = np.empty((hgt, wdt), dtype=img.dtype)
    mask = np.empty((hgt, wdt), dtype=bool)
    rows = max(1, WARP_BAND_PIXELS // max(wdt, 1))
    # a (1, W) row of u and an (R, 1) column of v broadcast to every pixel's (u, v) in a band
    u = np.arange(wdt, dtype=np.float64)[None, :]
    for v0 in range(0, hgt, rows):
        v = np.arange(v0, min(v0 + rows, hgt), dtype=np.float64)[:, None]
        w = hinv[2, 0] * u + hinv[2, 1] * v + hinv[2, 2]
        finite = np.abs(w) >= DET_EPS
        wsafe = np.where(finite, w, 1.0)
        sx = (hinv[0, 0] * u + hinv[0, 1] * v + hinv[0, 2]) / wsafe
        sy = (hinv[1, 0] * u + hinv[1, 1] * v + hinv[1, 2]) / wsafe
        inside = finite & (sx >= 0.0) & (sx <= wdt - 1) & (sy >= 0.0) & (sy <= hgt - 1)
        band = bilinear_many(img, sx.ravel(), sy.ravel()).reshape(inside.shape)
        out[v0 : v0 + len(v)] = np.where(inside, band, 0.0)
        mask[v0 : v0 + len(v)] = inside
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
