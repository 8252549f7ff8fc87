"""Classical corner detectors (Harris, Shi-Tomasi, FAST) and point selection.

Heatmap semantics: one float response per pixel, larger = more point-like.
Selection (threshold, greedy NMS, top-K) is shared by the classical and
learned detectors so benchmark protocols treat every detector identically.
"""

from __future__ import annotations

import math

import numpy as np

HARRIS_K = 0.04
WINDOW_SIGMA = 1.0  # px, Gaussian structure-tensor window
FAST_THRESHOLD = 0.08  # intensity units in [0,1]
FAST_ARC = 9  # contiguous circle pixels required
_NMS_CHUNK = 4096  # candidates converted to Python floats at a time


class ImageTooSmall(ValueError):
    pass


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _sep_filter(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable correlation with reflect padding (same output size)."""
    r = len(kernel) // 2
    padded = np.pad(img, ((r, r), (0, 0)), mode="reflect")
    view = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=0)
    out = view @ kernel
    padded = np.pad(out, ((0, 0), (r, r)), mode="reflect")
    view = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=1)
    return view @ kernel


def _structure_tensor(img: np.ndarray, sigma: float):
    img = np.asarray(img, dtype=np.float64)
    gy, gx = np.gradient(img)  # central differences, one-sided at borders
    k = _gaussian_kernel(sigma)
    sxx = _sep_filter(gx * gx, k)
    syy = _sep_filter(gy * gy, k)
    sxy = _sep_filter(gx * gy, k)
    return sxx, syy, sxy


def _check_size(img):
    if img.shape[0] < 7 or img.shape[1] < 7:
        raise ImageTooSmall(f"need at least 7x7 pixels, got {img.shape}")


def harris(img: np.ndarray) -> np.ndarray:
    """det(M) - k trace(M)^2 over the Gaussian-windowed structure tensor."""
    _check_size(img)
    sxx, syy, sxy = _structure_tensor(img, WINDOW_SIGMA)
    det = sxx * syy - sxy * sxy
    tr = sxx + syy
    return (det - HARRIS_K * tr * tr).astype(np.float32)


def shi_tomasi(img: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of the structure tensor, in closed form."""
    _check_size(img)
    sxx, syy, sxy = _structure_tensor(img, WINDOW_SIGMA)
    half_tr = 0.5 * (sxx + syy)
    disc = np.sqrt(np.maximum(0.25 * (sxx - syy) ** 2 + sxy * sxy, 0.0))
    # exact arithmetic gives lam_min >= 0 for a PSD matrix; clamp roundoff
    return np.maximum(half_tr - disc, 0.0).astype(np.float32)


# 16-pixel Bresenham circle of radius 3, clockwise from 12 o'clock
_FAST_OFFSETS = (
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)


def fast(img: np.ndarray) -> np.ndarray:
    """Segment-test corners; confidence is the best contiguous arc margin.

    A pixel fires when at least ``FAST_ARC`` contiguous circle pixels are
    all brighter than center + t or all darker than center - t.  A 3-px
    greedy NMS is applied internally.  Returns an (N, 3) point array.
    """
    _check_size(img)
    img = np.asarray(img, dtype=np.float32)
    hgt, wdt = img.shape
    center = img[3 : hgt - 3, 3 : wdt - 3]
    big = np.empty((16,) + center.shape, dtype=np.float32)
    for k, (dx, dy) in enumerate(_FAST_OFFSETS):
        big[k] = img[3 + dy : hgt - 3 + dy, 3 + dx : wdt - 3 + dx]
    t = np.float32(FAST_THRESHOLD)
    bright = big - center - t  # > 0 where circle pixel is brighter by margin
    dark = center - t - big
    margin = np.full(center.shape, -np.inf, dtype=np.float32)
    for start in range(16):
        idx = [(start + j) % 16 for j in range(FAST_ARC)]
        margin = np.maximum(margin, np.minimum.reduce([bright[i] for i in idx]))
        margin = np.maximum(margin, np.minimum.reduce([dark[i] for i in idx]))
    ys, xs = np.nonzero(margin > 0)
    pts = np.stack([xs + 3.0, ys + 3.0, margin[ys, xs].astype(np.float64)], axis=1)
    return nms(pts, 3.0)


def nms(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy non-maximum suppression.

    Candidates are visited by descending confidence (ties broken by
    ascending (y, x)); one is accepted iff no already-accepted point lies
    within ``radius`` (``dx*dx + dy*dy <= radius**2`` in float64, so a
    coordinate that is NaN is within radius of nothing).  Output
    order is acceptance order, which makes the result independent of input
    order.  Accepted points are kept in a dict of radius-sized grid cells,
    so each candidate is tested against at most 9 cells, not against every
    accepted point.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        return points.copy()
    order = np.lexsort((points[:, 0], points[:, 1], -points[:, 2]))
    pts = points[order]
    if radius <= 0:
        return pts
    r2 = float(radius * radius)
    # A cell is a radius wide plus 2**-20 of it, so a pair that passes the
    # rounded distance test is never two cells apart; the 1e-150 floor
    # covers radii whose square underflows, and a radius whose square may
    # overflow gets one infinite cell.  Clipping indices at +-2**30 keeps the
    # margin above the rounding of x / cell and puts non-finite coordinates
    # in some cell: sharing a cell only adds exact tests.
    cell = math.inf if radius > 1e150 else max(float(radius) * (1.0 + 2.0**-20), 1e-150)
    neighbours = [(di << 32) + dj for di in (0, -1, 1) for dj in (0, -1, 1)]
    grid: dict[int, list] = {}
    kept = []
    for start in range(0, len(pts), _NMS_CHUNK):
        # bounded chunks: the loop is scalar Python, its temporaries stay small
        xy = pts[start : start + _NMS_CHUNK, :2]
        ij = np.nan_to_num(np.floor(xy / cell), nan=0.0)
        ij = np.clip(ij, -(2.0**30), 2.0**30).astype(np.int64)
        keys = ((ij[:, 0] << 32) + ij[:, 1]).tolist()
        for i, (x, y, key) in enumerate(zip(xy[:, 0].tolist(), xy[:, 1].tolist(), keys), start):
            if _suppressed(grid, key, neighbours, x, y, r2):
                continue
            grid.setdefault(key, []).append((x, y))
            kept.append(i)
    return pts[kept]


def _suppressed(grid, key, neighbours, x, y, r2) -> bool:
    for offset in neighbours:
        for ax, ay in grid.get(key + offset, ()):
            dx = ax - x
            dy = ay - y
            if dx * dx + dy * dy <= r2:
                return True
    return False


def threshold_points(heatmap: np.ndarray, threshold: float) -> np.ndarray:
    """(x, y, response) of every pixel whose response is >= threshold, in row-major order."""
    hm = np.asarray(heatmap)
    ys, xs = np.nonzero(hm >= threshold)
    return np.stack([xs.astype(np.float64), ys.astype(np.float64), hm[ys, xs].astype(np.float64)], axis=1)


def heatmap_to_points(
    heatmap: np.ndarray, threshold: float, nms_radius: float, top_k: int = 0
) -> np.ndarray:
    """Threshold a response map, suppress, keep the strongest top_k (0 = all)."""
    if top_k < 0:
        raise ValueError("top_k must be >= 0")
    pts = nms(threshold_points(heatmap, threshold), nms_radius)
    if top_k and len(pts) > top_k:
        pts = pts[:top_k]
    return pts
