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
_NMS_CHUNK = 256  # rank-ordered candidates per raster filter pass and Python-float conversion
_RASTER_DENSITY = 8  # the padded lattice box may hold this many pixels per candidate
_FAST_BAND = 16  # output rows per arc-test pass


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

    The margin is computed one band of ``_FAST_BAND`` output rows at a
    time, so the band's tap planes stay in cache.  It is the max over arc
    starts and both polarities of the min over the arc; min and max are
    exact and propagate NaN, so their order does not change the bytes.
    """
    _check_size(img)
    img = np.asarray(img, dtype=np.float32)
    hgt, wdt = img.shape
    rows, cols = hgt - 6, wdt - 6
    t = np.float32(FAST_THRESHOLD)
    margin = np.empty((rows, cols), dtype=np.float32)
    # planes 16.. repeat the first taps, so every arc is a run of whole planes
    ring = np.empty((16 + FAST_ARC - 1, min(_FAST_BAND, rows), cols), dtype=np.float32)
    for top in range(0, rows, _FAST_BAND):
        bottom = min(top + _FAST_BAND, rows)
        taps = ring[:, : bottom - top]
        for k, (dx, dy) in enumerate(_FAST_OFFSETS):
            taps[k] = img[3 + top + dy : 3 + bottom + dy, 3 + dx : wdt - 3 + dx]
        taps[16:] = taps[: FAST_ARC - 1]
        center = img[3 + top : 3 + bottom, 3 : wdt - 3]
        bright = taps - center - t  # > 0 where circle pixel is brighter by margin
        dark = center - t - taps
        np.maximum(_best_arc(bright), _best_arc(dark), out=margin[top:bottom])
    ys, xs = np.nonzero(margin > 0)
    pts = np.stack([xs + 3.0, ys + 3.0, margin[ys, xs].astype(np.float64)], axis=1)
    return nms(pts, 3.0)


def _best_arc(planes: np.ndarray) -> np.ndarray:
    """Max over the 16 arc starts of the min over ``FAST_ARC`` consecutive planes."""
    run, low = 1, planes  # low[k] is the min of planes k .. k + run - 1
    while 2 * run <= FAST_ARC:
        low = np.minimum(low[:-run], low[run:])
        run *= 2
    shift = FAST_ARC - run  # two overlapping runs cover the arc
    return np.minimum(low[:16], low[shift : shift + 16]).max(axis=0)


def nms(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy non-maximum suppression.

    Candidates are visited by descending confidence (ties broken by
    ascending (y, x)); one is accepted iff no already-accepted point lies
    within ``radius`` (``dx*dx + dy*dy <= radius**2`` in float64, so a
    coordinate that is NaN is within radius of nothing).  Output
    order is acceptance order, which makes the result independent of input
    order.  Accepted points are kept in a dict of radius-sized grid cells,
    so each candidate is tested against at most 9 cells, not against every
    accepted point.  A NaN radius raises ``ValueError``; an infinite one
    keeps the top candidate.

    Candidates on a dense pixel lattice (every coordinate an integer below
    2**26 in magnitude, and a bounding box padded by the radius with at
    most ``_RASTER_DENSITY`` pixels per candidate, as thresholded dense
    response maps give) also pass a coverage raster: a pixel is marked
    when it lies within ``radius`` of an accepted point, by the same
    float64 test on the integer offsets.  Differences of such coordinates
    are exact, so a marked pixel is one the test above suppresses, and a
    candidate on a marked pixel is dropped without the scalar test.  The
    raster only learns a chunk's accepted points after that chunk, so all
    others still pass the scalar test, which alone accepts points.  Other
    candidate sets skip the raster.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if math.isnan(radius):
        raise ValueError("nms radius must not be NaN")
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
    ij = np.nan_to_num(np.floor(pts[:, :2] / cell), nan=0.0)
    ij = np.clip(ij, -(2.0**30), 2.0**30).astype(np.int64)
    keys = (ij[:, 0] << 32) + ij[:, 1]
    raster = _coverage_raster(pts[:, :2], radius, r2)
    grid: dict[int, list] = {}
    kept = []
    for start in range(0, len(pts), _NMS_CHUNK):
        # bounded chunks: the loop is scalar Python, its temporaries stay small
        rows = np.arange(start, min(start + _NMS_CHUNK, len(pts)))
        if raster is not None:
            covered, pixel, disk = raster
            rows = rows[~covered[pixel[rows]]]
        n_kept = len(kept)
        for i, x, y, key in zip(rows.tolist(), pts[rows, 0].tolist(), pts[rows, 1].tolist(), keys[rows].tolist()):
            if _suppressed(grid, key, neighbours, x, y, r2):
                continue
            grid.setdefault(key, []).append((x, y))
            kept.append(i)
        if raster is not None and len(kept) > n_kept:
            covered[(pixel[kept[n_kept:]][:, None] + disk).ravel()] = True
    return pts[kept]


def _coverage_raster(xy: np.ndarray, radius: float, r2: float):
    """(covered, pixel, disk) for candidates on a dense integer lattice, else None.

    ``covered`` is a flat bool raster of the candidates' bounding box padded
    by ``floor(radius)`` on each side, ``pixel`` each candidate's flat index
    in it, and ``disk`` the flat offsets (dx, dy) with
    ``dx*dx + dy*dy <= r2``.
    """
    if not math.isfinite(radius) or not np.all(np.abs(xy) < 2.0**26) or not np.array_equal(xy, np.floor(xy)):
        return None
    pad = int(radius)
    lo = xy.min(axis=0)
    wdt, hgt = (int(v) + 1 + 2 * pad for v in xy.max(axis=0) - lo)
    if wdt * hgt > _RASTER_DENSITY * len(xy):
        return None
    offsets = np.arange(-pad, pad + 1, dtype=np.float64)
    dy, dx = np.nonzero(offsets[None, :] * offsets[None, :] + offsets[:, None] * offsets[:, None] <= r2)
    disk = (dy - pad) * wdt + (dx - pad)
    col, row = (xy - lo + pad).astype(np.int64).T
    return np.zeros(wdt * hgt, dtype=bool), row * wdt + col, disk


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
