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
_NMS_CHUNK = 256  # rank-ordered candidates per raster gather and Python-int conversion
_RASTER_DENSITY = 256  # the padded lattice box may hold this many pixels (raster bytes) per candidate
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
    coordinate that is NaN is within radius of nothing).  Output order is
    acceptance order, which makes the result independent of input order.
    A NaN radius raises ``ValueError``; an infinite one keeps the top
    candidate.

    Candidates on a dense pixel lattice (see ``_coverage_raster``) are
    tested on a raster that marks every pixel within ``radius`` of an
    accepted point; all other candidate sets are scanned against every
    accepted point.
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
    raster = _coverage_raster(pts[:, :2], radius, r2)
    if raster is None:
        return pts[_scan(pts[:, :2], r2)]
    marks, pixel, disk = raster
    covered = np.frombuffer(marks, dtype=bool)  # paints and gathers; marks[p] is the cheap scalar read
    kept = []
    for start in range(0, len(pts), _NMS_CHUNK):
        # one gather drops the chunk's candidates covered by earlier chunks
        rows = start + np.flatnonzero(~covered[pixel[start : start + _NMS_CHUNK]])
        for i, p in zip(rows.tolist(), pixel[rows].tolist()):
            if not marks[p]:
                covered[disk + p] = True
                kept.append(i)
    return pts[kept]


def _coverage_raster(xy: np.ndarray, radius: float, r2: float):
    """(marks, pixel, disk) for candidates on a dense integer lattice, else None.

    The lattice test: every coordinate is an integer below 2**26 in
    magnitude, so differences of coordinates are exact, and the box of the
    candidates padded by ``floor(radius)`` on each side holds at most
    ``_RASTER_DENSITY`` pixels per candidate.  ``marks`` is a zeroed
    ``bytearray`` over that box, ``pixel`` each candidate's flat index in
    it, and ``disk`` the flat offsets (dx, dy) with ``dx*dx + dy*dy <= r2``
    for |dx|, |dy| <= floor(radius): the float64 test of ``nms`` on exact
    integer differences, so a pixel painted with the disk of every accepted
    point is marked iff that test suppresses it.  No larger offset passes
    the test: with k = floor(radius) + 1, radius <= pred(k), so
    fl(radius**2) < k*k.
    """
    if not math.isfinite(radius):
        return None
    # one contiguous row per coordinate: reductions over axis 0 of the
    # strided (N, 2) view cost several times the copy
    coords = np.ascontiguousarray(xy.T)
    for v in coords:
        if not np.all(np.abs(v) < 2.0**26) or not np.array_equal(v, np.floor(v)):
            return None
    pad = int(radius)
    lo = [v.min() for v in coords]
    wdt, hgt = (int(v.max() - m) + 1 + 2 * pad for v, m in zip(coords, lo))
    if wdt * hgt > _RASTER_DENSITY * len(xy):
        return None
    offsets = np.arange(-pad, pad + 1, dtype=np.float64)
    dy, dx = np.nonzero(offsets[None, :] * offsets[None, :] + offsets[:, None] * offsets[:, None] <= r2)
    disk = (dy - pad) * wdt + (dx - pad)
    col, row = ((v - m + pad).astype(np.int64) for v, m in zip(coords, lo))
    return bytearray(wdt * hgt), row * wdt + col, disk


def _scan(xy: np.ndarray, r2: float) -> list:
    """Rows of ``xy`` that greedy NMS accepts, each tested against every accepted point."""
    accepted = np.empty((2, len(xy)))
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: within radius of nothing
        for i, (x, y) in enumerate(xy.tolist()):
            n = len(kept)
            dx = accepted[0, :n] - x
            dx *= dx
            dy = accepted[1, :n] - y
            dy *= dy
            dx += dy
            if not (dx <= r2).any():
                accepted[:, n] = x, y
                kept.append(i)
    return kept


def threshold_points(heatmap: np.ndarray, threshold: float) -> np.ndarray:
    """(x, y, response) of every pixel whose response is >= threshold, in row-major order."""
    hm = np.asarray(heatmap)
    ys, xs = np.nonzero(hm >= threshold)
    return np.stack([xs.astype(np.float64), ys.astype(np.float64), hm[ys, xs].astype(np.float64)], axis=1)


def select_points(points: np.ndarray, nms_radius: float, top_k: int = 0) -> np.ndarray:
    """Greedy NMS, then the strongest top_k (0 = all)."""
    if top_k < 0:
        raise ValueError("top_k must be >= 0")
    pts = nms(points, nms_radius)
    return pts[:top_k] if top_k else pts


def heatmap_to_points(
    heatmap: np.ndarray, threshold: float, nms_radius: float, top_k: int = 0
) -> np.ndarray:
    """Threshold a response map, suppress, keep the strongest top_k (0 = all)."""
    return select_points(threshold_points(heatmap, threshold), nms_radius, top_k)
