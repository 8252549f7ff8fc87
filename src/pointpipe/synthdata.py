"""Parametric shape rendering with exact corner ground truth.

Ten categories: eight positive shape families plus two negatives (ellipses
and pure noise) that carry no ground-truth points.  Scenes are rasterized
at 4x resolution and box-downsampled, so edges are anti-aliased.  Labels
follow one policy throughout: true vertices, segment endpoints, star/cube
junction corners, and checkerboard interior lattice crossings are ground
truth; T-junctions along a shape's outer boundary are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import geometry as geo
from .imaging import apply_noise_battery

SUPERSAMPLE = 4
MIN_POINT_SPACING = 2.0
# polygon vertices sharper than 15 deg or flatter than 165 deg are rejected
MIN_VERTEX_ANGLE = math.radians(15.0)
MAX_VERTEX_ANGLE = math.radians(165.0)


class WidthOutOfRange(ValueError):
    pass


class ShapeCategory(Enum):
    QUADRILATERAL = "quadrilateral"
    TRIANGLE = "triangle"
    LINE_SEGMENTS = "line_segments"
    STAR = "star"
    CHECKERBOARD = "checkerboard"
    CUBE = "cube"
    STRIPES = "stripes"
    POLYGON_SOUP = "polygon_soup"
    ELLIPSES = "ellipses"
    GAUSSIAN_NOISE = "gaussian_noise"


NEGATIVE_CATEGORIES = frozenset({ShapeCategory.ELLIPSES, ShapeCategory.GAUSSIAN_NOISE})
ALL_CATEGORIES = tuple(ShapeCategory)


@dataclass
class ShapeSample:
    image: np.ndarray  # (H, W) float32 in [0, 1]
    points: np.ndarray  # (N, 3) float64 columns x, y, confidence
    category: ShapeCategory
    meta: dict = field(default_factory=dict)


def empty_points() -> np.ndarray:
    return np.zeros((0, 3), dtype=np.float64)


def make_points(xy) -> np.ndarray:
    """(N, 3) points of confidence 1 at the given (x, y)."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    return np.hstack([xy, np.ones((len(xy), 1))])


# ---------------------------------------------------------------------------
# supersampled canvas


class _Canvas:
    """Float canvas at SUPERSAMPLE resolution; draw in image coordinates."""

    def __init__(self, height, width, background):
        # takes ownership of the supersampled background buffer
        self.h = height
        self.w = width
        self.buf = np.asarray(background, dtype=np.float32)

    @staticmethod
    def to_ss(pts):
        # image pixel center (x, y) -> supersample coordinate 4x + 1.5
        return np.asarray(pts, dtype=np.float64) * SUPERSAMPLE + (SUPERSAMPLE - 1) / 2.0

    def holds(self, pts, margin):
        """Whether every (x, y) point lies at least margin pixels inside the image."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        return bool(pts.min() >= margin and pts[:, 0].max() <= self.w - 1 - margin
                    and pts[:, 1].max() <= self.h - 1 - margin)

    def _box(self, lo, hi):
        """Supersample pixel coordinates of the box from lo to hi (x, y) clamped to the canvas, and the
        buffer view they cover; both are empty when the box misses the canvas."""
        x0, y0 = max(0, int(np.floor(lo[0]))), max(0, int(np.floor(lo[1])))
        x1 = max(x0 - 1, min(self.buf.shape[1] - 1, int(np.ceil(hi[0]))))
        y1 = max(y0 - 1, min(self.buf.shape[0] - 1, int(np.ceil(hi[1]))))
        xx, yy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        return xx, yy, self.buf[y0 : y1 + 1, x0 : x1 + 1]

    def fill_convex(self, pts_img, color):
        pts = self.to_ss(pts_img)
        if _signed_area(pts) < 0:
            pts = pts[::-1]
        xx, yy, region = self._box(pts.min(axis=0), pts.max(axis=0))
        inside = np.ones(xx.shape, dtype=bool)
        for i in range(len(pts)):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % len(pts)]
            inside &= (bx - ax) * (yy - ay) - (by - ay) * (xx - ax) >= 0.0
        region[inside] = color

    def fill_ellipse(self, center, ax_a, ax_b, angle, color):
        c = self.to_ss([center])[0]
        a = ax_a * SUPERSAMPLE
        b = ax_b * SUPERSAMPLE
        r = max(a, b)
        xx, yy, region = self._box(c - r - 1, c + r + 1)
        dx = xx - c[0]
        dy = yy - c[1]
        ca, sa = math.cos(angle), math.sin(angle)
        u = dx * ca + dy * sa
        v = -dx * sa + dy * ca
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        region[inside] = color

    def fill_segment(self, p, q, thickness, color):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        d = q - p
        n = np.linalg.norm(d)
        if n < 1e-9:
            return
        normal = np.array([-d[1], d[0]]) / n * (thickness / 2.0)
        self.fill_convex([p + normal, q + normal, q - normal, p - normal], color)

    def fill_projective_grid(self, quad, rows, cols, colors):
        """Board of rows x cols alternating cells filling a convex quad."""
        board = np.array([[0.0, 0.0], [cols, 0.0], [cols, rows], [0.0, rows]])
        h = _solve_h4(board, np.asarray(quad, dtype=np.float64))
        hinv = geo.invert(h)
        pts = self.to_ss(quad)
        xx, yy, region = self._box(pts.min(axis=0), pts.max(axis=0))
        # supersample coord -> image coord -> board coord
        ix = (xx - (SUPERSAMPLE - 1) / 2.0) / SUPERSAMPLE
        iy = (yy - (SUPERSAMPLE - 1) / 2.0) / SUPERSAMPLE
        w = hinv[2, 0] * ix + hinv[2, 1] * iy + hinv[2, 2]
        w = np.where(np.abs(w) < 1e-12, 1e-12, w)
        u = (hinv[0, 0] * ix + hinv[0, 1] * iy + hinv[0, 2]) / w
        v = (hinv[1, 0] * ix + hinv[1, 1] * iy + hinv[1, 2]) / w
        inside = (u >= 0) & (u < cols) & (v >= 0) & (v < rows)
        parity = (np.floor(u).astype(int) + np.floor(v).astype(int)) % 2
        region[inside & (parity == 0)] = colors[0]
        region[inside & (parity == 1)] = colors[1]
        return h

    def downsample(self) -> np.ndarray:
        s = SUPERSAMPLE
        out = self.buf.reshape(self.h, s, self.w, s).mean(axis=(1, 3))
        return np.clip(out, 0.0, 1.0).astype(np.float32)


def _signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _solve_h4(src, dst):
    """Exact homography mapping 4 src points onto 4 dst points (h22 = 1)."""
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i in range(4):
        x, y = src[i]
        u, v = dst[i]
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i] = u
        b[2 * i + 1] = v
    sol = np.linalg.solve(a, b)
    return np.append(sol, 1.0).reshape(3, 3)


def _vertex_angles_ok(pts):
    n = len(pts)
    for i in range(n):
        a = pts[(i - 1) % n] - pts[i]
        b = pts[(i + 1) % n] - pts[i]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-9 or nb < 1e-9:
            return False
        ang = math.acos(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
        if not MIN_VERTEX_ANGLE < ang < MAX_VERTEX_ANGLE:
            return False
    return True


def _is_convex(pts):
    d = np.roll(pts, -1, axis=0) - pts
    cross = d[:, 0] * np.roll(d, -1, axis=0)[:, 1] - d[:, 1] * np.roll(d, -1, axis=0)[:, 0]
    return bool(np.all(cross > 1e-9) or np.all(cross < -1e-9))


def _random_convex_polygon(rng, center, radius, n_vertices):
    for _ in range(60):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_vertices))
        if np.min(np.diff(np.append(angles, angles[0] + 2 * math.pi))) < 2.0 * math.pi / (3 * n_vertices):
            continue
        radii = rng.uniform(0.55, 1.0, n_vertices) * radius
        pts = np.stack([center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)], axis=1)
        if _is_convex(pts) and _vertex_angles_ok(pts):
            return pts
    return None


# a point within this many pixels outside a later polygon counts as covered by it
OCCLUSION_MARGIN = -1.5


def _point_in_convex(pts, p):
    sign = 1.0 if _signed_area(pts) > 0 else -1.0
    for i in range(len(pts)):
        a = pts[i]
        b = pts[(i + 1) % len(pts)]
        e = b - a
        nrm = np.linalg.norm(e)
        if sign * (e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])) < OCCLUSION_MARGIN * nrm:
            return False
    return True


def _unoccluded(points, occluders) -> list:
    """The points that no occluding polygon covers or nearly touches."""
    return [p for p in points if not any(_point_in_convex(poly, p) for poly in occluders)]


def _background(rng, height, width):
    # smooth shading is block-constant at supersample scale, so compute it
    # at image scale and upsample by repetition (cheap and equivalent)
    base = rng.uniform(0.2, 0.8)
    theta = rng.uniform(0, 2 * math.pi)
    amp = rng.uniform(0.0, 0.12)
    xx, yy = np.meshgrid(
        np.linspace(0, 1, width, dtype=np.float32), np.linspace(0, 1, height, dtype=np.float32)
    )
    ramp = (xx * math.cos(theta) + yy * math.sin(theta)) * amp
    cx, cy = rng.uniform(0.2, 0.8, 2)
    blob = rng.uniform(-0.1, 0.1) * np.exp(
        -(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * rng.uniform(0.05, 0.3) ** 2))
    )
    img = np.clip(base + ramp + blob, 0.02, 0.98).astype(np.float32)
    return np.repeat(np.repeat(img, SUPERSAMPLE, axis=0), SUPERSAMPLE, axis=1), base


def _contrast_color(rng, avoid, min_gap=0.25):
    for _ in range(100):
        c = rng.uniform(0.02, 0.98)
        if all(abs(c - a) >= min_gap for a in avoid):
            return c
    return 0.98 if np.mean(avoid) < 0.5 else 0.02


# ---------------------------------------------------------------------------
# per-category renderers; each returns (points ndarray, meta dict)


def _draw_polygon_scene(canvas, rng, bg_base, n_vertices):
    height, width = canvas.h, canvas.w
    margin = 0.15 * min(height, width)
    center = rng.uniform(margin + 8, np.array([width, height]) - margin - 8)
    radius = rng.uniform(0.18, 0.42) * min(height, width)
    pts = _random_convex_polygon(rng, center, radius, n_vertices)
    if pts is None:
        return None
    canvas.fill_convex(pts, _contrast_color(rng, [bg_base]))
    return make_points(pts), {}


def _draw_line_segments(canvas, rng, bg_base):
    height, width = canvas.h, canvas.w
    n = int(rng.integers(3, 8))
    segs = []
    for _ in range(80):
        if len(segs) == n:
            break
        p = rng.uniform(6, [width - 7, height - 7])
        ang = rng.uniform(0, 2 * math.pi)
        length = rng.uniform(0.15, 0.5) * min(height, width)
        q = p + length * np.array([math.cos(ang), math.sin(ang)])
        if not canvas.holds(q, 4):
            continue
        if any(_segments_cross(p, q, a, b) for a, b in segs):
            continue
        segs.append((p, q))
    if len(segs) < 3:
        return None
    pts = []
    for p, q in segs:
        canvas.fill_segment(p, q, rng.uniform(1.0, 2.5), _contrast_color(rng, [bg_base]))
        pts.extend([p, q])
    return make_points(pts), {"segments": len(segs)}


# segments whose endpoints come closer than this many pixels count as crossing
SEGMENT_GAP = 3.0


def _segments_cross(p1, q1, p2, q2):
    # conservative: padded bounding-box prefilter, then orientation test
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    if min(p1[0], q1[0]) - SEGMENT_GAP > max(p2[0], q2[0]) or min(p2[0], q2[0]) - SEGMENT_GAP > max(p1[0], q1[0]):
        return False
    if min(p1[1], q1[1]) - SEGMENT_GAP > max(p2[1], q2[1]) or min(p2[1], q2[1]) - SEGMENT_GAP > max(p1[1], q1[1]):
        return False
    # nearby parallel strokes also create unlabeled junction-like stimuli
    for a, b in ((p1, p2), (p1, q2), (q1, p2), (q1, q2)):
        if np.linalg.norm(np.asarray(a) - np.asarray(b)) < SEGMENT_GAP:
            return True
    d1 = orient(p2, q2, p1)
    d2 = orient(p2, q2, q1)
    d3 = orient(p1, q1, p2)
    d4 = orient(p1, q1, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _draw_star(canvas, rng, bg_base):
    height, width = canvas.h, canvas.w
    center = rng.uniform(0.3, 0.7, 2) * [width, height]
    n = int(rng.integers(4, 9))
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    gaps = np.diff(np.append(angles, angles[0] + 2 * math.pi))
    if gaps.min() < math.radians(25):
        return None
    color = _contrast_color(rng, [bg_base])
    tips = []
    for a in angles:
        reach = rng.uniform(0.12, 0.35) * min(height, width)
        tip = center + reach * np.array([math.cos(a), math.sin(a)])
        tip = np.clip(tip, 5, [width - 6, height - 6])
        if np.linalg.norm(tip - center) < 8:
            return None
        canvas.fill_segment(center, tip, rng.uniform(1.2, 2.2), color)
        tips.append(tip)
    return make_points([center] + tips), {"spokes": n}


def _draw_board(canvas, rng, bg_base, rows, cols, center, half, jitter):
    """Fill a jittered rows x cols board, its center and half sides drawn from (low, high) fractions of the
    image size; returns its corner quad and board-to-image homography, or None if the quad is rejected."""
    size = np.array([canvas.w, canvas.h])
    cx, cy = rng.uniform(*center, 2) * size
    half_w = rng.uniform(*half) * canvas.w
    half_h = rng.uniform(*half) * canvas.h
    base = [cx, cy] + np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) * [half_w, half_h]
    quad = np.clip(base + rng.uniform(-jitter, jitter, (4, 2)) * size, 4, size - 5)
    if not (_is_convex(quad) and _vertex_angles_ok(quad)):
        return None
    c0 = _contrast_color(rng, [bg_base])
    c1 = _contrast_color(rng, [bg_base, c0], min_gap=0.2)
    return quad, canvas.fill_projective_grid(quad, rows, cols, (c0, c1))


def _draw_checkerboard(canvas, rng, bg_base):
    rows = int(rng.integers(3, 6))
    cols = int(rng.integers(3, 6))
    board = _draw_board(canvas, rng, bg_base, rows, cols, (0.35, 0.65), (0.28, 0.42), 0.08)
    if board is None:
        return None
    quad, h = board
    inner = [(u, v) for v in range(1, rows) for u in range(1, cols)]
    lattice = geo.apply(h, np.asarray(inner, dtype=np.float64)) if inner else np.zeros((0, 2))
    pts = np.vstack([quad, lattice])
    return make_points(pts), {"rows": rows, "cols": cols}


def _draw_cube(canvas, rng, bg_base):
    height, width = canvas.h, canvas.w
    base_angles = np.array([-math.pi / 2, math.pi / 6, 5 * math.pi / 6])
    angles = base_angles + rng.uniform(-0.35, 0.35, 3)
    lengths = rng.uniform(0.18, 0.34, 3) * min(height, width)
    u = np.stack([lengths * np.cos(angles), lengths * np.sin(angles)], axis=1)
    sorted_angles = np.sort(angles % (2 * math.pi))
    gaps = np.diff(np.append(sorted_angles, sorted_angles[0] + 2 * math.pi))
    # the three axis projections must positively span the plane or the
    # rhombi no longer tile the silhouette hexagon
    if gaps.min() < math.radians(70) or gaps.max() > math.radians(170):
        return None
    origin = rng.uniform(0.35, 0.65, 2) * [width, height] - u.sum(axis=0) / 2.0
    v1, v2, v3 = origin + u[0], origin + u[1], origin + u[2]
    v12, v13, v23 = origin + u[0] + u[1], origin + u[0] + u[2], origin + u[1] + u[2]
    v123 = origin + u.sum(axis=0)
    verts = np.stack([v1, v2, v3, v12, v13, v23, v123])
    if not canvas.holds(verts, 5):
        return None
    shades = [_contrast_color(rng, [bg_base])]
    shades.append(_contrast_color(rng, [bg_base, shades[0]], min_gap=0.12))
    shades.append(_contrast_color(rng, [bg_base, shades[0], shades[1]], min_gap=0.12))
    canvas.fill_convex([v1, v12, v123, v13], shades[0])
    canvas.fill_convex([v2, v12, v123, v23], shades[1])
    canvas.fill_convex([v3, v13, v123, v23], shades[2])
    return make_points(verts), {}


def _draw_stripes(canvas, rng, bg_base):
    k = int(rng.integers(4, 9))
    board = _draw_board(canvas, rng, bg_base, 1, k, (0.4, 0.6), (0.3, 0.44), 0.06)
    if board is None:
        return None
    return make_points(board[0]), {"stripes": k}


def _draw_polygon_soup(canvas, rng, bg_base):
    height, width = canvas.h, canvas.w
    n_polys = int(rng.integers(2, 5))
    polys = []
    colors = [bg_base]
    for _ in range(30):
        if len(polys) == n_polys:
            break
        c = rng.uniform(0.2, 0.8, 2) * [width, height]
        r = rng.uniform(0.12, 0.3) * min(height, width)
        pts = _random_convex_polygon(rng, c, r, int(rng.integers(3, 7)))
        if pts is None or not canvas.holds(pts, 5):
            continue
        polys.append(pts)
    if len(polys) < 2:
        return None
    for pts in polys:
        color = _contrast_color(rng, colors, min_gap=0.15)
        colors.append(color)
        canvas.fill_convex(pts, color)
    # a vertex survives if no later polygon covers or nearly touches it
    gt = [p for i, pts in enumerate(polys) for p in _unoccluded(pts, polys[i + 1 :])]
    if not gt:
        return None
    return make_points(gt), {"polygons": len(polys)}


def _draw_ellipses(canvas, rng, bg_base):
    n = int(rng.integers(3, 8))
    colors = [bg_base]
    for _ in range(n):
        c = rng.uniform(0.15, 0.85, 2) * [canvas.w, canvas.h]
        a = rng.uniform(0.05, 0.2) * min(canvas.h, canvas.w)
        b = rng.uniform(0.05, 0.2) * min(canvas.h, canvas.w)
        color = _contrast_color(rng, colors, min_gap=0.15)
        colors.append(color)
        canvas.fill_ellipse(c, a, b, rng.uniform(0, math.pi), color)
    return empty_points(), {}


def _render_once(category, size, rng):
    height, width = size
    if category is ShapeCategory.GAUSSIAN_NOISE:
        mu = rng.uniform(0.3, 0.7)
        sigma = rng.uniform(0.1, 0.3)
        img = np.clip(rng.normal(mu, sigma, (height, width)), 0.0, 1.0).astype(np.float32)
        return ShapeSample(img, empty_points(), category)

    bg, bg_base = _background(rng, height, width)
    canvas = _Canvas(height, width, bg)
    draw = {
        ShapeCategory.QUADRILATERAL: lambda: _draw_polygon_scene(canvas, rng, bg_base, 4),
        ShapeCategory.TRIANGLE: lambda: _draw_polygon_scene(canvas, rng, bg_base, 3),
        ShapeCategory.LINE_SEGMENTS: lambda: _draw_line_segments(canvas, rng, bg_base),
        ShapeCategory.STAR: lambda: _draw_star(canvas, rng, bg_base),
        ShapeCategory.CHECKERBOARD: lambda: _draw_checkerboard(canvas, rng, bg_base),
        ShapeCategory.CUBE: lambda: _draw_cube(canvas, rng, bg_base),
        ShapeCategory.STRIPES: lambda: _draw_stripes(canvas, rng, bg_base),
        ShapeCategory.POLYGON_SOUP: lambda: _draw_polygon_soup(canvas, rng, bg_base),
        ShapeCategory.ELLIPSES: lambda: _draw_ellipses(canvas, rng, bg_base),
    }[category]
    result = draw()
    if result is None:
        return None
    points, meta = result
    return ShapeSample(canvas.downsample(), points, category, meta)


def _points_valid(points, size):
    height, width = size
    if len(points) == 0:
        return True
    xy = points[:, :2]
    if xy[:, 0].min() <= 0 or xy[:, 0].max() >= width - 1 or xy[:, 1].min() <= 0 or xy[:, 1].max() >= height - 1:
        return False
    if len(xy) > 1:
        d = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
        d[np.diag_indices(len(xy))] = np.inf
        if d.min() < MIN_POINT_SPACING:
            return False
    return True


def render_sample(category: ShapeCategory, size: tuple[int, int], rng: np.random.Generator) -> ShapeSample:
    """Render one scene of the given category with exact ground truth.

    Scenes violating the label constraints (points too close together or
    too close to the border) are regenerated from the same generator.
    """
    height, width = size
    if height < 32 or width < 32:
        raise ValueError("image size must be at least 32x32")
    for _ in range(200):
        sample = _render_once(category, size, rng)
        if sample is not None and _points_valid(sample.points, size):
            return sample
    raise RuntimeError(f"could not render a valid {category.value} sample")


# ---------------------------------------------------------------------------
# streaming


@dataclass(frozen=True)
class StreamConfig:
    height: int = 96
    width: int = 96
    mix: Optional[dict] = None  # ShapeCategory -> weight, None = uniform
    noise: bool = True
    seed: int = 0

    def category_table(self):
        if self.mix is None:
            cats = list(ALL_CATEGORIES)
            probs = np.full(len(cats), 1.0 / len(cats))
        else:
            cats = sorted(self.mix.keys(), key=lambda c: c.value)
            probs = np.array([float(self.mix[c]) for c in cats])
            if probs.sum() <= 0:
                raise ValueError("category mix weights must sum to > 0")
            probs = probs / probs.sum()
        return cats, probs


def sample_at(cfg: StreamConfig, index: int) -> ShapeSample:
    """Deterministic sample for a stream position; no two indices share a draw."""
    return sample_from(cfg, np.random.default_rng(np.random.SeedSequence((cfg.seed, index))))


def sample_from(cfg: StreamConfig, rng: np.random.Generator) -> ShapeSample:
    """A sample of the stream's categories, size and noise, drawn from rng."""
    cats, probs = cfg.category_table()
    cat = cats[int(rng.choice(len(cats), p=probs))]
    sample = render_sample(cat, (cfg.height, cfg.width), rng)
    if cfg.noise:
        sample.image = apply_noise_battery(sample.image, rng)
    return sample


def homographic_augment(sample: ShapeSample, h: np.ndarray) -> ShapeSample:
    """Warp image and ground truth by a pixel-frame homography.

    Points landing outside the image or on mask-unset pixels are dropped.
    """
    warped, mask = geo.warp_image(sample.image, h)
    if len(sample.points):
        xy = geo.apply(h, sample.points[:, :2])
        hgt, wdt = warped.shape
        keep = geo.in_bounds(xy, warped.shape)
        xi = np.clip(np.rint(xy[:, 0]).astype(int), 0, wdt - 1)
        yi = np.clip(np.rint(xy[:, 1]).astype(int), 0, hgt - 1)
        keep &= mask[yi, xi]
        points = np.hstack([xy[keep], sample.points[keep, 2:3]])
    else:
        points = empty_points()
    return ShapeSample(warped, points, sample.category, dict(sample.meta))


def render_square(width: int) -> ShapeSample:
    """Pixel-aligned black square on a white 96 x 96 canvas, for the blob-vs-corner sweep.

    Ground truth: four corner pixels then the center pixel (blob center,
    always the last point).
    """
    if width % 2 == 0 or not 3 <= width <= 91:
        raise WidthOutOfRange(f"width must be odd and within [3, 91], got {width}")
    img = np.ones((96, 96), dtype=np.float32)
    c = 47.5  # canvas center
    half = (width - 1) / 2.0
    lo, hi = c - half, c + half  # corner coordinates; for odd widths these are x.5
    lo_px, hi_px = int(math.ceil(lo)), int(math.floor(hi))
    img[lo_px : hi_px + 1, lo_px : hi_px + 1] = 0.0
    pts = make_points([(lo, lo), (hi, lo), (lo, hi), (hi, hi), (c, c)])
    return ShapeSample(img, pts, ShapeCategory.QUADRILATERAL, {"blob_index": 4, "square_width": width})


def render_composite(size: tuple[int, int], rng: np.random.Generator) -> ShapeSample:
    """Cluttered multi-shape scene; benchmark corpus material.

    Later shapes occlude earlier ones; occluded or boundary-grazing ground
    truth points are dropped, as are points violating the spacing rule.
    """
    height, width = size
    bg, bg_base = _background(rng, height, width)
    canvas = _Canvas(height, width, bg)
    entries = []  # (points, occluder polygon or None)
    n = int(rng.integers(4, 9))
    colors = [bg_base]
    for _ in range(n * 6):
        if len(entries) >= n:
            break
        kind = rng.choice(["polygon", "segment", "star"], p=[0.5, 0.3, 0.2])
        color = _contrast_color(rng, colors[-2:], min_gap=0.2)
        if kind == "polygon":
            c = rng.uniform(0.12, 0.88, 2) * [width, height]
            r = rng.uniform(0.06, 0.16) * min(height, width)
            pts = _random_convex_polygon(rng, c, r, int(rng.integers(3, 7)))
            if pts is None or not canvas.holds(pts, 4):
                continue
            canvas.fill_convex(pts, color)
            entries.append((pts.copy(), pts))
        elif kind == "segment":
            p = rng.uniform(5, [width - 6, height - 6])
            ang = rng.uniform(0, 2 * math.pi)
            q = p + rng.uniform(0.1, 0.3) * min(height, width) * np.array([math.cos(ang), math.sin(ang)])
            if not canvas.holds(q, 4):
                continue
            canvas.fill_segment(p, q, rng.uniform(1.0, 2.2), color)
            entries.append((np.stack([p, q]), None))
        else:
            c = rng.uniform(0.15, 0.85, 2) * [width, height]
            k = int(rng.integers(4, 7))
            angles = np.sort(rng.uniform(0, 2 * math.pi, k))
            if np.diff(np.append(angles, angles[0] + 2 * math.pi)).min() < math.radians(30):
                continue
            tips = []
            for a in angles:
                tip = c + rng.uniform(0.05, 0.14) * min(height, width) * np.array([math.cos(a), math.sin(a)])
                if not canvas.holds(tip, 4):
                    break
                tips.append(tip)
            if len(tips) < k:
                continue
            for tip in tips:
                canvas.fill_segment(c, tip, rng.uniform(1.0, 2.0), color)
            entries.append((np.stack([c] + tips), None))
        colors.append(color)

    gt = []
    for i, (pts, _) in enumerate(entries):
        gt += _unoccluded(pts, [poly for _, poly in entries[i + 1 :] if poly is not None])
    kept = []
    for p in gt:
        if all(np.linalg.norm(p - q) >= MIN_POINT_SPACING for q in kept):
            kept.append(p)
    points = make_points(kept) if kept else empty_points()
    return ShapeSample(canvas.downsample(), points, ShapeCategory.POLYGON_SOUP, {"composite": True})


# ---------------------------------------------------------------------------
# point file format (.pts: "x,y,confidence" per line, 6 decimals)


def write_points(path, points: np.ndarray) -> None:
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    with open(path, "w") as f:
        for x, y, conf in points:
            f.write(f"{x:.6f},{y:.6f},{conf:.6f}\n")


def read_points(path) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed point line {line!r}")
            rows.append([float(p) for p in parts])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)
