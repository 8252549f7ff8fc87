"""Detector/descriptor metrics, nearest-neighbor matching, and RANSAC
homography estimation, plus the benchmark protocols built from them.

Point sets are (N, 3) arrays of (x, y, confidence).  Metrics that compare
against ground truth treat a detection as correct when its distance to the
nearest ground-truth point is <= epsilon, boundary inclusive.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .classical import nms


class InsufficientMatches(ValueError):
    pass


class DegenerateConfiguration(RuntimeError):
    pass


class NoCorrectDetections(ValueError):
    pass


class EmptySet(ValueError):
    pass


class NoMatches(ValueError):
    pass


class NoFeaturesInRegion(ValueError):
    pass


# ---------------------------------------------------------------------------
# detector metrics


def _nearest_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of ``a`` to its nearest point of ``b`` (x, y only)."""
    return np.linalg.norm(a[:, None, :2] - b[None, :, :2], axis=2).min(axis=1)


def _det_order(dets: np.ndarray) -> np.ndarray:
    return np.lexsort((dets[:, 0], dets[:, 1], -dets[:, 2]))


def _pr_area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Trapezoid area under the PR points, anchored at (0, P_first)."""
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[precision[0]], precision])
    return float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) * 0.5))


def average_precision(dets: np.ndarray, gt: np.ndarray, eps: float) -> float:
    """AP with a greedy one-to-one assignment, swept over all confidences.

    Detections are visited by descending confidence; each may claim the
    nearest still-unclaimed ground-truth point within eps.  The PR curve is
    evaluated at every distinct confidence and integrated by trapezoid.
    Undefined cases (no ground truth) report 0; callers flag them.
    """
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, gt.shape[-1] if len(gt) else 2)
    if len(gt) == 0 or len(dets) == 0:
        return 0.0
    order = _det_order(dets)
    taken = np.zeros(len(gt), dtype=bool)
    tp = np.zeros(len(dets), dtype=bool)
    for rank, i in enumerate(order):
        d = np.hypot(gt[:, 0] - dets[i, 0], gt[:, 1] - dets[i, 1])
        d[taken] = np.inf
        j = int(np.argmin(d))
        if d[j] <= eps:
            taken[j] = True
            tp[rank] = True
    confs = dets[order, 2]
    # PR point after each group of equal confidence
    boundaries = np.nonzero(np.diff(confs))[0].tolist() + [len(confs) - 1]
    cum_tp = np.cumsum(tp)
    ks = np.asarray(boundaries)
    precision = cum_tp[ks] / (ks + 1.0)
    recall = cum_tp[ks] / float(len(gt))
    return _pr_area(recall, precision)


def localization_error(dets: np.ndarray, gt: np.ndarray, eps: float) -> float:
    """Mean distance-to-nearest-ground-truth over the correct detections only."""
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, gt.shape[-1] if len(gt) else 2)
    if len(gt) == 0 or len(dets) == 0:
        raise NoCorrectDetections("nothing to localize")
    d = _nearest_distance(dets, gt)
    d = d[d <= eps]
    if len(d) == 0:
        raise NoCorrectDetections(f"no detection within {eps} px of ground truth")
    return float(d.mean())


def repeatability(pts1: np.ndarray, pts2: np.ndarray, h: np.ndarray, shape, eps: float) -> float:
    """Fraction of co-visible points re-detected across a known homography.

    Both sets are restricted to the co-visible region (their transport must
    stay in bounds); correctness checks each restricted point against the
    counterpart set transported into its frame.  Returns 0 when both
    restricted sets are empty.
    """
    pts1 = np.asarray(pts1, dtype=np.float64).reshape(-1, pts1.shape[-1] if len(pts1) else 3)
    pts2 = np.asarray(pts2, dtype=np.float64).reshape(-1, pts2.shape[-1] if len(pts2) else 3)
    hinv = geo.invert(h)
    if len(pts1):
        pts1 = pts1[geo.in_bounds(geo.apply(h, pts1[:, :2]), shape)]
    if len(pts2):
        pts2 = pts2[geo.in_bounds(geo.apply(hinv, pts2[:, :2]), shape)]
    n1, n2 = len(pts1), len(pts2)
    if n1 + n2 == 0:
        return 0.0
    hits = 0
    if n1 and n2:
        hits += int((_nearest_distance(geo.apply(h, pts1[:, :2]), pts2) <= eps).sum())
        hits += int((_nearest_distance(geo.apply(hinv, pts2[:, :2]), pts1) <= eps).sum())
    return hits / float(n1 + n2)


# ---------------------------------------------------------------------------
# descriptor matching


@dataclass
class MatchSet:
    idx_a: np.ndarray  # (M,) indices into points_a
    idx_b: np.ndarray  # (M,) indices into points_b
    distance: np.ndarray  # (M,) descriptor distances
    points_a: np.ndarray  # (Na, 3)
    points_b: np.ndarray  # (Nb, 3)


# Rows of desc_a per GEMM block in match_nn.
MATCH_CHUNK = 256


def _differencing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast rows of a and b, by direct differencing."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def match_nn(desc_a: np.ndarray, desc_b: np.ndarray,
             points_a: np.ndarray | None = None, points_b: np.ndarray | None = None) -> MatchSet:
    """Nearest neighbor in descriptor space for every row of desc_a.

    Indices and distances are those of differencing every pair,
    ``sqrt(sum((a - b)**2))``, with ties resolved to the lowest index in b.
    Candidates come from a GEMM over |a|^2 + |b|^2 - 2 a.b (the FAISS
    decomposition), which differs from the differenced square by at most
    (4 D + 8) u (|a|^2 + |b|^2), u = 2^-53.  A column further than twice that,
    plus sqrt's rounding, above a row's best GEMM value can neither be its
    nearest nor tie it.  So each row's candidates are the columns within
    W_i = (8 D + 32) eps (|a_i|^2 + max_j |b_j|^2) of its best (eps = 2u,
    leaving a factor 2 of slack); a row with more than one, or a non-finite
    best, is decided by differencing them (all columns when not finite).
    Every returned distance is recomputed by differencing.
    """
    desc_a = np.atleast_2d(np.asarray(desc_a, dtype=np.float64))
    desc_b = np.atleast_2d(np.asarray(desc_b, dtype=np.float64))
    if desc_b.size == 0 or len(desc_b) == 0:
        raise EmptySet("no descriptors to match against")
    na = len(desc_a)
    nb = len(desc_b)
    sq_a = np.einsum("ij,ij->i", desc_a, desc_a)
    sq_b = np.einsum("ij,ij->i", desc_b, desc_b)
    window = (8 * desc_b.shape[1] + 32) * np.finfo(np.float64).eps * (sq_a + sq_b.max())
    idx_b = np.empty(na, dtype=np.intp)
    for s in range(0, na, MATCH_CHUNK):
        e = min(s + MATCH_CHUNK, na)
        g = desc_a[s:e] @ desc_b.T
        g *= -2.0
        g += sq_b
        g += sq_a[s:e, None]
        best = g.min(axis=1)
        candidates = g <= (best + window[s:e])[:, None]
        idx_b[s:e] = g.argmin(axis=1)
        for r in np.flatnonzero(candidates.sum(axis=1) != 1):
            cols = np.flatnonzero(candidates[r]) if np.isfinite(best[r] + window[s + r]) else np.arange(nb)
            idx_b[s + r] = cols[_differencing(desc_a[s + r], desc_b[cols]).argmin()]
    dist = _differencing(desc_a, desc_b[idx_b])
    pa = np.zeros((na, 3)) if points_a is None else np.asarray(points_a, dtype=np.float64)
    pb = np.zeros((nb, 3)) if points_b is None else np.asarray(points_b, dtype=np.float64)
    return MatchSet(np.arange(na), idx_b, dist, pa, pb)


def _nn_ap_one_direction(pts_a, desc_a, pts_b, desc_b, h, eps) -> float:
    m = match_nn(desc_a, desc_b, pts_a, pts_b)
    warped = geo.apply(h, np.asarray(pts_a, dtype=np.float64)[:, :2])
    matched_b = np.asarray(pts_b, dtype=np.float64)[m.idx_b, :2]
    tp = np.linalg.norm(warped - matched_b, axis=1) <= eps
    # recall base: a-points that have any geometric counterpart at all
    d_any = _nearest_distance(warped, np.asarray(pts_b, dtype=np.float64))
    possible = int((d_any <= eps).sum())
    if possible == 0:
        raise NoMatches("no geometric correspondence exists within eps")
    order = np.lexsort((m.idx_a, m.distance))  # ascending distance = descending confidence
    tp = tp[order]
    dist = m.distance[order]
    boundaries = np.nonzero(np.diff(dist))[0].tolist() + [len(dist) - 1]
    ks = np.asarray(boundaries)
    cum_tp = np.cumsum(tp)
    precision = cum_tp[ks] / (ks + 1.0)
    recall = np.minimum(cum_tp[ks] / float(possible), 1.0)
    return _pr_area(recall, precision)


def nn_map(pts_a, desc_a, pts_b, desc_b, h, eps) -> float:
    """PR area of nearest-neighbor matching swept over descriptor distance,
    averaged over both matching directions."""
    ab = _nn_ap_one_direction(pts_a, desc_a, pts_b, desc_b, h, eps)
    ba = _nn_ap_one_direction(pts_b, desc_b, pts_a, desc_a, geo.invert(h), eps)
    return 0.5 * (ab + ba)


def _mscore_one_direction(pts_a, desc_a, pts_b, desc_b, h, shape, eps) -> float:
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    hinv = geo.invert(h)
    cov_a = geo.in_bounds(geo.apply(h, pts_a[:, :2]), shape) if len(pts_a) else np.zeros(0, bool)
    cov_b = geo.in_bounds(geo.apply(hinv, pts_b[:, :2]), shape) if len(pts_b) else np.zeros(0, bool)
    n1, n2 = int(cov_a.sum()), int(cov_b.sum())
    if min(n1, n2) == 0:
        raise NoFeaturesInRegion("no features in the shared viewpoint region")
    pa = pts_a[cov_a]
    da = np.asarray(desc_a, dtype=np.float64)[cov_a]
    pb = pts_b[cov_b]
    db = np.asarray(desc_b, dtype=np.float64)[cov_b]
    m = match_nn(da, db, pa, pb)
    warped = geo.apply(h, pa[:, :2])
    good = np.linalg.norm(warped - pb[m.idx_b, :2], axis=1) <= eps
    return float(good.sum()) / float(min(n1, n2))


def matching_score(pts_a, desc_a, pts_b, desc_b, h, shape, eps) -> float:
    """Recovered correct matches over co-visible feature count, symmetric."""
    ab = _mscore_one_direction(pts_a, desc_a, pts_b, desc_b, h, shape, eps)
    ba = _mscore_one_direction(pts_b, desc_b, pts_a, desc_a, geo.invert(h), shape, eps)
    return 0.5 * (ab + ba)


# ---------------------------------------------------------------------------
# homography estimation


def _hartley_normalization(xy: np.ndarray) -> np.ndarray:
    """Similarity taking (..., N, 2) points to centroid 0, mean distance sqrt(2)."""
    centroid = xy.mean(axis=-2)
    dist = np.linalg.norm(xy - centroid[..., None, :], axis=-1).mean(axis=-1)
    scale = math.sqrt(2.0) / np.where(1e-12 > dist, 1e-12, dist)
    t = np.zeros(xy.shape[:-2] + (3, 3))
    t[..., 0, 0] = scale
    t[..., 1, 1] = scale
    t[..., 0, 2] = -scale * centroid[..., 0]
    t[..., 1, 2] = -scale * centroid[..., 1]
    t[..., 2, 2] = 1.0
    return t


def _dlt_system(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (..., 2N, 9) DLT matrices of normalized correspondences and their
    (..., 3, 3) Hartley transforms."""
    t1 = _hartley_normalization(src)
    t2 = _hartley_normalization(dst)
    s = geo.apply(t1, src)
    d = geo.apply(t2, dst)
    a = np.zeros(s.shape[:-2] + (2 * s.shape[-2], 9))
    a[..., 0::2, 0] = -s[..., 0]
    a[..., 0::2, 1] = -s[..., 1]
    a[..., 0::2, 2] = -1.0
    a[..., 0::2, 6] = s[..., 0] * d[..., 0]
    a[..., 0::2, 7] = s[..., 1] * d[..., 0]
    a[..., 0::2, 8] = d[..., 0]
    a[..., 1::2, 3] = -s[..., 0]
    a[..., 1::2, 4] = -s[..., 1]
    a[..., 1::2, 5] = -1.0
    a[..., 1::2, 6] = s[..., 0] * d[..., 1]
    a[..., 1::2, 7] = s[..., 1] * d[..., 1]
    a[..., 1::2, 8] = d[..., 1]
    return a, t1, t2


def _null_space(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right singular vector of the smallest singular value of each (..., 2N, 9)
    matrix, as (..., 3, 3), and the mask of matrices whose rank is 8."""
    _, sv, vt = np.linalg.svd(a)
    rank8 = ~(sv[..., -2] < 1e-10 * np.where(1.0 > sv[..., 0], 1.0, sv[..., 0]))
    return vt[..., -1, :].reshape(a.shape[:-2] + (3, 3)), rank8


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least-squares homography via the normalized direct linear transform."""
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if len(src) < 4 or len(src) != len(dst):
        raise InsufficientMatches("DLT needs at least 4 correspondences")
    a, t1, t2 = _dlt_system(src, dst)
    hn, rank8 = _null_space(a)
    if not rank8:
        raise DegenerateConfiguration("correspondences do not determine a homography")
    h = geo.invert(t2) @ hn @ t1
    return geo.normalize(h)


def _collinear_triple(xy: np.ndarray) -> np.ndarray:
    """Mask of the (..., 4, 2) samples with three points on a line, up to 1e-6 of their extent."""
    extent = np.abs(xy).max(axis=(-2, -1))
    bound = 1e-6 * np.where(extent > 1.0, extent, 1.0)
    found = np.zeros(xy.shape[:-2], dtype=bool)
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        v1 = xy[..., j, :] - xy[..., i, :]
        v2 = xy[..., k, :] - xy[..., i, :]
        found |= np.abs(v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]) <= bound
    return found


# Probability that the adaptive stop rule has drawn an all-inlier sample.
RANSAC_CONFIDENCE = 0.995


@dataclass(frozen=True)
class RansacParams:
    threshold: float = 3.0  # px, symmetric transfer error
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"RansacParams.max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError(f"RansacParams.threshold must be a finite number > 0, got {self.threshold}")


# Minimal samples drawn and evaluated together by estimate_homography.
RANSAC_BLOCK = 64

# Per-sample outcomes of _evaluate_samples.
_COLLINEAR, _FAILED, _SVD_FAILED, _SCORED = range(4)


def _evaluate_samples(a_xy: np.ndarray, b_xy: np.ndarray, picks: np.ndarray, threshold: float):
    """Outcome, inlier count and symmetric transfer errors of each (B, 4) minimal sample.

    Elementwise the same arithmetic as dlt_homography, geo.invert and geo.apply
    on one sample, so every value equals the per-sample one.  A sample is
    _COLLINEAR when three of its points are collinear in either image,
    _SVD_FAILED when its DLT matrix is not finite (np.linalg.svd raises on
    it), and _FAILED when its DLT is rank-deficient, its Hartley transform or
    its homography is singular, or a point maps to infinity either way.
    """
    src, dst = a_xy[picks], b_xy[picks]
    outcome = np.full(len(picks), _COLLINEAR)
    counts = np.zeros(len(picks), dtype=np.intp)
    errors = np.full((len(picks), len(a_xy)), np.inf)
    live = np.flatnonzero(~(_collinear_triple(src) | _collinear_triple(dst)))
    a, t1, t2 = _dlt_system(src[live], dst[live])
    finite = np.isfinite(a).all(axis=(-2, -1))
    outcome[live[~finite]] = _SVD_FAILED
    live, a, t1, t2 = live[finite], a[finite], t1[finite], t2[finite]
    hn, ok = _null_space(a)
    t2inv, ok2 = geo.invert_many(t2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = t2inv @ hn @ t1
        ok &= ok2 & ~(np.abs(h[:, 2, 2]) < geo.DET_EPS)
        h = h / h[:, 2:3, 2:3]
        # failed hypotheses may hold NaN or inf, and np.linalg.inv rejects a whole stack for one bad matrix
        hinv = np.full_like(h, np.nan)
        hinv[ok], ok[ok] = geo.invert_many(h[ok])
        fu, fv, fw = geo.project(h, a_xy)
        bu, bv, bw = geo.project(hinv, b_xy)
        ok &= ~(np.abs(fw) < geo.DET_EPS).any(axis=1) & ~(np.abs(bw) < geo.DET_EPS).any(axis=1)
        fx = fu / fw - b_xy[:, 0]
        fy = fv / fw - b_xy[:, 1]
        bx = bu / bw - a_xy[:, 0]
        by = bv / bw - a_xy[:, 1]
        err = 0.5 * (np.sqrt(fx * fx + fy * fy) + np.sqrt(bx * bx + by * by))
    outcome[live] = np.where(ok, _SCORED, _FAILED)
    errors[live] = err
    counts[live] = (err <= threshold).sum(axis=1)
    return outcome, counts, errors


def estimate_homography(matches: MatchSet, params: RansacParams = RansacParams()) -> np.ndarray:
    """RANSAC over 4-point minimal DLT samples, refit on the best inlier set.

    Inliers satisfy a symmetric transfer error <= threshold; the iteration
    count adapts from the running inlier ratio under RANSAC_CONFIDENCE,
    capped at max_iters.  Deterministic per seed.  Samples are
    drawn and evaluated in blocks of RANSAC_BLOCK and then taken one by one
    in draw order, so the model, the draws counted and the stop are those of
    drawing and testing one sample at a time; draws past the stop are unused.
    """
    a_xy = matches.points_a[np.asarray(matches.idx_a, dtype=int), :2].astype(np.float64)
    b_xy = matches.points_b[np.asarray(matches.idx_b, dtype=int), :2].astype(np.float64)
    n = len(a_xy)
    if n < 4:
        raise InsufficientMatches(f"need at least 4 matches, got {n}")
    rng = np.random.default_rng(params.seed)
    best_inliers = None
    best_score = (-1, np.inf)
    needed = params.max_iters
    attempts = 0
    i = 0
    while i < needed:
        picks = np.array([rng.choice(n, size=4, replace=False) for _ in range(min(RANSAC_BLOCK, needed - i))])
        outcome, counts, errors = _evaluate_samples(a_xy, b_xy, picks, params.threshold)
        for k in range(len(picks)):
            if i >= needed:
                break
            attempts += 1
            if attempts > 100 * params.max_iters:
                raise DegenerateConfiguration("could not draw a non-degenerate minimal sample")
            if outcome[k] == _COLLINEAR:
                continue
            i += 1
            if outcome[k] == _SVD_FAILED:
                raise np.linalg.LinAlgError("SVD did not converge")
            count = int(counts[k])
            if outcome[k] == _FAILED or count < best_score[0]:
                continue
            inliers = errors[k] <= params.threshold
            score = (count, float(errors[k][inliers].sum()) if count else np.inf)
            if count > best_score[0] or score[1] < best_score[1]:
                best_score = score
                best_inliers = inliers
                w = count / n
                if 0.0 < w < 1.0:
                    est = math.log(1.0 - RANSAC_CONFIDENCE) / math.log(1.0 - w**4)
                    needed = min(params.max_iters, max(i, int(math.ceil(est))))
                elif w >= 1.0:
                    needed = i
    if best_inliers is None or best_inliers.sum() < 4:
        raise DegenerateConfiguration("RANSAC found no usable model")
    return dlt_homography(a_xy[best_inliers], b_xy[best_inliers])


def corner_error(h_est: np.ndarray, h_gt: np.ndarray, shape) -> float:
    hgt, wdt = shape
    corners = np.array(
        [[0.0, 0.0], [wdt - 1.0, 0.0], [0.0, hgt - 1.0], [wdt - 1.0, hgt - 1.0]]
    )
    return float(np.linalg.norm(geo.apply(h_gt, corners) - geo.apply(h_est, corners), axis=1).mean())


# ---------------------------------------------------------------------------
# benchmark protocols


@dataclass(frozen=True)
class DetectorProtocol:
    n_points: int = 300  # 0 keeps every point
    eps: float = 3.0
    nms_radius: float = 4.0

    def __post_init__(self):
        if self.n_points < 0:
            raise ValueError(f"DetectorProtocol.n_points must be >= 0 (0 keeps every point), got {self.n_points}")


@dataclass(frozen=True)
class MatchingProtocol:
    n_points: int = 1000
    eps: float = 3.0
    eps_list: tuple = (1.0, 3.0, 5.0)
    ransac: RansacParams = RansacParams()

    def __post_init__(self):
        if self.n_points < 0:
            raise ValueError(f"MatchingProtocol.n_points must be >= 0 (0 keeps every point), got {self.n_points}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"MatchingProtocol.eps must be a finite number > 0, got {self.eps}")
        for e in self.eps_list:
            if not (math.isfinite(e) and e > 0.0):
                raise ValueError(f"MatchingProtocol.eps_list entries must be finite numbers > 0, got {e}")


@dataclass
class EvalReport:
    repeatability: float = 0.0
    mle: float = 0.0
    nn_map: float = 0.0
    matching_score: float = 0.0
    correctness: dict = field(default_factory=dict)  # eps -> rate
    counts: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)


def select_points(points: np.ndarray, protocol: DetectorProtocol) -> np.ndarray:
    """Uniform selection stage: greedy NMS then strongest n_points."""
    pts = nms(np.asarray(points, dtype=np.float64).reshape(-1, 3), protocol.nms_radius)
    if protocol.n_points and len(pts) > protocol.n_points:
        pts = pts[: protocol.n_points]
    return pts


def random_points(shape, n: int, rng: np.random.Generator) -> np.ndarray:
    hgt, wdt = shape
    return np.stack(
        [rng.uniform(0, wdt - 1, n), rng.uniform(0, hgt - 1, n), rng.random(n)], axis=1
    )


def pair_mle(pts1, pts2, h, eps) -> float | None:
    """Mean transported distance over the repeatable points of a pair."""
    if len(pts1) == 0 or len(pts2) == 0:
        return None
    warped = geo.apply(h, np.asarray(pts1, dtype=np.float64)[:, :2])
    d = _nearest_distance(warped, np.asarray(pts2, dtype=np.float64))
    d = d[d <= eps]
    return float(d.mean()) if len(d) else None


def run_detector_benchmark(detectors: dict, pairs, protocol: DetectorProtocol = DetectorProtocol(),
                           include_random: bool = True, seed: int = 0) -> dict:
    """Repeatability table over warped pairs.

    ``detectors`` maps name -> callable(image) -> candidate (N, 3) points;
    the selection stage (NMS + top-K) is applied uniformly.  A uniform
    Random baseline is appended unless disabled.
    """
    detectors = dict(detectors)
    if include_random:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xAA)))
        detectors["random"] = lambda img: random_points(img.shape, protocol.n_points, rng)
    out = {}
    for name, det in detectors.items():
        reps, mles, rows = [], [], []
        for idx, (img_a, img_b, h) in enumerate(pairs):
            p1 = select_points(det(img_a), protocol)
            p2 = select_points(det(img_b), protocol)
            rep = repeatability(p1, p2, h, img_a.shape, protocol.eps)
            mle = pair_mle(p1, p2, h, protocol.eps)
            reps.append(rep)
            if mle is not None:
                mles.append(mle)
            rows.append((idx, rep, mle if mle is not None else float("nan"), len(p1), len(p2)))
        report = EvalReport(
            repeatability=float(np.mean(reps)) if reps else 0.0,
            mle=float(np.mean(mles)) if mles else float("nan"),
            counts={"pairs": len(reps), "mle_defined": len(mles)},
            rows=rows,
        )
        out[name] = report
    return out


def run_matching_benchmark(system, pairs, protocol: MatchingProtocol = MatchingProtocol()) -> EvalReport:
    """Full detect -> describe -> match -> estimate pipeline over pairs.

    ``system`` is a callable(image) -> (selected (N,3) points, (N,D)
    descriptors).  Reports repeatability, MLE, NN mAP, matching score, and
    homography correctness at each eps in the protocol.
    """
    reps, mles, maps, scores = [], [], [], []
    correct_counts = {e: 0 for e in protocol.eps_list}
    estimated = 0
    rows = []
    flags = {"no_matches": 0, "no_features": 0, "estimation_failed": 0}
    for idx, (img_a, img_b, h) in enumerate(pairs):
        pts_a, desc_a = system(img_a)
        pts_b, desc_b = system(img_b)
        shape = img_a.shape
        rep = repeatability(pts_a, pts_b, h, shape, protocol.eps)
        reps.append(rep)
        mle = pair_mle(pts_a, pts_b, h, protocol.eps)
        if mle is not None:
            mles.append(mle)
        try:
            maps.append(nn_map(pts_a, desc_a, pts_b, desc_b, h, protocol.eps))
        except (NoMatches, EmptySet):
            flags["no_matches"] += 1
        try:
            scores.append(matching_score(pts_a, desc_a, pts_b, desc_b, h, shape, protocol.eps))
        except (NoFeaturesInRegion, EmptySet):
            flags["no_features"] += 1
        err = float("nan")
        try:
            m = match_nn(desc_a, desc_b, pts_a, pts_b)
            h_est = estimate_homography(m, protocol.ransac)
            estimated += 1
            err = corner_error(h_est, h, shape)
            for e in protocol.eps_list:
                if err <= e:
                    correct_counts[e] += 1
        except (InsufficientMatches, DegenerateConfiguration, EmptySet,
                geo.Singular, geo.DegenerateProjection, np.linalg.LinAlgError):
            flags["estimation_failed"] += 1
        rows.append((idx, rep, mle if mle is not None else float("nan"), err))
    n = max(1, len(pairs))
    return EvalReport(
        repeatability=float(np.mean(reps)) if reps else 0.0,
        mle=float(np.mean(mles)) if mles else float("nan"),
        nn_map=float(np.mean(maps)) if maps else 0.0,
        matching_score=float(np.mean(scores)) if scores else 0.0,
        correctness={e: correct_counts[e] / n for e in protocol.eps_list},
        counts={"pairs": len(pairs), "estimated": estimated, **flags},
        rows=rows,
    )


def detector_gt_metrics(detector, samples, eps: float = 3.0) -> tuple[float, float, int]:
    """(mAP, mean localization error, defined count) against rendered truth.

    Samples with empty ground truth are excluded from both averages and
    reported through the returned count.
    """
    aps, les = [], []
    defined = 0
    for sample in samples:
        if len(sample.points) == 0:
            continue
        defined += 1
        dets = select_points(detector(sample.image), DetectorProtocol())
        aps.append(average_precision(dets, sample.points, eps))
        try:
            les.append(localization_error(dets, sample.points, eps))
        except NoCorrectDetections:
            pass
    map_value = float(np.mean(aps)) if aps else 0.0
    mle_value = float(np.mean(les)) if les else float("nan")
    return map_value, mle_value, defined


def warped_pair_dataset(images, ranges: geo.HomographyRanges, seed: int = 0):
    """(image, warped image, pixel-frame homography) triples for benchmarks."""
    pairs = []
    for i, img in enumerate(images):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBB, i)))
        h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
        warped, _ = geo.warp_image(img, h)
        pairs.append((img, warped, h))
    return pairs


# ---------------------------------------------------------------------------
# report output


def write_detector_report_csv(path, reports: dict) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["detector", "pair", "repeatability", "mle", "n1", "n2"])
        for name, rep in reports.items():
            for idx, r, mle, n1, n2 in rep.rows:
                w.writerow([name, idx, f"{r:.6f}", f"{mle:.6f}", n1, n2])
            w.writerow([name, "summary", f"{rep.repeatability:.6f}", f"{rep.mle:.6f}",
                        rep.counts.get("pairs", 0), ""])


# Pair counts of run_matching_benchmark, in report column order.
MATCHING_COUNTS = ("estimated", "no_matches", "no_features", "estimation_failed")


def write_matching_report_csv(path, report: EvalReport) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        eps_cols = [f"correct_eps{e:g}" for e in report.correctness]
        summary_cols = ["nn_map", "matching_score", *MATCHING_COUNTS]
        w.writerow(["pair", "repeatability", "mle", "corner_error"] + eps_cols + summary_cols)
        for idx, rep, mle, err in report.rows:
            w.writerow([idx, f"{rep:.6f}", f"{mle:.6f}", f"{err:.6f}"] + [""] * (len(eps_cols) + len(summary_cols)))
        w.writerow(
            ["summary", f"{report.repeatability:.6f}", f"{report.mle:.6f}", ""]
            + [f"{v:.6f}" for v in report.correctness.values()]
            + [f"{report.nn_map:.6f}", f"{report.matching_score:.6f}"]
            + [report.counts.get(k, 0) for k in MATCHING_COUNTS]
        )


def format_detector_table(reports: dict) -> str:
    lines = [f"{'detector':<14} {'repeatability':>14} {'mle':>8} {'pairs':>6}"]
    for name, rep in reports.items():
        lines.append(f"{name:<14} {rep.repeatability:>14.3f} {rep.mle:>8.3f} {rep.counts.get('pairs', 0):>6}")
    return "\n".join(lines)


def format_matching_table(report: EvalReport) -> str:
    lines = [
        f"{'metric':<18} {'value':>10}",
        f"{'repeatability':<18} {report.repeatability:>10.3f}",
        f"{'mle':<18} {report.mle:>10.3f}",
        f"{'nn_map':<18} {report.nn_map:>10.3f}",
        f"{'matching_score':<18} {report.matching_score:>10.3f}",
    ]
    for e, v in report.correctness.items():
        lines.append(f"{'correct@' + format(e, 'g'):<18} {v:>10.3f}")
    for k in MATCHING_COUNTS:
        lines.append(f"{k:<18} {report.counts.get(k, 0):>10d}")
    return "\n".join(lines)
