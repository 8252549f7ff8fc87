"""Metric semantics plus exact equivalence against O(n^2) oracles."""

import math
import os
import warnings

import numpy as np
import pytest

from pointpipe import classical as cl
from pointpipe import cli
from pointpipe import evalsuite as ev
from pointpipe import geometry as geo
from pointpipe import synthdata as sd

# ---------------------------------------------------------------------------
# independent brute-force oracles


def oracle_ap(dets, gt, eps):
    if len(gt) == 0 or len(dets) == 0:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], dets[i][1], dets[i][0]))
    taken = [False] * len(gt)
    tp = []
    for i in order:
        best, bestd = -1, math.inf
        for j in range(len(gt)):
            if taken[j]:
                continue
            d = math.sqrt((gt[j][0] - dets[i][0]) ** 2 + (gt[j][1] - dets[i][1]) ** 2)
            if d < bestd:
                best, bestd = j, d
        if best >= 0 and bestd <= eps:
            taken[best] = True
            tp.append(True)
        else:
            tp.append(False)
    confs = [dets[i][2] for i in order]
    points = []
    cum = 0
    for k in range(len(order)):
        cum += tp[k]
        if k == len(order) - 1 or confs[k + 1] != confs[k]:
            points.append((cum / len(gt), cum / (k + 1)))
    area = 0.0
    prev_r, prev_p = 0.0, points[0][1]
    for r, p in points:
        area += (r - prev_r) * (p + prev_p) / 2.0
        prev_r, prev_p = r, p
    return area


def oracle_mle(dets, gt, eps):
    vals = []
    for d in dets:
        best = min(
            math.sqrt((g[0] - d[0]) ** 2 + (g[1] - d[1]) ** 2) for g in gt
        )
        if best <= eps:
            vals.append(best)
    return sum(vals) / len(vals)


def oracle_repeatability(pts1, pts2, h, shape, eps):
    hgt, wdt = shape
    hinv = np.linalg.inv(h)

    def transport(m, p):
        v = m @ np.array([p[0], p[1], 1.0])
        return v[0] / v[2], v[1] / v[2]

    def inside(p):
        return 0 <= p[0] <= wdt - 1 and 0 <= p[1] <= hgt - 1

    k1 = [p for p in pts1 if inside(transport(h, p))]
    k2 = [p for p in pts2 if inside(transport(hinv, p))]
    if not k1 and not k2:
        return 0.0
    hits = 0
    for p in k1:
        q = transport(h, p)
        if k2 and min(math.dist(q, (r[0], r[1])) for r in k2) <= eps:
            hits += 1
    for p in k2:
        q = transport(hinv, p)
        if k1 and min(math.dist(q, (r[0], r[1])) for r in k1) <= eps:
            hits += 1
    return hits / (len(k1) + len(k2))


def oracle_match_nn(da, db):
    out = []
    for i in range(len(da)):
        best, bestd = 0, math.inf
        for j in range(len(db)):
            d = math.sqrt(sum((da[i][k] - db[j][k]) ** 2 for k in range(len(da[i]))))
            if d < bestd:
                best, bestd = j, d
        out.append((best, bestd))
    return out


def oracle_nn_ap_dir(pts_a, desc_a, pts_b, desc_b, h, eps):
    matches = oracle_match_nn(desc_a, desc_b)

    def transport(p):
        v = h @ np.array([p[0], p[1], 1.0])
        return v[0] / v[2], v[1] / v[2]

    possible = 0
    for p in pts_a:
        q = transport(p)
        if min(math.dist(q, (r[0], r[1])) for r in pts_b) <= eps:
            possible += 1
    order = sorted(range(len(pts_a)), key=lambda i: (matches[i][1], i))
    tp = []
    for i in order:
        q = transport(pts_a[i])
        j = matches[i][0]
        tp.append(math.dist(q, (pts_b[j][0], pts_b[j][1])) <= eps)
    dists = [matches[i][1] for i in order]
    points = []
    cum = 0
    for k in range(len(order)):
        cum += tp[k]
        if k == len(order) - 1 or dists[k + 1] != dists[k]:
            points.append((min(cum / possible, 1.0), cum / (k + 1)))
    area = 0.0
    prev_r, prev_p = 0.0, points[0][1]
    for r, p in points:
        area += (r - prev_r) * (p + prev_p) / 2.0
        prev_r, prev_p = r, p
    return area


def oracle_matching_score_dir(pts_a, desc_a, pts_b, desc_b, h, shape, eps):
    hgt, wdt = shape
    hinv = np.linalg.inv(h)

    def transport(m, p):
        v = m @ np.array([p[0], p[1], 1.0])
        return v[0] / v[2], v[1] / v[2]

    def inside(p):
        return 0 <= p[0] <= wdt - 1 and 0 <= p[1] <= hgt - 1

    ia = [i for i in range(len(pts_a)) if inside(transport(h, pts_a[i]))]
    ib = [j for j in range(len(pts_b)) if inside(transport(hinv, pts_b[j]))]
    matches = oracle_match_nn([desc_a[i] for i in ia], [desc_b[j] for j in ib])
    good = 0
    for k, i in enumerate(ia):
        q = transport(h, pts_a[i])
        j = ib[matches[k][0]]
        if math.dist(q, (pts_b[j][0], pts_b[j][1])) <= eps:
            good += 1
    return good / min(len(ia), len(ib))


# ---------------------------------------------------------------------------
# the per-pair and per-hypothesis implementations that match_nn,
# estimate_homography and _nearest_distance replaced; the block versions must
# return the same bytes


def match_nn_differencing(desc_a, desc_b, chunk=16):
    """(idx_b, distance) by differencing every pair, lowest index on ties."""
    desc_a = np.atleast_2d(np.asarray(desc_a, dtype=np.float64))
    desc_b = np.atleast_2d(np.asarray(desc_b, dtype=np.float64))
    d = np.empty((len(desc_a), len(desc_b)))
    for s in range(0, len(desc_a), chunk):
        diff = desc_a[s:s + chunk, None, :] - desc_b[None, :, :]
        d[s:s + chunk] = np.sqrt((diff * diff).sum(axis=2))
    idx_b = d.argmin(axis=1)
    return idx_b, d[np.arange(len(desc_a)), idx_b]


def nearest_distance_dense(a, b):
    """Distance to the nearest point of b through the dense (N, M, 2) norm."""
    return np.linalg.norm(a[:, None, :2] - b[None, :, :2], axis=2).min(axis=1)


def apply_one(h, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    w = h[2, 0] * pts[:, 0] + h[2, 1] * pts[:, 1] + h[2, 2]
    if np.any(np.abs(w) < geo.DET_EPS):
        raise geo.DegenerateProjection("homogeneous coordinate ~ 0")
    x = (h[0, 0] * pts[:, 0] + h[0, 1] * pts[:, 1] + h[0, 2]) / w
    y = (h[1, 0] * pts[:, 0] + h[1, 1] * pts[:, 1] + h[1, 2]) / w
    return np.stack([x, y], axis=1)


def hartley_one(xy):
    centroid = xy.mean(axis=0)
    dist = np.linalg.norm(xy - centroid, axis=1).mean()
    scale = math.sqrt(2.0) / max(dist, 1e-12)
    return np.array([[scale, 0.0, -scale * centroid[0]], [0.0, scale, -scale * centroid[1]], [0.0, 0.0, 1.0]])


def dlt_one(src, dst):
    t1, t2 = hartley_one(src), hartley_one(dst)
    s, d = apply_one(t1, src), apply_one(t2, dst)
    a = np.zeros((2 * len(s), 9))
    a[0::2, 0], a[0::2, 1], a[0::2, 2] = -s[:, 0], -s[:, 1], -1.0
    a[0::2, 6], a[0::2, 7], a[0::2, 8] = s[:, 0] * d[:, 0], s[:, 1] * d[:, 0], d[:, 0]
    a[1::2, 3], a[1::2, 4], a[1::2, 5] = -s[:, 0], -s[:, 1], -1.0
    a[1::2, 6], a[1::2, 7], a[1::2, 8] = s[:, 0] * d[:, 1], s[:, 1] * d[:, 1], d[:, 1]
    _, sv, vt = np.linalg.svd(a)
    if sv[-2] < 1e-10 * max(sv[0], 1.0):
        raise ev.DegenerateConfiguration("correspondences do not determine a homography")
    return geo.normalize(geo.invert(t2) @ vt[-1].reshape(3, 3) @ t1)


def collinear_one(xy, tol=1e-6):
    for i in range(len(xy)):
        for j in range(i + 1, len(xy)):
            for k in range(j + 1, len(xy)):
                v1 = xy[j] - xy[i]
                v2 = xy[k] - xy[i]
                if abs(v1[0] * v2[1] - v1[1] * v2[0]) <= tol * max(1.0, np.abs(xy).max()):
                    return True
    return False


def estimate_homography_loop(matches, params, stats=None):
    """RANSAC drawing and testing one minimal sample at a time.

    ``stats``, when given, receives the hypotheses discarded per exception
    type and the number of hypotheses tested ("iterations").
    """
    stats = {} if stats is None else stats
    a_xy = matches.points_a[matches.idx_a, :2].astype(np.float64)
    b_xy = matches.points_b[matches.idx_b, :2].astype(np.float64)
    n = len(a_xy)
    rng = np.random.default_rng(params.seed)
    best_inliers, best_score = None, (-1, np.inf)
    needed, attempts, i = params.max_iters, 0, 0
    while i < needed:
        attempts += 1
        if attempts > 100 * params.max_iters:
            raise ev.DegenerateConfiguration("could not draw a non-degenerate minimal sample")
        pick = rng.choice(n, size=4, replace=False)
        if collinear_one(a_xy[pick]) or collinear_one(b_xy[pick]):
            continue
        i += 1
        try:
            h = dlt_one(a_xy[pick], b_xy[pick])
            hinv = geo.invert(h)
            fwd = np.linalg.norm(apply_one(h, a_xy) - b_xy, axis=1)
            err = 0.5 * (fwd + np.linalg.norm(apply_one(hinv, b_xy) - a_xy, axis=1))
        except (ev.DegenerateConfiguration, geo.Singular, geo.DegenerateProjection) as exc:
            stats[type(exc).__name__] = stats.get(type(exc).__name__, 0) + 1
            continue
        finally:
            stats["iterations"] = i
        inliers = err <= params.threshold
        count = int(inliers.sum())
        score = (count, float(err[inliers].sum()) if count else np.inf)
        if count > best_score[0] or (count == best_score[0] and score[1] < best_score[1]):
            best_score, best_inliers = score, inliers
            w = count / n
            if 0.0 < w < 1.0:
                est = math.log(max(1e-12, 1.0 - ev.RANSAC_CONFIDENCE)) / math.log(1.0 - w**4)
                needed = min(params.max_iters, max(i, int(math.ceil(est))))
            elif w >= 1.0:
                needed = i
    if best_inliers is None or best_inliers.sum() < 4:
        raise ev.DegenerateConfiguration("RANSAC found no usable model")
    return dlt_one(a_xy[best_inliers], b_xy[best_inliers])


def outcome(fn, *args):
    """The returned bytes, or the raised exception's type and message."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:  # the comparison covers failures too
        return type(exc).__name__, str(exc)


def random_instance(rng, n_max=50, shape=(64, 64)):
    n1 = int(rng.integers(1, n_max + 1))
    n2 = int(rng.integers(1, n_max + 1))
    p1 = np.stack([rng.uniform(0, shape[1] - 1, n1), rng.uniform(0, shape[0] - 1, n1), rng.random(n1)], axis=1)
    p2 = np.stack([rng.uniform(0, shape[1] - 1, n2), rng.uniform(0, shape[0] - 1, n2), rng.random(n2)], axis=1)
    return p1, p2


# ---------------------------------------------------------------------------


class TestCorrect:
    """A detection is correct within eps of some ground truth, boundary inclusive."""

    origin = np.array([[0.0, 0.0, 1.0]])

    def test_on_gt_point(self):
        assert ev.localization_error(np.array([[3.0, 4.0, 1.0]]), np.array([[3.0, 4.0, 1.0]]), 3.0) == 0.0

    def test_boundary_inclusive(self):
        assert ev.localization_error(self.origin, np.array([[3.0, 0.0]]), 3.0) == 3.0

    def test_three_four_five(self):
        with pytest.raises(ev.NoCorrectDetections):
            ev.localization_error(self.origin, np.array([[3.0, 4.0]]), 4.0)
        assert ev.localization_error(self.origin, np.array([[3.0, 4.0]]), 5.0) == 5.0

    def test_empty_gt_false(self):
        with pytest.raises(ev.NoCorrectDetections):
            ev.localization_error(self.origin, np.zeros((0, 3)), 10.0)


class TestAveragePrecision:
    def test_perfect(self):
        gt = np.array([[5.0, 5.0], [20.0, 20.0]])
        dets = np.array([[5.0, 5.0, 1.0], [20.0, 20.0, 1.0]])
        assert ev.average_precision(dets, gt, 3.0) == 1.0

    def test_no_detections(self):
        assert ev.average_precision(np.zeros((0, 3)), np.array([[1.0, 1.0]]), 3.0) == 0.0

    def test_empty_gt_flagged_zero(self):
        assert ev.average_precision(np.array([[1.0, 1.0, 1.0]]), np.zeros((0, 2)), 3.0) == 0.0

    def test_top_two_correct_third_false(self):
        gt = np.array([[10.0, 10.0], [40.0, 40.0]])
        dets = np.array([[10.0, 10.0, 0.9], [40.0, 40.0, 0.8], [25.0, 25.0, 0.1]])
        assert ev.average_precision(dets, gt, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dets, gtp = random_instance(rng)
            last = None
            for eps in (8.0, 5.0, 3.0, 1.0):
                ap = ev.average_precision(dets, gtp[:, :2], eps)
                if last is not None:
                    assert ap <= last + 1e-12
                last = ap

    def test_equals_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dets, gtp = random_instance(rng)
            got = ev.average_precision(dets, gtp[:, :2], 3.0)
            want = oracle_ap(dets.tolist(), gtp[:, :2].tolist(), 3.0)
            assert abs(got - want) <= 1e-12


class TestLocalizationError:
    def test_exact_hits(self):
        gt = np.array([[5.0, 5.0]])
        assert ev.localization_error(np.array([[5.0, 5.0, 1.0]]), gt, 3.0) == 0.0

    def test_single_offset(self):
        gt = np.array([[5.0, 5.0]])
        assert ev.localization_error(np.array([[6.0, 5.0, 1.0]]), gt, 3.0) == pytest.approx(1.0)

    def test_mean_of_correct_only(self):
        gt = np.array([[0.0, 0.0], [50.0, 0.0]])
        dets = np.array([[1.0, 0.0, 0.9], [50.0, 2.0, 0.8], [25.0, 25.0, 0.5]])
        assert ev.localization_error(dets, gt, 3.0) == pytest.approx(1.5)

    def test_no_correct_raises(self):
        with pytest.raises(ev.NoCorrectDetections):
            ev.localization_error(np.array([[50.0, 50.0, 1.0]]), np.array([[0.0, 0.0]]), 3.0)

    def test_equals_oracle(self):
        rng = np.random.default_rng(2)
        count = 0
        for _ in range(200):
            dets, gtp = random_instance(rng)
            try:
                got = ev.localization_error(dets, gtp[:, :2], 5.0)
            except ev.NoCorrectDetections:
                continue
            count += 1
            assert abs(got - oracle_mle(dets.tolist(), gtp[:, :2].tolist(), 5.0)) <= 1e-12
        assert count > 50


class TestRepeatability:
    def test_identity_same_sets(self):
        pts = np.array([[1.0, 1.0, 1.0], [10.0, 10.0, 1.0]])
        assert ev.repeatability(pts, pts, geo.identity(), (64, 64), 3.0) == 1.0

    def test_half_example(self):
        pts1 = np.array([[0.0, 0.0, 1.0], [10.0, 10.0, 1.0]])
        pts2 = np.array([[0.0, 0.0, 1.0], [50.0, 50.0, 1.0]])
        got = ev.repeatability(pts1, pts2, geo.identity(), (64, 64), 3.0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_equals_oracle(self):
        rng = np.random.default_rng(3)
        ranges = geo.ranges_preset("training")
        for _ in range(200):
            p1, p2 = random_instance(rng)
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), (64, 64))
            got = ev.repeatability(p1, p2, h, (64, 64), 3.0)
            want = oracle_repeatability(p1[:, :2].tolist(), p2[:, :2].tolist(), h, (64, 64), 3.0)
            assert abs(got - want) <= 1e-12

    def test_symmetric_under_inversion(self):
        rng = np.random.default_rng(4)
        ranges = geo.ranges_preset("training")
        for _ in range(50):
            p1, p2 = random_instance(rng)
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), (64, 64))
            a = ev.repeatability(p1, p2, h, (64, 64), 3.0)
            b = ev.repeatability(p2, p1, geo.invert(h), (64, 64), 3.0)
            assert abs(a - b) <= 1e-12

    def test_both_empty_zero(self):
        empty = np.zeros((0, 3))
        assert ev.repeatability(empty, empty, geo.identity(), (32, 32), 3.0) == 0.0


class TestMatchNN:
    def test_identical_single(self):
        m = ev.match_nn(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert m.idx_b[0] == 0 and m.distance[0] == 0.0

    def test_orthogonal_unit_distance(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = ev.match_nn(a, b)
        assert m.idx_b[0] == 1
        m2 = ev.match_nn(a, b[:1])
        assert m2.distance[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_empty_b_raises(self):
        with pytest.raises(ev.EmptySet):
            ev.match_nn(np.array([[1.0, 0.0]]), np.zeros((0, 2)))

    def test_ties_lowest_index(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, -1.0]])
        m = ev.match_nn(a, b)
        assert m.idx_b[0] == 0

    @staticmethod
    def assert_equals_differencing(da, db):
        m = ev.match_nn(da, db)
        idx_b, dist = match_nn_differencing(da, db)
        np.testing.assert_array_equal(m.idx_b, idx_b)
        assert m.distance.tobytes() == dist.tobytes()

    def test_exact_ties_and_duplicate_rows(self):
        rng = np.random.default_rng(15)
        db = rng.normal(size=(40, 8))[rng.integers(0, 40, 120)]
        da = np.vstack([db[rng.integers(0, 120, 50)], rng.normal(size=(50, 8))])
        self.assert_equals_differencing(da, db)
        lattice = rng.integers(-2, 3, (350, 3)).astype(np.float64)
        self.assert_equals_differencing(lattice[:200], lattice[200:])

    @pytest.mark.parametrize("dim", [2, 32, 256])
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_near_ties_below_roundoff(self, dim, scale):
        # a +- r are equally far from a in exact arithmetic: only rounding orders them
        rng = np.random.default_rng(dim)
        da = rng.normal(size=(120, dim))
        da /= np.linalg.norm(da, axis=1, keepdims=True)
        r = 0.1 * rng.normal(size=da.shape) / math.sqrt(dim)
        db = np.vstack([da + r, da - r, rng.normal(size=(60, dim))])[rng.permutation(300)]
        self.assert_equals_differencing(scale * da, scale * db)

    def test_zero_rows_in_a(self):
        rng = np.random.default_rng(16)
        da = rng.normal(size=(100, 32))
        da[::3] = 0.0
        db = rng.normal(size=(90, 32))
        db /= np.linalg.norm(db, axis=1, keepdims=True)  # every row ~1 from a zero row
        self.assert_equals_differencing(da, db)

    def test_large_set(self):
        rng = np.random.default_rng(17)
        da = rng.normal(size=(1000, 32))
        db = np.vstack([da[:600] + 1e-3 * rng.normal(size=(600, 32)), rng.normal(size=(600, 32))])
        self.assert_equals_differencing(da / np.linalg.norm(da, axis=1, keepdims=True),
                                        db / np.linalg.norm(db, axis=1, keepdims=True))

    def test_equals_oracle(self):
        rng = np.random.default_rng(5)
        da = rng.normal(size=(100, 8))
        da /= np.linalg.norm(da, axis=1, keepdims=True)
        db = rng.normal(size=(80, 8))
        db /= np.linalg.norm(db, axis=1, keepdims=True)
        m = ev.match_nn(da, db)
        want = oracle_match_nn(da.tolist(), db.tolist())
        for i, (j, d) in enumerate(want):
            assert m.idx_b[i] == j
            assert abs(m.distance[i] - d) <= 1e-9


class TestNearestDistance:
    @staticmethod
    def assert_equals_dense(a, b):
        with np.errstate(invalid="ignore"):  # inf - inf
            got = ev._nearest_distance(a, b)
            want = nearest_distance_dense(a, b)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_ties_duplicates_and_exact_eps(self):
        lattice = np.array([[x, y, 1.0] for x in range(-3, 4) for y in range(-3, 4)], dtype=np.float64)
        b = np.vstack([lattice, lattice[::2]])  # duplicate points
        a = np.vstack([lattice + 0.5, lattice, [[3.0, 4.0, 0.0]], [[0.1, 0.2, 0.0]]])  # ties at 0.5, 0 and 1
        self.assert_equals_dense(a, b)
        d = ev._nearest_distance(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0, 1.0], [6.0, 8.0, 1.0]]))
        assert d[0] == 5.0  # exactly eps = 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_either_set(self, bad):
        rng = np.random.default_rng(21)
        a = rng.uniform(0, 50, (40, 3))
        b = rng.uniform(0, 50, (30, 3))
        a[3, 0] = bad
        a[7, 1] = bad
        b[5, 1] = bad
        b[11, 0] = bad
        self.assert_equals_dense(a, b)
        self.assert_equals_dense(b, a)
        b_all = np.full((4, 3), bad)
        self.assert_equals_dense(a, b_all)

    @pytest.mark.parametrize("n, m", [(1, 300), (300, 1), (1, 1)])
    def test_single_point_sets(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        self.assert_equals_dense(rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (m, 3)))

    @pytest.mark.parametrize("n", [ev.MATCH_CHUNK - 1, ev.MATCH_CHUNK, ev.MATCH_CHUNK + 1, 3 * ev.MATCH_CHUNK + 17])
    def test_across_block_borders(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(0, 320, (n, 3))
        b = np.vstack([a[rng.integers(0, n, n // 2)] + rng.normal(0, 2, (n // 2, 3)), rng.uniform(0, 320, (500, 3))])
        self.assert_equals_dense(a, b)


def one_hot(i, d=16):
    v = np.zeros(d)
    v[i] = 1.0
    return v


class TestNnMap:
    def make_perfect(self, n=8):
        pts = np.stack([np.linspace(5, 55, n), np.linspace(5, 55, n), np.ones(n)], axis=1)
        desc = np.stack([one_hot(i) for i in range(n)])
        return pts, desc

    def test_perfect_descriptors(self):
        pts, desc = self.make_perfect()
        got = ev.nn_map(pts, desc, pts, desc, geo.identity(), 3.0)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_random_descriptors_near_chance(self):
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(100):
            n = 20
            pts_a = np.stack([rng.uniform(0, 63, n), rng.uniform(0, 63, n), np.ones(n)], axis=1)
            pts_b = np.stack([rng.uniform(0, 63, n), rng.uniform(0, 63, n), np.ones(n)], axis=1)
            da = rng.normal(size=(n, 16))
            da /= np.linalg.norm(da, axis=1, keepdims=True)
            db = rng.normal(size=(n, 16))
            db /= np.linalg.norm(db, axis=1, keepdims=True)
            try:
                vals.append(ev.nn_map(pts_a, da, pts_b, db, geo.identity(), 3.0))
            except ev.NoMatches:
                pass
        assert np.mean(vals) < 0.2

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        n = 15
        pts_a = np.stack([rng.uniform(0, 63, n), rng.uniform(0, 63, n), np.ones(n)], axis=1)
        pts_b = pts_a + rng.normal(0, 1, pts_a.shape)
        da = rng.normal(size=(n, 8))
        db = da + rng.normal(0, 0.1, da.shape)
        h = geo.identity()
        ab = ev.nn_map(pts_a, da, pts_b, db, h, 3.0)
        ba = ev.nn_map(pts_b, db, pts_a, da, geo.invert(h), 3.0)
        assert abs(ab - ba) < 1e-12

    def test_equals_oracle(self):
        rng = np.random.default_rng(8)
        ranges = geo.ranges_preset("training")
        checked = 0
        for _ in range(200):
            n1 = int(rng.integers(2, 30))
            n2 = int(rng.integers(2, 30))
            pts_a = np.stack([rng.uniform(5, 58, n1), rng.uniform(5, 58, n1), np.ones(n1)], axis=1)
            pts_b = np.stack([rng.uniform(5, 58, n2), rng.uniform(5, 58, n2), np.ones(n2)], axis=1)
            da = rng.normal(size=(n1, 6))
            db = rng.normal(size=(n2, 6))
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), (64, 64))
            try:
                got = ev._nn_ap_one_direction(pts_a, da, pts_b, db, h, 3.0)
            except ev.NoMatches:
                continue
            want = oracle_nn_ap_dir(pts_a[:, :2].tolist(), da.tolist(), pts_b[:, :2].tolist(), db.tolist(), h, 3.0)
            assert abs(got - want) <= 1e-12
            checked += 1
        assert checked > 50


class TestMatchingScore:
    def test_perfect_pipeline(self):
        n = 10
        pts = np.stack([np.linspace(5, 55, n), np.linspace(5, 55, n), np.ones(n)], axis=1)
        desc = np.stack([one_hot(i) for i in range(n)])
        got = ev.matching_score(pts, desc, pts, desc, geo.identity(), (64, 64), 3.0)
        assert got == 1.0

    def test_adversarial_permutation(self):
        n = 6
        pts = np.stack([np.linspace(5, 55, n), np.linspace(5, 55, n), np.ones(n)], axis=1)
        desc_a = np.stack([one_hot(i) for i in range(n)])
        desc_b = np.stack([one_hot((i + 3) % n) for i in range(n)])
        got = ev.matching_score(pts, desc_a, pts, desc_b, geo.identity(), (64, 64), 3.0)
        assert got == 0.0

    def test_half_correct(self):
        n = 10
        pts = np.stack([np.linspace(5, 55, n), np.linspace(5, 55, n), np.ones(n)], axis=1)
        desc_a = np.stack([one_hot(i) for i in range(n)])
        perm = list(range(5)) + [5 + ((i + 2) % 5) for i in range(5)]
        desc_b = np.stack([one_hot(perm[i]) for i in range(n)])
        got = ev.matching_score(pts, desc_a, pts, desc_b, geo.identity(), (64, 64), 3.0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_no_features_raises(self):
        pts = np.array([[500.0, 500.0, 1.0]])
        with pytest.raises(ev.NoFeaturesInRegion):
            ev.matching_score(pts, np.array([[1.0]]), pts, np.array([[1.0]]), geo.identity(), (64, 64), 3.0)

    def test_equals_oracle(self):
        rng = np.random.default_rng(9)
        ranges = geo.ranges_preset("training")
        checked = 0
        for _ in range(200):
            n1 = int(rng.integers(3, 30))
            n2 = int(rng.integers(3, 30))
            pts_a = np.stack([rng.uniform(5, 58, n1), rng.uniform(5, 58, n1), np.ones(n1)], axis=1)
            pts_b = np.stack([rng.uniform(5, 58, n2), rng.uniform(5, 58, n2), np.ones(n2)], axis=1)
            da = rng.normal(size=(n1, 6))
            db = rng.normal(size=(n2, 6))
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), (64, 64))
            try:
                got = ev._mscore_one_direction(pts_a, da, pts_b, db, h, (64, 64), 3.0)
            except ev.NoFeaturesInRegion:
                continue
            want = oracle_matching_score_dir(
                pts_a[:, :2].tolist(), da.tolist(), pts_b[:, :2].tolist(), db.tolist(), h, (64, 64), 3.0
            )
            assert abs(got - want) <= 1e-12
            checked += 1
        assert checked > 100


def matches_from_arrays(a_xy, b_xy):
    n = len(a_xy)
    pa = np.hstack([a_xy, np.ones((n, 1))])
    pb = np.hstack([b_xy, np.ones((n, 1))])
    return ev.MatchSet(np.arange(n), np.arange(n), np.zeros(n), pa, pb)


class TestEstimateHomography:
    def test_minimal_exact_recovery(self):
        rng = np.random.default_rng(10)
        ranges = geo.ranges_preset("adaptation")
        for _ in range(20):
            h_true = geo.to_pixel_frame(geo.sample_homography(ranges, rng), (64, 64))
            src = np.array([[5.0, 5.0], [58.0, 7.0], [6.0, 55.0], [50.0, 60.0]])
            dst = geo.apply(h_true, src)
            h_est = ev.estimate_homography(matches_from_arrays(src, dst))
            assert ev.corner_error(h_est, h_true, (64, 64)) < 1e-6

    def test_ransac_with_outliers(self):
        rng = np.random.default_rng(11)
        ranges = geo.ranges_preset("adaptation")
        h_true = geo.to_pixel_frame(geo.sample_homography(ranges, rng), (64, 64))
        n = 100
        src = np.stack([rng.uniform(2, 61, n), rng.uniform(2, 61, n), np.ones(n)], axis=1)[:, :2]
        dst = geo.apply(h_true, src)
        outliers = rng.random(n) < 0.3
        dst[outliers] = np.stack([rng.uniform(0, 63, outliers.sum()), rng.uniform(0, 63, outliers.sum())], axis=1)
        h_est = ev.estimate_homography(matches_from_arrays(src, dst), ev.RansacParams(seed=3))
        assert ev.corner_error(h_est, h_true, (64, 64)) < 1e-6

    def test_collinear_raises(self):
        src = np.stack([np.linspace(0, 60, 8), np.linspace(0, 60, 8)], axis=1)
        dst = src + 1.0
        with pytest.raises(ev.DegenerateConfiguration):
            ev.estimate_homography(matches_from_arrays(src, dst), ev.RansacParams(max_iters=50))

    def test_insufficient_matches(self):
        src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ev.InsufficientMatches):
            ev.estimate_homography(matches_from_arrays(src, src))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        src = np.stack([rng.uniform(0, 63, 30), rng.uniform(0, 63, 30)], axis=1)
        dst = src + rng.normal(0, 0.5, src.shape)
        a = ev.estimate_homography(matches_from_arrays(src, dst), ev.RansacParams(seed=9))
        b = ev.estimate_homography(matches_from_arrays(src, dst), ev.RansacParams(seed=9))
        np.testing.assert_array_equal(a, b)

    def test_scale_invariance_via_normalization(self):
        rng = np.random.default_rng(13)
        h_true = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("training"), rng), (64, 64))
        src = np.stack([rng.uniform(2, 61, 40), rng.uniform(2, 61, 40)], axis=1)
        dst = geo.apply(h_true, src)
        h1 = ev.estimate_homography(matches_from_arrays(src, dst), ev.RansacParams(seed=1))
        s = geo.scaling(10.0, 10.0)
        h2 = ev.estimate_homography(matches_from_arrays(src * 10.0, dst * 10.0), ev.RansacParams(seed=1))
        # undo the coordinate rescaling and compare corner transfers
        h2_unscaled = geo.invert(s) @ h2 @ s
        assert ev.corner_error(h2_unscaled, h1, (64, 64)) < 1e-9


def correspondences(rng, n, inlier_ratio, shape=(64, 64)):
    h = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("adaptation"), rng), shape)
    src = np.stack([rng.uniform(0, shape[1] - 1, n), rng.uniform(0, shape[0] - 1, n)], axis=1)
    dst = geo.apply(h, src) + rng.normal(0.0, 0.3, (n, 2))
    out = rng.random(n) >= inlier_ratio
    dst[out] = np.stack([rng.uniform(0, shape[1] - 1, out.sum()), rng.uniform(0, shape[0] - 1, out.sum())], axis=1)
    return src, dst


class TestEstimateHomographyEqualsLoop:
    """Block-evaluated RANSAC returns the per-hypothesis loop's bytes, or raises its error."""

    @staticmethod
    def assert_equals_loop(src, dst, **params):
        matches, p = matches_from_arrays(src, dst), ev.RansacParams(**params)
        stats = {}
        want = outcome(estimate_homography_loop, matches, p, stats)
        assert outcome(ev.estimate_homography, matches, p) == want
        return stats

    def test_seeds_and_inlier_ratios(self):
        rng = np.random.default_rng(18)
        for ratio in (0.15, 0.4, 0.7, 0.95):
            src, dst = correspondences(rng, 60, ratio)
            for seed in range(3):
                self.assert_equals_loop(src, dst, seed=seed, max_iters=300)

    def test_iteration_caps_off_the_block_size(self):
        rng = np.random.default_rng(19)
        src, dst = correspondences(rng, 40, 0.1)
        for max_iters in (1, 3, ev.RANSAC_BLOCK - 1, ev.RANSAC_BLOCK + 1, 2 * ev.RANSAC_BLOCK + 5):
            stats = self.assert_equals_loop(src, dst, seed=max_iters, max_iters=max_iters, threshold=1.0)
            assert stats["iterations"] == max_iters

    def test_adaptive_stop(self):
        rng = np.random.default_rng(20)
        src, dst = correspondences(rng, 200, 0.8)
        stats = self.assert_equals_loop(src, dst, seed=4)
        assert stats["iterations"] < 50

    def test_all_inliers_stop_at_first_model(self):
        rng = np.random.default_rng(21)
        src, dst = correspondences(rng, 30, 1.0)
        stats = self.assert_equals_loop(src, dst, seed=5, threshold=5.0)
        assert stats["iterations"] == 1

    def test_duplicate_and_collinear_points(self):
        rng = np.random.default_rng(22)
        src = np.stack([rng.integers(0, 4, 40), rng.integers(0, 4, 40)], axis=1) * 16.0
        dst = src[:, ::-1] + rng.integers(0, 2, (40, 2))
        for seed in range(3):
            self.assert_equals_loop(src, dst, seed=seed, max_iters=150)

    def test_hypotheses_sending_points_to_infinity(self):
        # w = 1 - x / 100 vanishes on the line x = 100, where five points sit
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.01, 0.0, 1.0]])
        rng = np.random.default_rng(23)
        src = np.stack([rng.uniform(0, 90, 35), rng.uniform(0, 90, 35)], axis=1)
        dst = geo.apply(h, src)
        src = np.vstack([src, np.stack([np.full(5, 100.0), rng.uniform(0, 90, 5)], axis=1)])
        dst = np.vstack([dst, rng.uniform(0, 90, (5, 2))])
        stats = self.assert_equals_loop(src, dst, seed=6, max_iters=200)
        assert stats.get("DegenerateProjection", 0) > 0

    def test_attempt_cap_raises(self):
        src = np.stack([np.linspace(0, 60, 8), np.linspace(0, 60, 8)], axis=1)
        matches, p = matches_from_arrays(src, src + 1.0), ev.RansacParams(max_iters=7)
        want = outcome(estimate_homography_loop, matches, p)
        assert want == ("DegenerateConfiguration", "could not draw a non-degenerate minimal sample")
        assert outcome(ev.estimate_homography, matches, p) == want

    def test_non_finite_point_fails_like_the_loop(self):
        rng = np.random.default_rng(24)
        src, dst = correspondences(rng, 12, 0.9)
        src[3] = np.nan
        want = outcome(estimate_homography_loop, matches_from_arrays(src, dst), ev.RansacParams(seed=1))
        assert want[0] == "LinAlgError"
        self.assert_equals_loop(src, dst, seed=1)

    def test_subnormal_threshold(self):
        # a grid matched to itself: many transfer errors are exactly 0, so counts exceed 0 and the bound prunes
        src = np.stack([np.arange(300) % 20, np.arange(300) // 20], axis=1) * 8.0
        stats = self.assert_equals_loop(src, src.copy(), seed=2, max_iters=3 * ev.RANSAC_BLOCK, threshold=5e-324)
        assert stats["iterations"] == 3 * ev.RANSAC_BLOCK

    def test_threshold_whose_double_overflows(self):
        # 2 * 1e308 is inf; every finite transfer error is an inlier, so the first model stops the draws
        rng = np.random.default_rng(25)
        src, dst = correspondences(rng, 300, 0.1, shape=(240, 320))
        for seed in range(3):
            stats = self.assert_equals_loop(src, dst, seed=seed, threshold=1e308)
            assert stats["iterations"] == 1

    def test_low_inlier_set_with_a_nan_and_an_infinite_point(self):
        rng = np.random.default_rng(26)
        src, dst = correspondences(rng, 1000, 0.1, shape=(240, 320))
        dst[0] = np.inf
        dst[1] = np.nan
        outcomes = []
        for seed in range(4):
            matches, p = matches_from_arrays(src, dst), ev.RansacParams(seed=seed, max_iters=3 * ev.RANSAC_BLOCK + 5)
            # the loop's own arithmetic on the infinite point warns; the block code must not
            with np.errstate(invalid="ignore"):
                want = outcome(estimate_homography_loop, matches, p)
            assert outcome(ev.estimate_homography, matches, p) == want
            outcomes.append(want[0] if isinstance(want, tuple) else "model")
        # a draw of either point makes the DLT matrix non-finite; the other seeds run every block
        assert set(outcomes) == {"model", "LinAlgError"}

    def test_sample_holding_an_infinite_point_does_not_warn(self):
        rng = np.random.default_rng(29)
        a_xy, b_xy = correspondences(rng, 10, 0.5, shape=(240, 320))
        b_xy[0] = np.inf
        matches = matches_from_arrays(a_xy, b_xy)
        for seed in range(5):
            p = ev.RansacParams(seed=seed, max_iters=50)
            with np.errstate(invalid="ignore"):  # the loop's own arithmetic on the infinite point warns
                want = outcome(estimate_homography_loop, matches, p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert outcome(ev.estimate_homography, matches, p) == want
        # the cross products with the infinite point are NaN, which is <= nothing; its infinite extent
        # makes the bound infinite, so the other three points' finite cross product is <= it, as in
        # collinear_one.  A NaN point leaves the bound finite: the sample reaches the DLT, which fails.
        b_xy[1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kinds, counts, _ = ev._evaluate_samples(a_xy, b_xy, np.array([[0, 2, 3, 4], [1, 2, 3, 4]]), 3.0, 0)
        assert kinds.tolist() == [ev._COLLINEAR, ev._SVD_FAILED] and counts.tolist() == [0, 0]
        with np.errstate(invalid="ignore"):
            assert collinear_one(b_xy[[0, 2, 3, 4]]) and not collinear_one(b_xy[[1, 2, 3, 4]])

    def test_hypotheses_below_the_best_count_skip_the_backward_transfer(self, monkeypatch):
        stacks = []
        project = geo.project

        def spy(h, pts):
            if h.ndim == 3 and pts.ndim == 2:  # the transfers of _evaluate_samples, not geo.apply's
                stacks.append(len(h))
            return project(h, pts)

        monkeypatch.setattr(geo, "project", spy)
        rng = np.random.default_rng(27)
        src, dst = correspondences(rng, 1000, 0.1, shape=(240, 320))
        stats = self.assert_equals_loop(src, dst, seed=1, max_iters=3 * ev.RANSAC_BLOCK + 5)
        assert stats["iterations"] == 3 * ev.RANSAC_BLOCK + 5
        forward, backward = stacks[0::2], stacks[1::2]
        assert len(forward) == len(backward) >= 4
        assert all(b < f for f, b in zip(forward[1:], backward[1:])), (forward, backward)

    def test_fixture_model_on_a_warped_composite(self):
        # about 1000 matches with a few dozen inliers, the regime of the match benchmark
        fixtures = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures")
        system = cli.make_system(os.path.join(fixtures, "joint.spw"), 0.015, 4.0, 1000)
        images = cli.composite_images(1, (240, 320), 0)
        ((img_a, img_b, _),) = ev.warped_pair_dataset(images, geo.ranges_preset("training"), seed=1)
        (pts_a, desc_a), (pts_b, desc_b) = system(img_a), system(img_b)
        matches, p = ev.match_nn(desc_a, desc_b, pts_a, pts_b), ev.RansacParams(seed=1, max_iters=300)
        want = outcome(estimate_homography_loop, matches, p)
        assert isinstance(want, bytes)
        assert outcome(ev.estimate_homography, matches, p) == want


class TestRansacFloor:
    """A floor on the inlier count changes no hypothesis that can reach it and prunes only those that cannot."""

    def test_pruned_hypotheses_fall_below_the_floor(self):
        rng = np.random.default_rng(28)
        a_xy, b_xy = correspondences(rng, 1000, 0.1, shape=(240, 320))
        picks = np.array([rng.choice(len(a_xy), size=4, replace=False) for _ in range(ev.RANSAC_BLOCK)])
        kinds, counts, errors = ev._evaluate_samples(a_xy, b_xy, picks, 3.0, -1)
        scored = kinds == ev._SCORED
        floors = sorted({int(c) + d for c in counts[scored] for d in (0, 1)})
        for floor in floors:
            got_kinds, got_counts, got_errors = ev._evaluate_samples(a_xy, b_xy, picks, 3.0, floor)
            pruned = got_kinds != kinds
            assert (got_kinds[pruned] == ev._FAILED).all() and scored[pruned].all()
            assert (counts[pruned] < floor).all(), floor
            assert got_counts[~pruned].tobytes() == counts[~pruned].tobytes()
            assert got_errors[~pruned & scored].tobytes() == errors[~pruned & scored].tobytes()
        assert pruned.sum() > ev.RANSAC_BLOCK // 2


class TestRansacParams:
    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("max_iters", -5), ("threshold", 0.0), ("threshold", -1.0),
        ("threshold", float("nan")), ("threshold", float("inf")),
    ])
    def test_rejects_named_field(self, tmp_path, capsys, field, value):
        """The match setting that fills the field rejects the value before any file is read or written."""
        key = {"max_iters": "match.ransac_iters", "threshold": "match.ransac_threshold"}[field]
        assert cli.main(["match", "--weights", str(tmp_path / "unread.spw"), "--image-a", "a.pgm",
                         "--image-b", "b.pgm", "--out", str(tmp_path / "o"),
                         "--" + key.split(".")[1].replace("_", "-"), str(value)]) == 2
        assert f"config key {key}: must be " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestHomographyCorrectness:
    """An estimate counts as correct at eps when its mean corner error is <= eps."""

    def test_exact(self):
        h = geo.translation(3.0, -2.0)
        assert ev.corner_error(h, h, (48, 64)) == 0.0

    def test_two_px_translation(self):
        h_gt = geo.identity()
        h_est = geo.translation(2.0, 0.0)
        assert ev.corner_error(h_est, h_gt, (48, 64)) == pytest.approx(2.0, abs=1e-12)


class TestDetectorProtocol:
    def test_infinite_radius_keeps_the_top_point(self):
        pts = np.array([[1.0, 2.0, 0.3], [50.0, 60.0, 0.9], [9.0, 9.0, 0.5]])
        np.testing.assert_array_equal(cl.select_points(pts, math.inf), pts[[1]])
        assert len(cl.select_points(pts, 0.0)) == 3


class TestBenchmarks:
    def composite_pairs(self, n=6, shape=(96, 96), seed=0):
        imgs = [sd.render_composite(shape, np.random.default_rng((seed, i))).image for i in range(n)]
        return ev.warped_pair_dataset(imgs, geo.ranges_preset("training"), seed=seed)

    def test_random_baseline_level(self):
        rng = np.random.default_rng(14)
        imgs = [rng.random((240, 320)).astype(np.float32) for _ in range(8)]
        pairs = ev.warped_pair_dataset(imgs, geo.ranges_preset("training"), seed=1)
        reports = ev.run_detector_benchmark({}, pairs, ev.DetectorProtocol(), include_random=True, seed=2)
        rep = reports["random"].repeatability
        assert 0.04 < rep < 0.17  # Table-3 scale: random sits near 0.10

    def test_perfect_covariant_detector(self):
        samples = [sd.render_composite((96, 96), np.random.default_rng(i)) for i in range(4)]
        pairs = ev.warped_pair_dataset([s.image for s in samples], geo.ranges_preset("training"), seed=3)
        lookup = {}
        for s, (img_a, img_b, h) in zip(samples, pairs):
            # keep a well-spread subset so NMS never drops a point in either view
            pts = []
            for p in s.points:
                if all(np.hypot(p[0] - q[0], p[1] - q[1]) > 12.0 for q in pts):
                    pts.append(p)
            pts = np.asarray(pts)
            lookup[img_a.tobytes()] = pts
            warped = geo.apply(h, pts[:, :2])
            keep = geo.in_bounds(warped, img_b.shape)
            lookup[img_b.tobytes()] = np.hstack([warped[keep], pts[keep, 2:3]])

        def det(img):
            return lookup[img.tobytes()]

        reports = ev.run_detector_benchmark({"ideal": det}, pairs, include_random=False)
        assert reports["ideal"].repeatability == pytest.approx(1.0)

    def test_matching_benchmark_identity_pair(self):
        img = sd.render_composite((96, 96), np.random.default_rng(5)).image
        pairs = [(img, img.copy(), geo.identity())]
        xx, yy = np.meshgrid(np.linspace(8, 88, 4), np.linspace(8, 88, 3))
        grid_pts = np.stack([xx.ravel(), yy.ravel(), np.ones(12)], axis=1)

        def system(image):
            desc = np.stack([one_hot(i) for i in range(12)])
            return grid_pts, desc

        report = ev.run_matching_benchmark(system, pairs)
        for e, v in report.correctness.items():
            assert v == 1.0
        assert report.matching_score == 1.0
        table = ev.format_matching_table(report).splitlines()
        assert table[-4:] == [f"{k:<18} {v:>10d}" for k, v in
                              [("estimated", 1), ("no_matches", 0), ("no_features", 0), ("estimation_failed", 0)]]

    def gt_point_system(self, n):
        """Warped composite pairs and a lookup from each image to its ground-truth
        points and distinct near-one-hot descriptors."""
        samples = [sd.render_composite((96, 96), np.random.default_rng(20 + i)) for i in range(n)]
        pairs = ev.warped_pair_dataset([s.image for s in samples], geo.ranges_preset("training"), seed=7)
        tables = {}
        for s, (img_a, img_b, h) in zip(samples, pairs):
            pts = s.points
            desc = np.stack([one_hot(i % 16, 16) + 0.01 * i for i in range(len(pts))])
            tables[img_a.tobytes()] = (pts, desc)
            warped = geo.apply(h, pts[:, :2])
            keep = geo.in_bounds(warped, img_b.shape)
            tables[img_b.tobytes()] = (np.hstack([warped[keep], pts[keep, 2:3]]), desc[keep])
        return pairs, tables

    def test_gt_points_one_hot_descriptors_exact_estimation(self):
        pairs, tables = self.gt_point_system(3)
        report = ev.run_matching_benchmark(lambda im: tables[im.tobytes()], pairs,
                                           ev.MatchingProtocol(eps_list=(1.0, 3.0)))
        assert report.correctness[1.0] == 1.0

    def test_non_finite_points_count_as_failed_estimation(self):
        # RANSAC's SVD raises LinAlgError on a sample with a NaN coordinate; the run goes on
        pairs, tables = self.gt_point_system(2)
        for pts, _ in tables.values():
            pts[::4, 0] = np.nan
        report = ev.run_matching_benchmark(lambda im: tables[im.tobytes()], pairs)
        assert report.counts["pairs"] == 2
        assert report.counts["estimation_failed"] == 2
        assert [math.isnan(row[3]) for row in report.rows] == [True, True]

    def test_report_csv_written(self, tmp_path):
        pairs = self.composite_pairs(3)
        reports = ev.run_detector_benchmark({}, pairs, include_random=True)
        path = tmp_path / "det.csv"
        ev.write_detector_report_csv(path, reports)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("detector,pair")
        assert any("summary" in ln for ln in lines)
        assert ev.format_detector_table(reports)


class TestDetectorGtMetrics:
    def test_perfect_detector_scores_one(self):
        samples = [sd.render_sample(sd.ShapeCategory.TRIANGLE, (96, 96), np.random.default_rng(i)) for i in range(4)]
        lookup = {s.image.tobytes(): s.points for s in samples}
        mapv, mle, defined = ev.detector_gt_metrics(lambda im: lookup[im.tobytes()], samples)
        assert mapv == pytest.approx(1.0)
        assert mle == pytest.approx(0.0, abs=1e-12)
        assert defined == 4

    def test_negatives_excluded_from_average(self):
        pos = [sd.render_sample(sd.ShapeCategory.TRIANGLE, (96, 96), np.random.default_rng(50 + i)) for i in range(2)]
        neg = [sd.render_sample(sd.ShapeCategory.GAUSSIAN_NOISE, (96, 96), np.random.default_rng(60)) ]
        lookup = {s.image.tobytes(): s.points for s in pos + neg}
        mapv, _, defined = ev.detector_gt_metrics(lambda im: lookup[im.tobytes()], pos + neg)
        assert defined == 2
        assert mapv == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the scoring code as it stood before each rule (PR area, co-visibility,
# correct match, mean within eps) was written once; the shared rules must
# return the same bytes


def parent_pr_area(recall, precision):
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[precision[0]], precision])
    return float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) * 0.5))


def parent_average_precision(dets, gt, eps):
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, gt.shape[-1] if len(gt) else 2)
    if len(gt) == 0 or len(dets) == 0:
        return 0.0
    order = np.lexsort((dets[:, 0], dets[:, 1], -dets[:, 2]))
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
    boundaries = np.nonzero(np.diff(confs))[0].tolist() + [len(confs) - 1]
    cum_tp = np.cumsum(tp)
    ks = np.asarray(boundaries)
    precision = cum_tp[ks] / (ks + 1.0)
    recall = cum_tp[ks] / float(len(gt))
    return parent_pr_area(recall, precision)


def parent_localization_error(dets, gt, eps):
    dets = np.asarray(dets, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, gt.shape[-1] if len(gt) else 2)
    if len(gt) == 0 or len(dets) == 0:
        raise ev.NoCorrectDetections("nothing to localize")
    d = ev._nearest_distance(dets, gt)
    d = d[d <= eps]
    if len(d) == 0:
        raise ev.NoCorrectDetections("none within eps")
    return float(d.mean())


def parent_repeatability(pts1, pts2, h, shape, eps):
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
        hits += int((ev._nearest_distance(geo.apply(h, pts1[:, :2]), pts2) <= eps).sum())
        hits += int((ev._nearest_distance(geo.apply(hinv, pts2[:, :2]), pts1) <= eps).sum())
    return hits / float(n1 + n2)


def parent_nn_ap_one_direction(pts_a, desc_a, pts_b, desc_b, h, eps):
    m = ev.match_nn(desc_a, desc_b, pts_a, pts_b)
    warped = geo.apply(h, np.asarray(pts_a, dtype=np.float64)[:, :2])
    matched_b = np.asarray(pts_b, dtype=np.float64)[m.idx_b, :2]
    tp = np.linalg.norm(warped - matched_b, axis=1) <= eps
    d_any = ev._nearest_distance(warped, np.asarray(pts_b, dtype=np.float64))
    possible = int((d_any <= eps).sum())
    if possible == 0:
        raise ev.NoMatches("no geometric correspondence exists within eps")
    order = np.lexsort((m.idx_a, m.distance))
    tp = tp[order]
    dist = m.distance[order]
    boundaries = np.nonzero(np.diff(dist))[0].tolist() + [len(dist) - 1]
    ks = np.asarray(boundaries)
    cum_tp = np.cumsum(tp)
    precision = cum_tp[ks] / (ks + 1.0)
    recall = np.minimum(cum_tp[ks] / float(possible), 1.0)
    return parent_pr_area(recall, precision)


def parent_nn_map(pts_a, desc_a, pts_b, desc_b, h, eps):
    ab = parent_nn_ap_one_direction(pts_a, desc_a, pts_b, desc_b, h, eps)
    ba = parent_nn_ap_one_direction(pts_b, desc_b, pts_a, desc_a, geo.invert(h), eps)
    return 0.5 * (ab + ba)


def parent_mscore_one_direction(pts_a, desc_a, pts_b, desc_b, h, shape, eps):
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    hinv = geo.invert(h)
    cov_a = geo.in_bounds(geo.apply(h, pts_a[:, :2]), shape) if len(pts_a) else np.zeros(0, bool)
    cov_b = geo.in_bounds(geo.apply(hinv, pts_b[:, :2]), shape) if len(pts_b) else np.zeros(0, bool)
    n1, n2 = int(cov_a.sum()), int(cov_b.sum())
    if min(n1, n2) == 0:
        raise ev.NoFeaturesInRegion("no features in the shared viewpoint region")
    pa = pts_a[cov_a]
    da = np.asarray(desc_a, dtype=np.float64)[cov_a]
    pb = pts_b[cov_b]
    db = np.asarray(desc_b, dtype=np.float64)[cov_b]
    m = ev.match_nn(da, db, pa, pb)
    warped = geo.apply(h, pa[:, :2])
    good = np.linalg.norm(warped - pb[m.idx_b, :2], axis=1) <= eps
    return float(good.sum()) / float(min(n1, n2))


def parent_matching_score(pts_a, desc_a, pts_b, desc_b, h, shape, eps):
    ab = parent_mscore_one_direction(pts_a, desc_a, pts_b, desc_b, h, shape, eps)
    ba = parent_mscore_one_direction(pts_b, desc_b, pts_a, desc_a, geo.invert(h), shape, eps)
    return 0.5 * (ab + ba)


def parent_pair_mle(pts1, pts2, h, eps):
    if len(pts1) == 0 or len(pts2) == 0:
        return None
    warped = geo.apply(h, np.asarray(pts1, dtype=np.float64)[:, :2])
    d = ev._nearest_distance(warped, np.asarray(pts2, dtype=np.float64))
    d = d[d <= eps]
    return float(d.mean()) if len(d) else None


def result_of(fn, *args):
    """The value fn returns, as bytes when it is a float, or the type of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # the parent and the shared rule must raise the same error
        return type(exc)
    return np.float64(value).tobytes() if isinstance(value, float) else value


SHAPE = (24, 32)


def lattice_points(rng, n, confs=(0.25, 0.5, 0.5, 0.9)):
    """n points on the pixel lattice of SHAPE and one pixel beyond it, with
    repeated confidences, so that borders, distances and ranks tie exactly."""
    hgt, wdt = SHAPE
    return np.stack([rng.integers(-1, wdt + 1, n), rng.integers(-1, hgt + 1, n), rng.choice(confs, n)],
                    axis=1).astype(np.float64)


def translation(tx, ty):
    return np.array([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]])


def pair_cases():
    """(pts_a, desc_a, pts_b, desc_b, h): integer shifts land points exactly
    on the border, far shifts empty the co-visible sets, repeated small
    integer descriptors tie match distances, sampled warps cover the rest."""
    rng = np.random.default_rng(21)
    ranges = geo.ranges_preset("training")
    for k in range(120):
        n1, n2 = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        pts_a, pts_b = lattice_points(rng, n1), lattice_points(rng, n2)
        da = rng.integers(0, 3, (n1, 3)).astype(np.float64)
        db = rng.integers(0, 3, (n2, 3)).astype(np.float64)
        if k % 3 == 0:
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), SHAPE)
        elif k % 3 == 1:
            h = translation(*rng.integers(-4, 5, 2))
        else:
            h = translation(*rng.choice([-40.0, 40.0], 2))
        yield pts_a, da, pts_b, db, h


class TestSharedRulesEqualParentCode:
    @pytest.mark.parametrize("eps", [0.0, 1.0, 3.0])
    def test_pair_metrics(self, eps):
        seen = set()
        for pts_a, da, pts_b, db, h in pair_cases():
            for new, old, args in [
                (ev.repeatability, parent_repeatability, (pts_a, pts_b, h, SHAPE, eps)),
                (ev.pair_mle, parent_pair_mle, (pts_a, pts_b, h, eps)),
                (ev.nn_map, parent_nn_map, (pts_a, da, pts_b, db, h, eps)),
                (ev.matching_score, parent_matching_score, (pts_a, da, pts_b, db, h, SHAPE, eps)),
            ]:
                got = result_of(new, *args)
                assert got == result_of(old, *args), (new.__name__, args)
                seen.add((new.__name__, got if isinstance(got, type) or got is None else "value"))
        if eps:
            # every branch was reached: values, empty co-visible sets, no counterpart within eps
            assert {("nn_map", "value"), ("nn_map", ev.NoMatches), ("nn_map", ev.EmptySet),
                    ("matching_score", "value"), ("matching_score", ev.NoFeaturesInRegion),
                    ("pair_mle", "value"), ("pair_mle", None), ("repeatability", "value")} <= seen

    def test_points_exactly_on_the_border(self):
        hgt, wdt = SHAPE
        pts = np.array([[0.0, 0.0, 0.5], [wdt - 1.0, hgt - 1.0, 0.5], [wdt - 1.0, 0.0, 0.9], [wdt, 5.0, 0.9],
                        [-1.0, 3.0, 0.2], [4.0, hgt - 1.0, 0.2]])
        desc = np.eye(6)[[0, 1, 2, 2, 3, 3]]
        for h in (geo.identity(), translation(1.0, 0.0), translation(0.0, -1.0)):
            for eps in (0.0, 1.0):
                for new, old, args in [
                    (ev.repeatability, parent_repeatability, (pts, pts, h, SHAPE, eps)),
                    (ev.nn_map, parent_nn_map, (pts, desc, pts, desc, h, eps)),
                    (ev.matching_score, parent_matching_score, (pts, desc, pts, desc, h, SHAPE, eps)),
                ]:
                    assert result_of(new, *args) == result_of(old, *args), (new.__name__, h, eps)

    def test_detector_metrics_with_tied_and_nan_confidences(self):
        rng = np.random.default_rng(22)
        checked = 0
        for k in range(150):
            dets = lattice_points(rng, int(rng.integers(0, 20)))
            gt = lattice_points(rng, int(rng.integers(0, 12)))[:, :2]
            if k % 5 == 0 and len(dets):
                dets[rng.integers(len(dets)), 2] = np.nan
            for eps in (0.0, 1.0, 2.0, 3.0):
                assert result_of(ev.average_precision, dets, gt, eps) == result_of(parent_average_precision, dets, gt, eps)
                got = result_of(ev.localization_error, dets, gt, eps)
                assert got == result_of(parent_localization_error, dets, gt, eps)
                checked += isinstance(got, bytes)
        assert checked > 100
