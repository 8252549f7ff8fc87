"""Metric semantics plus exact equivalence against O(n^2) oracles."""

import math

import numpy as np
import pytest

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


class TestHomographyCorrectness:
    """An estimate counts as correct at eps when its mean corner error is <= eps."""

    def test_exact(self):
        h = geo.translation(3.0, -2.0)
        assert ev.corner_error(h, h, (48, 64)) == 0.0

    def test_two_px_translation(self):
        h_gt = geo.identity()
        h_est = geo.translation(2.0, 0.0)
        assert ev.corner_error(h_est, h_gt, (48, 64)) == pytest.approx(2.0, abs=1e-12)


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
            keep = ev._in_bounds(warped, img_b.shape)
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

    def test_gt_points_one_hot_descriptors_exact_estimation(self):
        samples = [sd.render_composite((96, 96), np.random.default_rng(20 + i)) for i in range(3)]
        pairs = ev.warped_pair_dataset([s.image for s in samples], geo.ranges_preset("training"), seed=7)
        tables = {}
        for s, (img_a, img_b, h) in zip(samples, pairs):
            pts = s.points
            desc = np.stack([one_hot(i % 16, 16) + 0.01 * i for i in range(len(pts))])
            tables[img_a.tobytes()] = (pts, desc)
            warped = geo.apply(h, pts[:, :2])
            keep = ev._in_bounds(warped, img_b.shape)
            tables[img_b.tobytes()] = (np.hstack([warped[keep], pts[keep, 2:3]]), desc[keep])

        report = ev.run_matching_benchmark(lambda im: tables[im.tobytes()], pairs,
                                           ev.MatchingProtocol(eps_list=(1.0, 3.0)))
        assert report.correctness[1.0] == 1.0

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
