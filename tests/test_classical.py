import math
import os

import numpy as np
import pytest

from pointpipe import adaptation as ad
from pointpipe import classical as cl
from pointpipe import cli
from pointpipe import evalsuite as ev
from pointpipe import imaging as im


def step_corner(size=32, corner=(16, 16)):
    """Black quadrant on white: ideal L corner at ``corner`` (x, y)."""
    img = np.ones((size, size), dtype=np.float32)
    cx, cy = corner
    img[cy:, cx:] = 0.0
    return img


def step_edge(size=32, col=16):
    img = np.ones((size, size), dtype=np.float32)
    img[:, col:] = 0.0
    return img


class TestHarris:
    def test_constant_image_zero(self):
        hm = cl.harris(np.full((16, 16), 0.5, dtype=np.float32))
        assert np.abs(hm).max() < 1e-9

    def test_corner_near_true_location(self):
        hm = cl.harris(step_corner())
        y, x = np.unravel_index(np.argmax(hm), hm.shape)
        # the corner pixel neighborhood: geometric corner between 15 and 16
        assert abs(x - 15.5) <= 1.0 and abs(y - 15.5) <= 1.0

    def test_edge_response_far_below_corner(self):
        corner_peak = cl.harris(step_corner()).max()
        edge = cl.harris(step_edge())
        interior = edge[8:-8, 8:-8]
        assert interior.max() <= 0.1 * corner_peak

    def test_translation_covariant(self):
        rng = np.random.default_rng(0)
        img = rng.random((40, 40)).astype(np.float32)
        shifted = np.roll(img, (0, 3), axis=(0, 1))
        a = cl.harris(img)
        b = cl.harris(shifted)
        # valid interior: away from wrap/border effects (kernel radius 3 + gradient 1)
        np.testing.assert_array_equal(a[5:-5, 5:-8], b[5:-5, 8:-5])

    def test_too_small(self):
        with pytest.raises(cl.ImageTooSmall):
            cl.harris(np.zeros((5, 9), dtype=np.float32))


class TestShiTomasi:
    def test_constant_zero(self):
        hm = cl.shi_tomasi(np.full((16, 16), 0.3, dtype=np.float32))
        assert np.abs(hm).max() < 1e-9

    def test_corner_near_true_location(self):
        hm = cl.shi_tomasi(step_corner())
        y, x = np.unravel_index(np.argmax(hm), hm.shape)
        assert abs(x - 15.5) <= 1.0 and abs(y - 15.5) <= 1.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            img = rng.random((24, 24)).astype(np.float32)
            assert cl.shi_tomasi(img).min() >= 0.0

    def test_translation_covariant(self):
        rng = np.random.default_rng(2)
        img = rng.random((40, 40)).astype(np.float32)
        shifted = np.roll(img, (4, 0), axis=(0, 1))
        a = cl.shi_tomasi(img)
        b = cl.shi_tomasi(shifted)
        np.testing.assert_array_equal(a[5:-9, 5:-5], b[9:-5, 5:-5])


class TestFast:
    def test_constant_image_empty(self):
        assert len(cl.fast(np.full((20, 20), 0.5, dtype=np.float32))) == 0

    def test_single_bright_pixel(self):
        img = np.zeros((21, 21), dtype=np.float32)
        img[10, 10] = 1.0
        pts = cl.fast(img)
        assert len(pts) >= 1
        assert (pts[0, 0], pts[0, 1]) == (10.0, 10.0)

    def test_step_corner_single_detection(self):
        pts = cl.fast(step_corner())
        assert len(pts) == 1
        assert np.hypot(pts[0, 0] - 15.5, pts[0, 1] - 15.5) <= 2.0

    def test_negation_symmetric(self):
        rng = np.random.default_rng(3)
        img = (rng.random((32, 32)) > 0.8).astype(np.float32)
        a = cl.fast(img)
        b = cl.fast(1.0 - img)
        np.testing.assert_array_equal(a, b)

    def test_matches_bruteforce_segment_test(self):
        rng = np.random.default_rng(4)
        img = rng.random((24, 24)).astype(np.float32)
        t = np.float32(cl.FAST_THRESHOLD)
        arc = cl.FAST_ARC
        oracle = []
        for y in range(3, 21):
            for x in range(3, 21):
                c = img[y, x]
                ring = [img[y + dy, x + dx] for dx, dy in cl._FAST_OFFSETS]
                best = -np.inf
                for start in range(16):
                    window = [ring[(start + j) % 16] for j in range(arc)]
                    best = max(best, min(np.float32(v) - c - t for v in window))
                    best = max(best, min(c - t - np.float32(v) for v in window))
                if best > 0:
                    oracle.append([float(x), float(y), float(best)])
        expect = cl.nms(np.asarray(oracle).reshape(-1, 3), 3.0)
        got = cl.fast(img)
        np.testing.assert_allclose(got, expect, atol=1e-6)


def fast_whole_image(img):
    """FAST over whole-image (16, H-6, W-6) tap stacks, 16 starts x 2 polarities of min-of-9."""
    img = np.asarray(img, dtype=np.float32)
    hgt, wdt = img.shape
    center = img[3 : hgt - 3, 3 : wdt - 3]
    big = np.empty((16,) + center.shape, dtype=np.float32)
    for k, (dx, dy) in enumerate(cl._FAST_OFFSETS):
        big[k] = img[3 + dy : hgt - 3 + dy, 3 + dx : wdt - 3 + dx]
    t = np.float32(cl.FAST_THRESHOLD)
    bright = big - center - t
    dark = center - t - big
    margin = np.full(center.shape, -np.inf, dtype=np.float32)
    for start in range(16):
        idx = [(start + j) % 16 for j in range(cl.FAST_ARC)]
        margin = np.maximum(margin, np.minimum.reduce([bright[i] for i in idx]))
        margin = np.maximum(margin, np.minimum.reduce([dark[i] for i in idx]))
    ys, xs = np.nonzero(margin > 0)
    pts = np.stack([xs + 3.0, ys + 3.0, margin[ys, xs].astype(np.float64)], axis=1)
    return cl.nms(pts, 3.0)


class TestFastBandsEqualWholeImage:
    def assert_same_bytes(self, img):
        got, expect = cl.fast(img), fast_whole_image(img)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), img.shape

    def test_composites(self):
        images = cli.composite_images(3, (240, 320), 0)
        assert all(len(cl.fast(img)) > 10 for img in images)
        for img in images:
            self.assert_same_bytes(img)
            self.assert_same_bytes(1.0 - img)

    def test_row_counts_around_band_multiples(self):
        # output rows are the image rows minus 6; the last band may be short or a single row
        rng = np.random.default_rng(11)
        band = cl._FAST_BAND
        for rows in (1, band - 1, band, band + 1, 2 * band - 1, 2 * band, 2 * band + 1):
            img = (rng.random((rows + 6, 29)) > 0.6).astype(np.float32)
            self.assert_same_bytes(img)
            self.assert_same_bytes(rng.random((rows + 6, 7)).astype(np.float32))

    def test_nan_pixel(self):
        rng = np.random.default_rng(12)
        img = (rng.random((40, 36)) > 0.6).astype(np.float32)
        x, y = (int(v) for v in cl.fast(img)[0, :2])
        dx, dy = cl._FAST_OFFSETS[5]
        img[y + dy, x + dx] = np.nan  # on the strongest corner's circle
        img[3, 30] = np.nan
        self.assert_same_bytes(img)
        assert (x, y) not in {(px, py) for px, py in cl.fast(img)[:, :2].tolist()}


def nms_scan(points, radius):
    """Greedy NMS that tests each candidate against every accepted point."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        return points.copy()
    order = np.lexsort((points[:, 0], points[:, 1], -points[:, 2]))
    pts = points[order]
    if radius <= 0:
        return pts
    accepted = np.empty_like(pts)
    n_acc = 0
    r2 = radius * radius
    for p in pts:
        if n_acc:
            d2 = (accepted[:n_acc, 0] - p[0]) ** 2 + (accepted[:n_acc, 1] - p[1]) ** 2
            if d2.min() <= r2:
                continue
        accepted[n_acc] = p
        n_acc += 1
    return accepted[:n_acc].copy()


def assert_matches_scan(pts, radius):
    got = cl.nms(pts, radius)
    expect = nms_scan(pts, radius)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes(), (radius, len(pts))


class TestNms:
    def test_radius_zero_sorts_only(self):
        pts = np.array([[1.0, 1.0, 0.2], [5.0, 5.0, 0.9], [3.0, 3.0, 0.5]])
        out = cl.nms(pts, 0.0)
        np.testing.assert_array_equal(out[:, 2], [0.9, 0.5, 0.2])
        assert len(out) == 3

    def test_two_close_points(self):
        pts = np.array([[0.0, 0.0, 0.9], [3.0, 0.0, 0.5]])
        out = cl.nms(pts, 4.0)
        assert len(out) == 1
        assert out[0, 2] == 0.9

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = np.stack(
                [rng.uniform(0, 60, 100), rng.uniform(0, 60, 100), rng.random(100)], axis=1
            )
            radius = 8.0
            got = cl.nms(pts, radius)
            # oracle: independent greedy pass
            order = sorted(range(100), key=lambda i: (-pts[i, 2], pts[i, 1], pts[i, 0]))
            acc = []
            for i in order:
                if all(np.hypot(pts[i, 0] - a[0], pts[i, 1] - a[1]) > radius for a in acc):
                    acc.append(pts[i])
            np.testing.assert_array_equal(got, np.asarray(acc))
            d = np.linalg.norm(got[:, None, :2] - got[None, :, :2], axis=2)
            d[np.diag_indices(len(got))] = np.inf
            assert d.min() > radius

    def test_order_independent(self):
        rng = np.random.default_rng(6)
        pts = np.stack([rng.uniform(0, 30, 50), rng.uniform(0, 30, 50), rng.random(50)], axis=1)
        out1 = cl.nms(pts, 5.0)
        out2 = cl.nms(pts[::-1], 5.0)
        np.testing.assert_array_equal(out1, out2)

    assert_matches_scan = staticmethod(assert_matches_scan)

    def test_dense_lattice_tied_confidences(self):
        # every pixel a candidate with a few confidence levels, like Shi-Tomasi;
        # 5120 candidates span more than one conversion chunk
        rng = np.random.default_rng(8)
        ys, xs = np.mgrid[0:64, 0:80]
        conf = rng.integers(0, 4, xs.size) / 4.0
        pts = np.stack([xs.ravel(), ys.ravel(), conf], axis=1).astype(np.float64)
        for radius in (1.0, 2.0, 3.0, 4.0, 8.0):
            self.assert_matches_scan(pts, radius)
        self.assert_matches_scan(np.c_[pts[:, :2], np.ones(len(pts))], 4.0)  # all tied

    def test_pairs_exactly_radius_apart_across_cell_borders(self):
        for radius in (4.0, 2.5, 0.7, 5.0):
            pts = []
            for k, base in enumerate((0.0, radius, -radius, 3 * radius, np.nextafter(radius, 0.0))):
                # horizontal, vertical and 3-4-5 diagonal pairs straddling cell borders
                pts += [[base, 10.0 * k, 0.9], [base + radius, 10.0 * k, 0.5]]
                pts += [[100.0 + 10.0 * k, base, 0.9], [100.0 + 10.0 * k, base + radius, 0.5]]
                y = 200.0 + 10.0 * k
                pts += [[base, y, 0.9], [base + 0.6 * radius, y + 0.8 * radius, 0.5]]
            self.assert_matches_scan(np.asarray(pts), radius)
        # the rounded difference 8 - 3.9999999999999996 is exactly 4: the pair
        # suppresses although the points lie in cells 0 and 2 of width 4
        pts = np.array([[3.9999999999999996, 0.0, 0.9], [8.0, 0.0, 0.5]])
        assert len(cl.nms(pts, 4.0)) == 1
        self.assert_matches_scan(pts, 4.0)

    def test_negative_and_fractional_coordinates(self):
        rng = np.random.default_rng(9)
        for radius in (0.7, 2.5, 4.0):
            pts = np.stack([rng.uniform(-40, 40, 400), rng.uniform(-30, 30, 400), rng.random(400)], axis=1)
            self.assert_matches_scan(pts, radius)
            lattice = np.round(pts * 4.0) / 4.0  # quarter-pixel coordinates with ties
            self.assert_matches_scan(lattice, radius)

    def test_single_candidate_and_duplicates(self):
        one = np.array([[-3.5, 2.25, 0.1]])
        np.testing.assert_array_equal(cl.nms(one, 4.0), one)
        dup = np.tile([[5.0, 7.0, 0.3]], (50, 1))
        np.testing.assert_array_equal(cl.nms(dup, 2.5), dup[:1])
        self.assert_matches_scan(dup, 0.7)

    def test_extreme_radii_and_coordinates(self):
        rng = np.random.default_rng(10)
        pts = np.stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), rng.random(200)], axis=1)
        with np.errstate(over="ignore", under="ignore"):
            for scale, radius in ((1e-200, 1e-200), (1e-195, 1e-200), (1e-160, 1e-200), (1.0, 1e200),
                                  (1e300, 1e299), (1e300, 4.0), (1e6, 1e-6)):
                scaled = pts * [scale, scale, 1.0]
                self.assert_matches_scan(scaled, radius)

    def test_nan_coordinate_is_within_radius_of_nothing(self):
        pts = np.array([[np.nan, 0.0, 0.9], [0.0, 0.0, 0.8], [1.0, 0.0, 0.7], [np.nan, 0.0, 0.6]])
        out = cl.nms(pts, 4.0)
        np.testing.assert_array_equal(out, pts[[0, 1, 3]])


@pytest.fixture
def raster_used(monkeypatch):
    """List of bools, one per ``nms`` call that got past sorting: whether the coverage raster applied."""
    used = []
    original = cl._coverage_raster

    def spy(*args):
        raster = original(*args)
        used.append(raster is not None)
        return raster

    monkeypatch.setattr(cl, "_coverage_raster", spy)
    return used


def lattice(x0, y0, wdt, hgt, rng, levels=4):
    """Every pixel of a box, confidences on a few tied levels, in shuffled order."""
    ys, xs = np.mgrid[y0 : y0 + hgt, x0 : x0 + wdt]
    conf = rng.integers(0, levels, xs.size) / levels
    pts = np.stack([xs.ravel(), ys.ravel(), conf], axis=1).astype(np.float64)
    return pts[rng.permutation(len(pts))]


class TestNmsRaster:
    """The raster path against the all-pairs scan, and when it applies."""

    RADII = (1.0, math.sqrt(2.0), 1.5, 2.5, 4.0, 8.0)

    def test_dense_lattice_with_negative_offsets(self, raster_used):
        rng = np.random.default_rng(20)
        pts = lattice(-45, -31, 72, 50, rng)
        assert len(pts) > 4 * cl._NMS_CHUNK  # several chunks
        for radius in self.RADII:
            assert_matches_scan(pts, radius)
            assert_matches_scan(pts[rng.random(len(pts)) < 0.3], radius)  # a lattice with holes
        assert raster_used == [True] * 2 * len(self.RADII)

    def test_radii_just_below_an_integer(self, raster_used):
        # floor(radius) bounds the disk: the offset k itself must fail the test
        rng = np.random.default_rng(29)
        pts = lattice(-9, -4, 40, 30, rng)
        for k in range(1, 9):
            for radius in (np.nextafter(float(k), 0.0), np.nextafter(np.float32(k), np.float32(0.0))):
                assert_matches_scan(pts, radius)
        assert raster_used == [True] * 16

    def test_small_radii_keep_one_point_per_pixel(self, raster_used):
        rng = np.random.default_rng(21)
        pts = lattice(-3, 5, 20, 16, rng)
        pts = np.concatenate([pts, pts[:100] * [1.0, 1.0, 0.5]])
        for radius in (0.5, 1e-3, 1e-200):  # the last squares to 0, which still covers the pixel itself
            assert_matches_scan(pts, radius)
        assert raster_used == [True] * 3

    def test_tied_confidences_and_duplicate_pixels(self, raster_used):
        rng = np.random.default_rng(22)
        pts = lattice(0, 0, 40, 30, rng, levels=2)
        dup = pts[rng.integers(0, len(pts), 600)].copy()
        dup[:300, 2] = rng.integers(0, 2, 300) / 2.0  # same pixel, other level
        pts = np.concatenate([pts, dup])
        for radius in self.RADII:
            assert_matches_scan(pts, radius)
        assert_matches_scan(np.c_[pts[:, :2], np.ones(len(pts))], 4.0)  # all tied
        assert all(raster_used)

    def test_chunk_boundaries(self, raster_used):
        # a point accepted in one chunk suppresses candidates of the same and of later chunks
        rng = np.random.default_rng(23)
        for n in (cl._NMS_CHUNK - 1, cl._NMS_CHUNK, cl._NMS_CHUNK + 1, 3 * cl._NMS_CHUNK + 7):
            side = int(math.ceil(math.sqrt(n)))
            pts = lattice(-7, 2, side, side, rng, levels=8)[:n]
            for radius in (1.5, 4.0):
                assert_matches_scan(pts, radius)
        assert all(raster_used)

    def test_sparse_integer_set_falls_back(self, raster_used):
        rng = np.random.default_rng(24)
        pts = np.stack([rng.integers(-500, 500, 300), rng.integers(-400, 400, 300), rng.random(300)], axis=1)
        for radius in self.RADII + (40.0,):
            assert_matches_scan(pts.astype(np.float64), radius)
        assert not any(raster_used)

    def test_mixed_integer_and_fractional_sets_fall_back(self, raster_used):
        rng = np.random.default_rng(25)
        pts = lattice(-20, -20, 40, 40, rng)
        for k in (0, 1):
            mixed = pts.copy()
            mixed[rng.integers(0, len(pts), 5), k] += 0.5
            mixed[7, k] += 2.0**-30
            for radius in (1.5, 4.0):
                assert_matches_scan(mixed, radius)
        assert raster_used == [False] * 4

    def test_density_bound(self, raster_used):
        # radius 1 pads the box by 1 px per side: corner points (0, 0) and (37, 37) make it 40 x 40
        rng = np.random.default_rng(26)
        fewest = -(-1600 // cl._RASTER_DENSITY)  # candidates a 1600-pixel box needs
        for n, expect in ((fewest, True), (fewest - 1, False)):
            xy = np.concatenate([[[0, 0], [37, 37]], rng.integers(0, 38, (n - 2, 2))])
            pts = np.c_[xy.astype(np.float64), rng.integers(0, 3, n) / 3.0]
            assert_matches_scan(pts, 1.0)
            assert raster_used[-1] is expect

    def test_coordinates_near_two_to_the_26(self, raster_used):
        rng = np.random.default_rng(27)
        below = lattice(2**26 - 30, -(2**26) + 1, 29, 20, rng)
        assert_matches_scan(below, 2.5)
        straddling = lattice(2**26 - 15, 0, 29, 20, rng)
        assert_matches_scan(straddling, 2.5)
        assert raster_used == [True, False]

    def test_non_finite_and_infinite_inputs_fall_back(self, raster_used):
        rng = np.random.default_rng(28)
        pts = lattice(0, 0, 30, 30, rng)
        assert_matches_scan(pts, math.inf)
        assert len(cl.nms(pts, math.inf)) == 1  # an infinite radius keeps the top candidate
        for bad in (np.inf, -np.inf):
            odd = pts.copy()
            odd[11, 1] = bad
            assert_matches_scan(odd, 4.0)
        # a NaN coordinate is within radius of nothing: kept, and the rest as without it
        odd = pts.copy()
        odd[11, 1] = np.nan
        got = cl.nms(odd, 4.0)
        nan_row = np.isnan(got[:, 1])
        assert got[nan_row].tobytes() == odd[11].tobytes()
        assert got[~nan_row].tobytes() == nms_scan(np.delete(pts, 11, axis=0), 4.0).tobytes()
        assert raster_used == [False] * 5

    def test_nan_radius_raises(self):
        pts = np.array([[0.0, 0.0, 0.9], [1.0, 0.0, 0.8]])
        for radius in (float("nan"), np.nan, np.float32("nan")):
            with pytest.raises(ValueError, match="NaN"):
                cl.nms(pts, radius)
            with pytest.raises(ValueError, match="NaN"):
                cl.nms(np.zeros((0, 3)), radius)


class TestNmsPathTaken:
    """Which candidate sets of the repo's detectors take the raster path (the scan is quadratic)."""

    def test_dense_classical_maps_use_the_raster(self, raster_used):
        img = cli.composite_images(1, (240, 320), 0)[0]
        noisy = im.apply_noise_battery(img, np.random.default_rng(1))
        for response in (cl.shi_tomasi(img), cl.harris(img), cl.harris(noisy)):
            cl.select_points(cl.threshold_points(response, 1e-12), 4.0, 300)
        assert raster_used == [True, True, True]

    def test_learned_maps_use_the_raster_and_random_points_are_scanned(self, raster_used):
        img = cli.composite_images(1, (240, 320), 0)[0]
        fixtures = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures")
        # the joint model's heatmap as match thresholds it, and an adapted map as label does
        cl.heatmap_to_points(cli.load_model(os.path.join(fixtures, "joint.spw")).heatmap(img), 0.015, 4.0)
        detector = cli.load_model(os.path.join(fixtures, "detector.spw")).heatmap
        cl.heatmap_to_points(ad.adapt(detector, img, ad.AdaptConfig(n_homographies=3), seed=0), 0.015, 4.0)
        assert raster_used == [True, True]
        cl.select_points(ev.random_points(img.shape, 300, np.random.default_rng(0)), 4.0, 300)
        assert raster_used == [True, True, False]


class TestHeatmapToPoints:
    def test_all_zero_empty(self):
        assert len(cl.heatmap_to_points(np.zeros((10, 10)), 0.1, 4.0)) == 0

    def test_single_spike(self):
        hm = np.zeros((10, 10), dtype=np.float32)
        hm[4, 7] = 1.0
        pts = cl.heatmap_to_points(hm, 0.1, 4.0)
        np.testing.assert_array_equal(pts, [[7.0, 4.0, 1.0]])

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        hm = rng.random((20, 20)).astype(np.float32)
        thr, radius, k = 0.5, 3.0, 10
        got = cl.heatmap_to_points(hm, thr, radius, k)
        ys, xs = np.nonzero(hm >= thr)
        cand = np.stack([xs.astype(float), ys.astype(float), hm[ys, xs].astype(float)], axis=1)
        order = sorted(range(len(cand)), key=lambda i: (-cand[i, 2], cand[i, 1], cand[i, 0]))
        acc = []
        for i in order:
            if all(np.hypot(cand[i, 0] - a[0], cand[i, 1] - a[1]) > radius for a in acc):
                acc.append(cand[i])
        np.testing.assert_array_equal(got, np.asarray(acc)[:k])

    def test_top_k_zero_unlimited(self):
        hm = np.eye(12, dtype=np.float32)
        pts = cl.heatmap_to_points(hm, 0.5, 0.0, 0)
        assert len(pts) == 12

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k must be >= 0"):
            cl.heatmap_to_points(np.eye(12, dtype=np.float32), 0.5, 0.0, -1)

