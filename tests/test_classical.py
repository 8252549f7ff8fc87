import numpy as np
import pytest

from pointpipe import classical as cl


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

