import tracemalloc

import numpy as np
import pytest

from pointpipe import geometry as geo
from pointpipe import imaging as im


# ---------------------------------------------------------------------------
# the expressions that project and warp_image replaced; the new code must
# return the same bytes


def project_expression(h, pts):
    """geo.project's three homogeneous rows, each as one expression."""
    x, y = pts[..., 0], pts[..., 1]
    return tuple(h[..., r, 0, None] * x + h[..., r, 1, None] * y + h[..., r, 2, None] for r in range(3))


def warp_image_meshgrid(img, h):
    """geo.warp_image computed on full meshgrid coordinate arrays."""
    hgt, wdt = img.shape
    hinv = geo.invert(h)
    uu, vv = np.meshgrid(np.arange(wdt, dtype=np.float64), np.arange(hgt, dtype=np.float64))
    w = hinv[2, 0] * uu + hinv[2, 1] * vv + hinv[2, 2]
    finite = np.abs(w) >= geo.DET_EPS
    wsafe = np.where(finite, w, 1.0)
    sx = (hinv[0, 0] * uu + hinv[0, 1] * vv + hinv[0, 2]) / wsafe
    sy = (hinv[1, 0] * uu + hinv[1, 1] * vv + hinv[1, 2]) / wsafe
    mask = finite & (sx >= 0.0) & (sx <= wdt - 1) & (sy >= 0.0) & (sy <= hgt - 1)
    out = im.bilinear_many(img, sx.ravel(), sy.ravel()).reshape(hgt, wdt)
    return np.where(mask, out, 0.0).astype(img.dtype, copy=False), mask


def random_homographies(rng, n, shape=(240, 320)):
    """Pixel-frame adaptation draws, then plain normal matrices of mixed scale."""
    ranges = geo.ranges_preset("adaptation")
    hs = [geo.to_pixel_frame(geo.sample_homography(ranges, rng), shape) for _ in range(n)]
    hs += [rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 3, (3, 3)) for _ in range(n)]
    return np.stack(hs)


def unit_square():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def polygon_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def is_convex(pts):
    d = np.roll(pts, -1, axis=0) - pts
    cross = d[:, 0] * np.roll(d, -1, axis=0)[:, 1] - d[:, 1] * np.roll(d, -1, axis=0)[:, 0]
    return np.all(cross > 0) or np.all(cross < 0)


class TestApply:
    def test_identity_is_exact(self):
        out = geo.apply(geo.identity(), [(7.5, 3.0)])
        assert out[0, 0] == 7.5 and out[0, 1] == 3.0

    def test_pure_translation(self):
        out = geo.apply(geo.translation(2.0, 3.0), [(4.0, 4.0)])
        np.testing.assert_array_equal(out, [[6.0, 7.0]])

    def test_projective_division(self):
        # bottom row (0.001, 0, 1): w = 1.1 at x=100, divide by hand
        h = geo.identity()
        h[2, 0] = 0.001
        out = geo.apply(h, [(100.0, 50.0)])
        np.testing.assert_allclose(out, [[100.0 / 1.1, 50.0 / 1.1]], rtol=0, atol=1e-12)

    def test_degenerate_projection_raises(self):
        h = geo.identity()
        h[2, :] = [0.0, 0.0, 1.0]
        h[2, 2] = 1.0
        h[2, 0] = -0.01
        with pytest.raises(geo.DegenerateProjection):
            geo.apply(h, [(100.0, 0.0)])

    def test_affine_preserves_collinearity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = geo.identity()
            h[:2, :] = rng.normal(0, 1, (2, 3))
            if abs(np.linalg.det(h)) < 1e-6:
                continue
            p0 = rng.uniform(-10, 10, 2)
            d = rng.uniform(-5, 5, 2)
            pts = np.stack([p0, p0 + d, p0 + 2.13 * d])
            out = geo.apply(h, pts)
            v1 = out[1] - out[0]
            v2 = out[2] - out[0]
            assert abs(v1[0] * v2[1] - v1[1] * v2[0]) < 1e-9 * max(1.0, np.abs(out).max() ** 2)


class TestProjectEqualsExpression:
    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_single_homographies(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(-50.0, 400.0, (1000, 2))
        for h in random_homographies(rng, 6):
            self.assert_same(geo.project(h, pts), project_expression(h, pts))
            u, v, w = project_expression(h, pts)
            assert geo.apply(h, pts).tobytes() == np.stack([u / w, v / w], axis=-1).tobytes()

    def test_stacked_homographies(self):
        rng = np.random.default_rng(32)
        hs = random_homographies(rng, 8)
        shared = rng.uniform(-50.0, 400.0, (500, 2))  # one point set for every matrix, as RANSAC scores
        self.assert_same(geo.project(hs, shared), project_expression(hs, shared))
        per_matrix = rng.uniform(-50.0, 400.0, (len(hs), 4, 2))  # one set per matrix, as the DLT normalizes
        self.assert_same(geo.project(hs, per_matrix), project_expression(hs, per_matrix))
        u, v, w = project_expression(hs, per_matrix)
        assert geo.apply(hs, per_matrix).tobytes() == np.stack([u / w, v / w], axis=-1).tobytes()


class TestComposeInvert:
    def test_compose_identity(self):
        np.testing.assert_array_equal(geo.identity() @ geo.identity(), geo.identity())

    def test_compose_translations(self):
        got = geo.translation(1, 0) @ geo.translation(0, 1)
        np.testing.assert_allclose(got, geo.translation(1, 1), atol=0)

    def test_invert_identity(self):
        np.testing.assert_allclose(geo.invert(geo.identity()), geo.identity(), atol=1e-15)

    def test_invert_translation(self):
        np.testing.assert_allclose(geo.invert(geo.translation(2, 3)), geo.translation(-2, -3), atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(geo.Singular):
            geo.invert(np.zeros((3, 3)))

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(11)
        ranges = geo.ranges_preset("adaptation")
        for _ in range(1000):
            h = geo.sample_homography(ranges, rng)
            got = geo.normalize(h @ geo.invert(h))
            np.testing.assert_allclose(got, geo.identity(), atol=1e-9)

    def test_invert_roundtrips_corners(self):
        rng = np.random.default_rng(13)
        ranges = geo.ranges_preset("adaptation")
        corners = unit_square()
        for _ in range(200):
            h = geo.sample_homography(ranges, rng)
            back = geo.apply(geo.invert(h), geo.apply(h, corners))
            assert np.abs(back - corners).max() < 1e-9

    def test_compose_associative(self):
        rng = np.random.default_rng(17)
        ranges = geo.ranges_preset("adaptation")
        for _ in range(100):
            a = geo.sample_homography(ranges, rng)
            b = geo.sample_homography(ranges, rng)
            c = geo.sample_homography(ranges, rng)
            lhs = geo.normalize((a @ b) @ c)
            rhs = geo.normalize(a @ (b @ c))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(19)
        ranges = geo.ranges_preset("adaptation")
        pts = rng.uniform(0, 1, (20, 2))
        for _ in range(50):
            a = geo.sample_homography(ranges, rng)
            b = geo.sample_homography(ranges, rng)
            np.testing.assert_allclose(
                geo.apply(a @ b, pts), geo.apply(a, geo.apply(b, pts)), atol=1e-9
            )


class TestSampleHomography:
    def test_same_seed_bitwise_identical(self):
        ranges = geo.ranges_preset("adaptation")
        h1 = geo.sample_homography(ranges, np.random.default_rng(123))
        h2 = geo.sample_homography(ranges, np.random.default_rng(123))
        np.testing.assert_array_equal(h1, h2)

    def test_normalized(self):
        ranges = geo.ranges_preset("training")
        h = geo.sample_homography(ranges, np.random.default_rng(5))
        assert h[2, 2] == 1.0

    def test_warped_unit_square_convex_and_bounded_area(self):
        rng = np.random.default_rng(2024)
        ranges = geo.ranges_preset("adaptation")
        sq = unit_square()
        for _ in range(10_000):
            h = geo.sample_homography(ranges, rng)
            warped = geo.apply(h, sq)
            assert is_convex(warped)
            area = polygon_area(warped)
            assert 0.25 <= area <= 4.0


class TestWarpImage:
    def smooth_image(self, h=48, w=64):
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        img = 0.5 + 0.3 * np.sin(xx / 9.0) * np.cos(yy / 7.0)
        return img.astype(np.float32)

    def test_identity_warp_is_exact(self):
        img = self.smooth_image()
        out, mask = geo.warp_image(img, geo.identity())
        np.testing.assert_array_equal(out, img)
        assert mask.all()

    def test_integer_translation(self):
        img = self.smooth_image()
        out, mask = geo.warp_image(img, geo.translation(5, 0))
        np.testing.assert_allclose(out[:, 5:], img[:, :-5], atol=1e-6)
        assert not mask[:, :5].any()
        assert mask[:, 5:].all()
        assert np.all(out[:, :5] == 0)

    def test_roundtrip_interior_close(self):
        img = self.smooth_image(64, 64)
        rng = np.random.default_rng(3)
        ranges = geo.ranges_preset("training")
        for _ in range(5):
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
            warped, m1 = geo.warp_image(img, h)
            back, m2 = geo.warp_image(warped, geo.invert(h))
            # mask of the first warp transported into the second frame
            m1f, m1m = geo.warp_image(m1.astype(np.float32), geo.invert(h))
            interior = m2 & m1m & (m1f >= 1.0 - 1e-6)
            assert interior.sum() > 200
            assert np.abs(back[interior] - img[interior]).max() < 2e-2

    def test_mask_matches_backprojection_bounds(self):
        img = self.smooth_image(40, 56)
        rng = np.random.default_rng(4)
        h = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("adaptation"), rng), img.shape)
        _, mask = geo.warp_image(img, h)
        hinv = geo.invert(h)
        for _ in range(1000):
            u = int(rng.integers(0, 56))
            v = int(rng.integers(0, 40))
            sx, sy = geo.apply(hinv, [(float(u), float(v))])[0]
            expect = (0.0 <= sx <= 55.0) and (0.0 <= sy <= 39.0)
            assert mask[v, u] == expect


    def test_equals_meshgrid_coordinates(self):
        rng = np.random.default_rng(5)
        img = rng.random((37, 53)).astype(np.float32)  # non-square, so swapped axes show
        hs = list(random_homographies(rng, 4, img.shape)[:4])
        hs.append(geo.to_pixel_frame(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [1.5, -0.4, 1.0]]), img.shape))
        for h in hs:  # the last one sends part of the frame through the plane at infinity
            out, mask = geo.warp_image(img, h)
            ref_out, ref_mask = warp_image_meshgrid(img, h)
            assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
            np.testing.assert_array_equal(mask, ref_mask)

    @pytest.mark.parametrize("shape,dtype", [
        ((240, 320), np.float32),  # the benchmark size: bands of 102, 102 and 36 rows
        ((250, 317), np.float32),  # 103-row bands that do not split the height evenly
        ((1, 40000), np.float32),  # one row wider than a band
        ((300, 1), np.float32),  # one column: the whole image in one band
        ((240, 320), np.float64),
    ])
    def test_bands_equal_whole_image(self, shape, dtype):
        rng = np.random.default_rng(shape[0] * shape[1])
        img = rng.random(shape).astype(dtype)
        hs = list(random_homographies(rng, 2, shape)[:2])
        # part of the frame goes through the plane at infinity
        hs.append(geo.to_pixel_frame(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [1.5, -0.4, 1.0]]), shape))
        for h in hs:
            out, mask = geo.warp_image(img, h)
            ref_out, ref_mask = warp_image_meshgrid(img, h)
            assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
            np.testing.assert_array_equal(mask, ref_mask)
        assert not mask.all() and mask.any()

    def test_band_temporaries_stay_small(self):
        img = np.random.default_rng(6).random((240, 320)).astype(np.float32)
        h = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("adaptation"), np.random.default_rng(7)),
                               img.shape)
        tracemalloc.start()
        try:
            geo.warp_image(img, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 plane of the image is 614 kB; the whole-image pass peaked at 10.8 MB, the bands at 5.5 MB
        assert peak < 7e6, peak


class TestHtxtFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        h = geo.sample_homography(geo.ranges_preset("adaptation"), rng)
        p = tmp_path / "h.htxt"
        geo.save_homography(p, h)
        np.testing.assert_array_equal(geo.load_homography(p), h)
        text = p.read_text().split()
        assert len(text) == 9

    def test_bad_file(self, tmp_path):
        p = tmp_path / "bad.htxt"
        p.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            geo.load_homography(p)
