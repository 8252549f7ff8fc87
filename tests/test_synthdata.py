import hashlib

import numpy as np
import pytest

from pointpipe import geometry as geo
from pointpipe import synthdata as sd


def rng_for(seed):
    return np.random.default_rng(seed)


class TestRenderSample:
    def test_quadrilateral_has_four_vertices(self):
        s = sd.render_sample(sd.ShapeCategory.QUADRILATERAL, (96, 96), rng_for(1))
        assert len(s.points) == 4
        assert s.image.shape == (96, 96)

    def test_triangle_has_three(self):
        s = sd.render_sample(sd.ShapeCategory.TRIANGLE, (96, 96), rng_for(2))
        assert len(s.points) == 3

    def test_negatives_have_no_points(self):
        for cat in (sd.ShapeCategory.ELLIPSES, sd.ShapeCategory.GAUSSIAN_NOISE):
            s = sd.render_sample(cat, (96, 96), rng_for(3))
            assert len(s.points) == 0

    def test_checkerboard_count_by_construction(self):
        s = sd.render_sample(sd.ShapeCategory.CHECKERBOARD, (96, 96), rng_for(4))
        rows, cols = s.meta["rows"], s.meta["cols"]
        assert len(s.points) == (rows - 1) * (cols - 1) + 4

    def test_star_center_plus_tips(self):
        s = sd.render_sample(sd.ShapeCategory.STAR, (96, 96), rng_for(5))
        assert len(s.points) == s.meta["spokes"] + 1

    @pytest.mark.parametrize("size", [(32, 48), (32, 32), (48, 32), (40, 40)])
    def test_star_renders_near_the_size_floor(self, size):
        for seed in range(60):
            s = sd.render_sample(sd.ShapeCategory.STAR, size, rng_for(seed))
            assert len(s.points) == s.meta["spokes"] + 1

    def test_cube_has_seven_visible_corners(self):
        s = sd.render_sample(sd.ShapeCategory.CUBE, (96, 96), rng_for(6))
        assert len(s.points) == 7

    def test_line_segments_endpoints(self):
        s = sd.render_sample(sd.ShapeCategory.LINE_SEGMENTS, (96, 96), rng_for(7))
        assert len(s.points) == 2 * s.meta["segments"]

    def test_stripes_corners_only(self):
        s = sd.render_sample(sd.ShapeCategory.STRIPES, (96, 96), rng_for(8))
        assert len(s.points) == 4

    def test_deterministic_per_seed(self):
        for cat in sd.ALL_CATEGORIES:
            a = sd.render_sample(cat, (96, 96), rng_for(99))
            b = sd.render_sample(cat, (96, 96), rng_for(99))
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.points, b.points)

    def test_all_categories_satisfy_label_invariants(self):
        for cat in sd.ALL_CATEGORIES:
            for seed in range(5):
                s = sd.render_sample(cat, (96, 96), rng_for(1000 + seed))
                if len(s.points) == 0:
                    assert cat in sd.NEGATIVE_CATEGORIES or len(s.points) > 0
                    continue
                xy = s.points[:, :2]
                assert xy[:, 0].min() > 0 and xy[:, 0].max() < 95
                assert xy[:, 1].min() > 0 and xy[:, 1].max() < 95
                if len(xy) > 1:
                    d = np.linalg.norm(xy[:, None] - xy[None, :], axis=2)
                    d[np.diag_indices(len(xy))] = np.inf
                    assert d.min() >= sd.MIN_POINT_SPACING

    def test_image_values_in_range(self):
        for cat in sd.ALL_CATEGORIES:
            s = sd.render_sample(cat, (64, 64), rng_for(12))
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.image.dtype == np.float32

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValueError):
            sd.render_sample(sd.ShapeCategory.TRIANGLE, (16, 16), rng_for(0))


class TestStream:
    def test_same_seed_identical_prefix(self):
        cfg = sd.StreamConfig(seed=7)
        for i in range(20):
            a = sd.sample_at(cfg, i)
            b = sd.sample_at(cfg, i)
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.points, b.points)
            assert a.category == b.category

    def test_pure_mix(self):
        cfg = sd.StreamConfig(mix={sd.ShapeCategory.QUADRILATERAL: 1.0}, seed=3, noise=False)
        for i in range(10):
            assert sd.sample_at(cfg, i).category is sd.ShapeCategory.QUADRILATERAL

    def test_uniform_mix_frequencies(self):
        # multinomial: sd of each count ~ sqrt(n p (1-p)); 3 sigma bound
        n = 3000
        cfg = sd.StreamConfig(seed=11, noise=False)
        # the category is the first draw of the sample's generator, so it is
        # drawn here without rendering; a prefix is checked against sample_at
        cats, probs = cfg.category_table()
        drawn = []
        for i in range(n):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
            drawn.append(cats[int(rng.choice(len(cats), p=probs))])
        for i in range(50):
            assert sd.sample_at(cfg, i).category is drawn[i]
        counts = {c: 0 for c in sd.ALL_CATEGORIES}
        for c in drawn:
            counts[c] += 1
        p = 1.0 / len(sd.ALL_CATEGORIES)
        bound = 3.0 * np.sqrt(n * p * (1 - p))
        for c, k in counts.items():
            assert abs(k - n * p) <= bound, (c, k)


class TestHomographicAugment:
    def test_identity_unchanged(self):
        s = sd.render_sample(sd.ShapeCategory.STAR, (96, 96), rng_for(13))
        out = sd.homographic_augment(s, geo.identity())
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.points, s.points)

    def test_translation_drops_departed_points(self):
        s = sd.render_sample(sd.ShapeCategory.QUADRILATERAL, (96, 96), rng_for(14))
        xs = s.points[:, 0]
        # push the rightmost vertex out of frame
        shift = 95.0 - xs.max() + 5.0
        out = sd.homographic_augment(s, geo.translation(shift, 0))
        assert len(out.points) < len(s.points)

    def test_rotation_transports_points_exactly(self):
        s = sd.render_sample(sd.ShapeCategory.QUADRILATERAL, (96, 96), rng_for(15))
        c = geo.translation(47.5, 47.5) @ geo.rotation(np.pi / 6) @ geo.translation(-47.5, -47.5)
        out = sd.homographic_augment(s, c)
        expect = geo.apply(c, s.points[:, :2])
        for p in out.points[:, :2]:
            assert np.min(np.linalg.norm(expect - p, axis=1)) < 1e-9


class TestRenderSquare:
    def test_width_three(self):
        s = sd.render_square(3)
        corners = s.points[:4, :2]
        center = s.points[4, :2]
        # corners at center +- 1
        np.testing.assert_array_equal(center, [47.5, 47.5])
        np.testing.assert_array_equal(sorted(corners[:, 0].tolist()), [46.5, 46.5, 48.5, 48.5])

    def test_width_91_margin(self):
        s = sd.render_square(91)
        corners = s.points[:4, :2]
        # (96 - 91) / 2 = 2.5 px from the canvas border on every side
        assert corners.min() == 2.5
        assert corners.max() == 95.0 - 2.5

    def test_always_five_points(self):
        for w in (3, 21, 45, 91):
            assert len(sd.render_square(w).points) == 5

    def test_rejects_bad_widths(self):
        for w in (2, 1, 92, 93, 4):
            with pytest.raises(sd.WidthOutOfRange):
                sd.render_square(w)

    def test_square_is_black_on_white(self):
        s = sd.render_square(21)
        assert s.image[47, 47] == 0.0
        assert s.image[48, 48] == 0.0
        assert s.image[0, 0] == 1.0


class TestComposite:
    def test_composites_have_points_and_valid_spacing(self):
        for seed in range(3):
            s = sd.render_composite((120, 160), rng_for(30 + seed))
            assert len(s.points) >= 4
            xy = s.points[:, :2]
            d = np.linalg.norm(xy[:, None] - xy[None, :], axis=2)
            d[np.diag_indices(len(xy))] = np.inf
            assert d.min() >= sd.MIN_POINT_SPACING

    def test_deterministic(self):
        a = sd.render_composite((96, 96), rng_for(40))
        b = sd.render_composite((96, 96), rng_for(40))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.points, b.points)


# sha256 of the renders in test_renders_keep_their_bytes, recorded before the renderer shared its
# clamped-box, inside-margin and board helpers; every rng draw keeps its order, so the bytes stay.  The
# smallest size synth accepts (32x48) and a non-square one (40x56) were recorded before the fills
# broadcast a row against a column and the downsample spelled out its sums, so the renderer is
# pinned at the size floor too
RENDER_SHA256 = {
    (96, 96): "e6feb919f632105ef40bd19e2f27dc19152f850c2ed20b422bbde16f4b1a93a9",
    (64, 80): "1c0bda2f1f5b2f563bc764179cd1dff179ca9b17d124603195018b3d362c8058",
    (240, 320): "42f33ded8b0f56be30cf1d754a376d2f2005a122f950e19b778027c2758a72a2",
    (32, 48): "89090b4ae13de4441a56f9252837562601d89d52f4f421a981cbbf86a0845f45",
    (40, 56): "b5135a224b8881f8ace0272127f7f664b7f37a5d7f1a016645228373ea732874",
}


@pytest.mark.parametrize("size", list(RENDER_SHA256))
def test_renders_keep_their_bytes(size):
    digest = hashlib.sha256()
    for seed in range(3):
        stream = sd.StreamConfig(height=size[0], width=size[1], seed=seed)
        samples = [sd.sample_at(stream, i) for i in range(4)]
        samples += [sd.render_sample(cat, size, rng_for(seed)) for cat in sd.ShapeCategory]
        samples.append(sd.render_composite(size, rng_for(seed)))
        for sample in samples:
            digest.update(sample.image.tobytes())
            digest.update(sample.points.tobytes())
    assert digest.hexdigest() == RENDER_SHA256[size]


def block_mean_downsample(buf, h, w):
    """The canvas's first downsample: numpy's float32 mean over each 4x4 block, then the clip."""
    return np.clip(buf.reshape(h, 4, w, 4).mean(axis=(1, 3)), 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("size", [(96, 96), (240, 320)])
def test_downsample_equals_block_mean(size):
    """The spelled-out sums give the bytes of numpy's reduction, whose order was measured on numpy 2.4.6."""
    h, w = size
    rng = np.random.default_rng(h + w)
    nan_bits = np.array([0x7FC00000, 0xFFC00000, 0x7FC0BEEF, 0xFFC12345, 0x7F800001], dtype=np.uint32)
    canvases = [rng.random((4 * h, 4 * w), dtype=np.float32) for _ in range(3)]
    special = rng.random((4 * h, 4 * w), dtype=np.float32)
    special[:4, :4] = -0.0  # sums to +0.0 only when the sums start from +0.0
    special[4:8, :4] = np.float32(1e-45)  # subnormals
    flat = special.ravel()
    picks = rng.choice(flat.size, size=flat.size // 20, replace=False)
    flat[picks[0::3]] = nan_bits.view(np.float32)[rng.integers(len(nan_bits), size=len(picks[0::3]))]
    flat[picks[1::3]] = np.inf
    flat[picks[2::3]] = -np.inf
    canvases.append(special)
    for buf in canvases:
        with np.errstate(invalid="ignore"):
            want = block_mean_downsample(buf, h, w)
            got = sd._Canvas(h, w, buf.copy()).downsample()
        assert got.dtype == np.float32 and got.shape == (h, w)
        assert got.tobytes() == want.tobytes(), f"{np.count_nonzero(got.view(np.uint32) != want.view(np.uint32))} differ"


class TestPointsFile:
    def test_roundtrip_six_decimals(self, tmp_path):
        pts = np.array([[1.2345678, 9.1, 1.0], [0.0, 95.0, 0.25]])
        p = tmp_path / "a.pts"
        sd.write_points(p, pts)
        back = sd.read_points(p)
        np.testing.assert_allclose(back, pts, atol=5e-7)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "1.234568,9.100000,1.000000"

    def test_empty(self, tmp_path):
        p = tmp_path / "e.pts"
        sd.write_points(p, sd.empty_points())
        assert sd.read_points(p).shape == (0, 3)

    def test_malformed(self, tmp_path):
        p = tmp_path / "m.pts"
        p.write_text("1,2\n")
        with pytest.raises(ValueError):
            sd.read_points(p)
