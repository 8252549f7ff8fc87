import warnings

import numpy as np
import pytest

from pointpipe import imaging as im


def bilinear_gather(img, xs, ys):
    """bilinear_many through four 2-D fancy indexings of clamped neighbours."""
    img = np.asarray(img)
    hgt, wdt = img.shape
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, wdt - 1)
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, hgt - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, wdt - 1)
    y1 = np.minimum(y0 + 1, hgt - 1)
    fx = xs - x0
    fy = ys - y0
    v00, v01, v10, v11 = img[y0, x0], img[y0, x1], img[y1, x0], img[y1, x1]
    top = v00 + (v01 - v00) * fx
    bot = v10 + (v11 - v10) * fx
    return top + (bot - top) * fy


class TestBilinear:
    def test_integer_pixel_exact(self):
        rng = np.random.default_rng(0)
        img = rng.random((9, 11)).astype(np.float32)
        for _ in range(30):
            x = int(rng.integers(0, 11))
            y = int(rng.integers(0, 9))
            assert im.bilinear_many(img, [x], [y])[0] == pytest.approx(float(img[y, x]), abs=1e-7)

    def test_constant_everywhere(self):
        img = np.full((8, 8), 0.37, dtype=np.float32)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.uniform(-2, 9, 2)
            assert im.bilinear_many(img, [x], [y])[0] == pytest.approx(0.37, abs=1e-7)

    def test_two_pixel_blend(self):
        img = np.array([[0.0, 1.0]], dtype=np.float32)
        assert im.bilinear_many(img, [0.25], [0.0])[0] == pytest.approx(0.25, abs=1e-12)


    @staticmethod
    def assert_equals_gather(img, xs, ys):
        with np.errstate(invalid="ignore"):  # inf - inf in non-finite images
            got = im.bilinear_many(img, xs, ys)
            want = bilinear_gather(img, xs, ys)
        assert got.shape == want.shape and got.dtype == want.dtype
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_equals_gather_with_clamping_and_borders(self):
        rng = np.random.default_rng(7)
        img = rng.random((23, 31)).astype(np.float32)
        xs = np.concatenate([rng.uniform(-5.0, 36.0, 2000), [0.0, 30.0, 30.0, 29.5, -1e9, 1e9, 30.0]])
        ys = np.concatenate([rng.uniform(-5.0, 28.0, 2000), [0.0, 22.0, 0.0, 22.0, 1e9, -1e9, 21.25]])
        self.assert_equals_gather(img, xs, ys)  # (30, 22) is the last column and row
        self.assert_equals_gather(img.astype(np.float64), xs, ys)

    def test_equals_gather_on_non_contiguous_images_and_2d_coordinates(self):
        rng = np.random.default_rng(8)
        base = rng.random((40, 60)).astype(np.float32)
        xs = rng.uniform(-2.0, 32.0, (17, 19))
        ys = rng.uniform(-2.0, 32.0, (17, 19))
        xs[0, :] = 29.0  # last column of the (20, 30) view
        ys[:, 0] = 19.0  # last row
        for img in (base[::2, ::2], base[:30, :30].T, base[5:35, 10:40]):
            self.assert_equals_gather(img, xs, ys)

    def test_equals_gather_on_non_finite_pixels(self):
        # at the last column fx is 0, so only a non-finite right neighbour shows
        # which pixel was read there
        img = np.arange(48, dtype=np.float32).reshape(6, 8)
        img[:, 0] = np.inf
        img[2, 3] = np.nan
        ys = np.repeat(np.arange(6.0), 3)
        xs = np.tile([7.0, 2.5, 3.0], 6)
        self.assert_equals_gather(img, xs, ys)


class TestNonFiniteCoordinates:
    """NaN (and, for bicubic, +-inf) coordinates raise before floor's cast to intp, without a warning."""

    @pytest.mark.parametrize("sample,xs,ys,bad", [
        (im.bilinear_many, [1.0], [np.nan], 1),
        (im.bilinear_many, [np.nan, 2.0, np.nan], [1.0, np.nan, np.nan], 4),
        (im.bicubic_many, [np.nan], [1.0], 1),
        (im.bicubic_many, [np.inf, 1.0], [1.0, -np.inf], 2),
        (im.bicubic_many, [np.inf, -np.inf], [1.0, 1.0], 2),
    ])
    def test_raises_with_function_and_count(self, sample, xs, ys, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(im.NonFiniteCoordinate, match=rf"^{sample.__name__}: {bad} of {2 * len(xs)} "):
                sample(np.zeros((3, 4)), xs, ys)

    def test_bilinear_still_clamps_infinity(self):
        img = np.arange(12.0).reshape(3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = im.bilinear_many(img, [np.inf, -np.inf, 1.0], [1.0, np.inf, -np.inf])
        np.testing.assert_array_equal(got, [img[1, 3], img[2, 0], img[0, 1]])


class TestBicubic:
    def test_integer_pixel_exact(self):
        rng = np.random.default_rng(2)
        img = rng.random((10, 10)).astype(np.float64)
        for _ in range(30):
            x = int(rng.integers(0, 10))
            y = int(rng.integers(0, 10))
            assert im.bicubic_many(img, [x], [y])[0] == pytest.approx(float(img[y, x]), abs=1e-12)

    def test_constant_everywhere(self):
        img = np.full((8, 8), 0.61, dtype=np.float32)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(0, 7, 2)
            assert im.bicubic_many(img, [x], [y])[0] == pytest.approx(0.61, abs=1e-6)

    def test_reproduces_linear_ramp(self):
        # Catmull-Rom interpolates degree-1 polynomials exactly (interior).
        yy, xx = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        img = (0.03 * xx + 0.05 * yy).astype(np.float64)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(1.0, 10.0)
            y = rng.uniform(1.0, 10.0)
            assert im.bicubic_many(img, [x], [y])[0] == pytest.approx(0.03 * x + 0.05 * y, abs=1e-6)

    def test_matches_bilinear_at_integers(self):
        rng = np.random.default_rng(5)
        img = rng.random((7, 7)).astype(np.float32)
        for y in range(7):
            for x in range(7):
                assert im.bicubic_many(img, [x], [y])[0] == pytest.approx(
                    im.bilinear_many(img, [x], [y])[0], abs=1e-6
                )


class TestNoise:
    def test_zero_magnitude_is_noop_for_every_kind(self):
        rng = np.random.default_rng(6)
        img = rng.random((16, 16)).astype(np.float32)
        for kind in im.NOISE_KINDS:
            out = im.add_noise(img, im.NoiseSpec(kind, 0.0, seed=3))
            np.testing.assert_array_equal(out, img)

    def test_brightness_shift(self):
        img = np.full((8, 8), 0.5, dtype=np.float32)
        out = im.add_noise(img, im.NoiseSpec("brightness_shift", 0.1))
        np.testing.assert_allclose(out, 0.6, atol=1e-7)

    def test_gaussian_statistics(self):
        img = np.full((128, 128), 0.5, dtype=np.float32)
        out = im.add_noise(img, im.NoiseSpec("gaussian_additive", 0.05, seed=42))
        assert abs(float(out.mean()) - 0.5) < 0.01
        assert abs(float(out.std()) - 0.05) < 0.01

    def test_seed_reproducible_bitwise(self):
        rng = np.random.default_rng(7)
        img = rng.random((32, 32)).astype(np.float32)
        for kind in im.NOISE_KINDS:
            spec = im.NoiseSpec(kind, im.DEFAULT_MAGNITUDES[kind], seed=99)
            np.testing.assert_array_equal(im.add_noise(img, spec), im.add_noise(img, spec))

    def test_all_outputs_clamped(self):
        rng = np.random.default_rng(8)
        img = rng.random((24, 24)).astype(np.float32)
        for kind in im.NOISE_KINDS:
            out = im.add_noise(img, im.NoiseSpec(kind, 2.0 * im.DEFAULT_MAGNITUDES[kind], seed=1))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_salt_pepper_fraction(self):
        img = np.full((100, 100), 0.5, dtype=np.float32)
        out = im.add_noise(img, im.NoiseSpec("salt_pepper", 0.1, seed=5))
        changed = np.count_nonzero(out != 0.5)
        assert 700 < changed < 1300
        assert set(np.unique(out)) <= {np.float32(0.0), np.float32(0.5), np.float32(1.0)}

    def test_contrast_scale(self):
        img = np.array([[0.2, 0.8]], dtype=np.float32)
        out = im.add_noise(img, im.NoiseSpec("contrast_scale", 0.5))
        np.testing.assert_allclose(out, [[0.35, 0.65]], atol=1e-7)

    def test_random_erase_zeroes_bounded_area(self):
        img = np.full((50, 50), 0.9, dtype=np.float32)
        out = im.add_noise(img, im.NoiseSpec("random_erase", 0.05, seed=11))
        assert np.count_nonzero(out == 0.0) <= 0.05 * 2500 + 1

    def test_battery_reproducible_and_clamped(self):
        rng = np.random.default_rng(9)
        img = rng.random((48, 48)).astype(np.float32)
        a = im.apply_noise_battery(img, np.random.default_rng(1234))
        b = im.apply_noise_battery(img, np.random.default_rng(1234))
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestNoiseBlend:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.clean = rng.random((16, 16)).astype(np.float32)
        self.noisy = rng.random((16, 16)).astype(np.float32)
        self.rand = rng.random((16, 16)).astype(np.float32)

    def test_endpoints(self):
        np.testing.assert_allclose(im.noise_blend(self.clean, self.noisy, self.rand, 0.0), self.clean, atol=1e-7)
        np.testing.assert_allclose(im.noise_blend(self.clean, self.noisy, self.rand, 1.0), self.noisy, atol=1e-7)
        np.testing.assert_allclose(im.noise_blend(self.clean, self.noisy, self.rand, 2.0), self.rand, atol=1e-7)

    def test_continuous_at_one(self):
        left = im.noise_blend(self.clean, self.noisy, self.rand, 1.0 - 1e-9)
        right = im.noise_blend(self.clean, self.noisy, self.rand, 1.0 + 1e-9)
        np.testing.assert_allclose(left, right, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(im.DimensionMismatch):
            im.noise_blend(self.clean, self.noisy[:8], self.rand, 0.5)


class TestPgm:
    def test_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.random((20, 30)).astype(np.float32)
        p = tmp_path / "img.pgm"
        im.write_pgm(p, img)
        back = im.read_pgm(p)
        assert back.shape == img.shape
        # quantization to 8 bits happens exactly once
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-7
        im.write_pgm(p, back)
        np.testing.assert_array_equal(im.read_pgm(p), back)

    def test_comment_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        data = bytes(range(6))
        p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + data)
        img = im.read_pgm(p)
        assert img.shape == (2, 3)
        np.testing.assert_allclose(img.ravel() * 255.0, np.arange(6), atol=1e-5)

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError):
            im.read_pgm(p)

    def test_truncated_pixel_data_names_file_and_offset(self, tmp_path):
        p = tmp_path / "half.pgm"
        im.write_pgm(p, np.zeros((20, 30), dtype=np.float32))
        header = len(b"P5\n30 20\n255\n")
        p.write_bytes(p.read_bytes()[: header + 300])
        with pytest.raises(im.TruncatedFile) as exc:
            im.read_pgm(p)
        assert str(exc.value) == (f"{p}: PGM pixel data from byte {header} needs 600 bytes for 30x20, "
                                  f"but the file ends at byte {header + 300}")

    def test_truncated_header_names_field_and_offset(self, tmp_path):
        p = tmp_path / "five.pgm"
        p.write_bytes(b"P5\n3 ")
        with pytest.raises(im.TruncatedFile) as exc:
            im.read_pgm(p)
        assert str(exc.value) == f"{p}: PGM header ends at byte 5, before the height"

    def test_non_numeric_header_field(self, tmp_path):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P5\n# c\nabc 2\n255\n" + bytes(6))
        with pytest.raises(ValueError, match=r"PGM width at byte 7 is b'abc', not a number"):
            im.read_pgm(p)


class TestResize:
    """Resampling onto a grid whose corner pixel centers align with the source's."""

    @staticmethod
    def resize(img, shape):
        h2, w2 = shape
        xx, yy = np.meshgrid(np.linspace(0.0, img.shape[1] - 1, w2), np.linspace(0.0, img.shape[0] - 1, h2))
        return im.bilinear_many(img, xx.ravel(), yy.ravel()).reshape(shape)

    def test_identity(self):
        rng = np.random.default_rng(12)
        img = rng.random((8, 8)).astype(np.float32)
        np.testing.assert_array_equal(self.resize(img, (8, 8)), img)

    def test_downsample_constant(self):
        img = np.full((16, 16), 0.4, dtype=np.float32)
        out = self.resize(img, (8, 8))
        np.testing.assert_allclose(out, 0.4, atol=1e-6)

    def test_corners_align(self):
        rng = np.random.default_rng(13)
        img = rng.random((9, 9)).astype(np.float32)
        out = self.resize(img, (5, 5))
        assert out[0, 0] == pytest.approx(float(img[0, 0]), abs=1e-6)
        assert out[-1, -1] == pytest.approx(float(img[-1, -1]), abs=1e-6)


class TestOverlay:
    def test_draws_cross(self):
        img = np.full((11, 11), 0.0, dtype=np.float32)
        out = im.overlay_points(img, np.array([[5.0, 5.0, 1.0]]))
        assert out[5, 5] == 1.0
        assert out[5, 2] == 1.0 and out[5, 8] == 1.0
        assert out[2, 5] == 1.0 and out[8, 5] == 1.0
        assert out[2, 2] == 0.0
