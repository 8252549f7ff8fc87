import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pointpipe import adaptation as ad
from pointpipe import blas
from pointpipe import classical as cl
from pointpipe import evalsuite as ev
from pointpipe import geometry as geo
from pointpipe import synthdata as sd
from pointpipe.blas import openblas_threads
from pointpipe.neural import ARCH_PRESETS, PointNet


def harris_detector(img):
    return cl.harris(img)


def adapt_sequential(detector, img, cfg, seed=0):
    """ad.adapt as one loop over the warps on the caller's thread; the threaded version must match it bitwise."""
    img = np.asarray(img, dtype=np.float32)
    base = np.asarray(detector(img), dtype=np.float32)
    if cfg.n_homographies == 1:
        return base
    ranges = geo.ranges_preset("adaptation")
    accum = base.astype(np.float64)
    count = np.ones(img.shape, dtype=np.float64)
    for i in range(1, cfg.n_homographies):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4D, i)))
        h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
        hinv = geo.invert(h)
        warped, fwd_mask = geo.warp_image(img, h)
        response = np.asarray(detector(warped), dtype=np.float32)
        valid = ad._erode(fwd_mask, ad.MASK_EROSION)
        response = np.where(valid, response, 0.0)
        back, back_mask = geo.warp_image(response, hinv)
        cover_f, cover_m = geo.warp_image(valid.astype(np.float32), hinv)
        covered = back_mask & cover_m & (cover_f >= 1.0 - 1e-6)
        accum += np.where(covered, back, 0.0)
        count += covered
    out = accum / count
    return out.astype(np.float32)


def diamond_erosion(mask, r):
    """Pixels whose every in-image neighbor within L1 distance r is set."""
    hgt, wdt = mask.shape
    padded = np.pad(mask, r, constant_values=True)
    out = np.ones_like(mask)
    for dy in range(-r, r + 1):
        for dx in range(abs(dy) - r, r - abs(dy) + 1):
            out &= padded[r + dy : r + dy + hgt, r + dx : r + dx + wdt]
    return out


def step_corner(size=64, corner=(32, 32)):
    img = np.ones((size, size), dtype=np.float32)
    img[corner[1]:, corner[0]:] = 0.0
    return img


class TestAdapt:
    def test_single_homography_bitwise_base(self):
        img = sd.render_composite((64, 64), np.random.default_rng(0)).image
        cfg = ad.AdaptConfig(n_homographies=1)
        out = ad.adapt(harris_detector, img, cfg, seed=5)
        np.testing.assert_array_equal(out, harris_detector(img))

    def test_constant_detector_average_is_constant(self):
        img = sd.render_composite((64, 64), np.random.default_rng(1)).image
        cfg = ad.AdaptConfig(n_homographies=12)
        out = ad.adapt(lambda im: np.full(im.shape, 0.25, dtype=np.float32), img, cfg, seed=2)
        covered = out > 0
        assert covered.mean() > 0.9
        np.testing.assert_allclose(out[covered], 0.25, atol=2e-3)

    def test_argmax_stays_near_corner(self):
        img = step_corner()
        cfg = ad.AdaptConfig(n_homographies=100)
        base = harris_detector(img)
        by, bx = np.unravel_index(np.argmax(base), base.shape)
        out = ad.adapt(harris_detector, img, cfg, seed=3)
        oy, ox = np.unravel_index(np.argmax(out), out.shape)
        assert np.hypot(ox - bx, oy - by) <= 2.0

    def test_deterministic_per_seed(self):
        img = sd.render_composite((64, 64), np.random.default_rng(2)).image
        cfg = ad.AdaptConfig(n_homographies=8)
        a = ad.adapt(harris_detector, img, cfg, seed=9)
        b = ad.adapt(harris_detector, img, cfg, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_nonnegative_detector_stays_nonnegative(self):
        img = sd.render_composite((64, 64), np.random.default_rng(3)).image
        cfg = ad.AdaptConfig(n_homographies=10)
        out = ad.adapt(lambda im: cl.shi_tomasi(im), img, cfg, seed=1)
        assert out.min() >= 0.0

    def test_count_normalization_matches_mask_sum(self):
        img = sd.render_composite((48, 48), np.random.default_rng(4)).image
        n = 6
        seed = 7
        cfg = ad.AdaptConfig(n_homographies=n)
        # the intensities as the response: a constant one would average to 1 under any erosion
        out = ad.adapt(lambda im: im, img, cfg, seed=seed)
        # oracle: the eroded coverage masks give each pixel's count, same seed derivation
        count = np.ones(img.shape, dtype=np.float64)
        accum = img.astype(np.float64)
        for i in range(1, n):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4D, i)))
            h = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("adaptation"), rng), img.shape)
            hinv = geo.invert(h)
            warped, fwd = geo.warp_image(img, h)
            valid = diamond_erosion(fwd, ad.MASK_EROSION)
            resp = np.where(valid, warped, 0.0).astype(np.float32)
            back, bm = geo.warp_image(resp, hinv)
            cf, cm = geo.warp_image(valid.astype(np.float32), hinv)
            cov = bm & cm & (cf >= 1.0 - 1e-6)
            accum += np.where(cov, back, 0.0)
            count += cov
        np.testing.assert_allclose(out, accum / count, atol=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ad.AdaptConfig(n_homographies=0)


def signed_detector(img):
    """A third of the maps are +2**40, a third -2**40 (by a hash of the input), the rest the image.

    Summed in another order than the warps', the cancelling maps keep or lose
    the image's share, so the adapted map shows the order of the sums.
    """
    k = int(img.sum() * 1000) % 3
    return img if k == 0 else np.full(img.shape, 2.0**40 if k == 1 else -(2.0**40), dtype=np.float32)


class TestTwoThreads:
    """adapt at two ordered_map workers unless a test pins another count; the bytes are one sequential loop's."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cores", lambda: 2)

    @pytest.fixture(scope="class")
    def image(self):
        return sd.render_composite((100, 130), np.random.default_rng(50)).image

    @pytest.mark.parametrize("nh", [1, 2, 3, 4, 20])
    @pytest.mark.parametrize("name", ["micro", "harris", "signed"])
    def test_equals_sequential_loop(self, image, nh, name):
        detector = {
            "micro": PointNet(ARCH_PRESETS["micro"], with_descriptor=False, seed=4).heatmap,
            "harris": harris_detector,
            "signed": signed_detector,
        }[name]
        cfg = ad.AdaptConfig(n_homographies=nh)
        got = ad.adapt(detector, image, cfg, seed=11)
        want = adapt_sequential(detector, image, cfg, seed=11)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nh", [1, 2, 3, 4, 20])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_signed_sums_in_warp_order_at_any_worker_count(self, image, monkeypatch, workers, nh):
        monkeypatch.setattr(blas, "usable_cores", lambda: workers)
        cfg = ad.AdaptConfig(n_homographies=nh)
        got = ad.adapt(signed_detector, image, cfg, seed=11)
        want = adapt_sequential(signed_detector, image, cfg, seed=11)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["helper", "caller"])
    def test_detector_error_reraised_and_helper_joined(self, image, side):
        caller = threading.get_ident()
        calls = []

        def detector(img):
            on_caller = threading.get_ident() == caller
            calls.append(on_caller)
            # the caller's second call is warp 2, made while the helper holds warp 3
            if (side == "helper" and not on_caller) or (side == "caller" and calls.count(True) == 2):
                raise RuntimeError(f"failed on the {side}")
            return cl.harris(img)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"failed on the {side}"):
            ad.adapt(detector, image, ad.AdaptConfig(n_homographies=6), seed=1)
        assert threading.active_count() == before
        assert False in calls and True in calls

    def test_concurrent_calls_share_one_model(self):
        model = PointNet(ARCH_PRESETS["micro"], with_descriptor=False, seed=5)
        images = [sd.render_composite((64, 72), np.random.default_rng(60 + i)).image for i in range(4)]
        cfg = ad.AdaptConfig(n_homographies=6)
        want = [adapt_sequential(model.heatmap, img, cfg, seed=i).tobytes() for i, img in enumerate(images)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # four callers and their four helpers on one model, switching threads as often as the interpreter can
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(ad.adapt, model.heatmap, img, cfg, i) for i, img in enumerate(images)]
                got = [f.result(timeout=120).tobytes() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_blas_runs_one_thread_inside_and_is_restored(self, image):
        calls = openblas_threads()
        if calls is None:
            pytest.skip("numpy's bundled OpenBLAS is not found here")
        get, set_ = calls
        before = get()
        seen = []

        def detector(img):
            seen.append(get())
            return cl.harris(img)

        set_(2)
        try:
            ad.adapt(detector, image, ad.AdaptConfig(n_homographies=4), seed=3)
            # overlapping calls: the first in saves the count, the last out restores it
            with ThreadPoolExecutor(max_workers=3) as pool:
                cfg = ad.AdaptConfig(n_homographies=3)
                futures = [pool.submit(ad.adapt, detector, image, cfg, i) for i in range(3)]
                for f in futures:
                    f.result(timeout=120)
            after = get()
        finally:
            set_(before)
        assert seen == [1] * 13 and after == 2

    def test_helper_runs_in_the_callers_errstate(self, image):
        seen = []

        def detector(img):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return cl.harris(img)

        with np.errstate(divide="raise"):
            ad.adapt(detector, image, ad.AdaptConfig(n_homographies=4), seed=2)
        assert len(seen) == 4 and len({ident for ident, _ in seen}) == 2
        assert [mode for _, mode in seen] == ["raise"] * 4


def warp_repeatability(detector, img, h, eps, k):
    """Repeatability of a detector's top-k points on an image and its warp by h."""
    warped, _ = geo.warp_image(img, h)
    pts1 = cl.heatmap_to_points(np.asarray(detector(img)), -np.inf, 4.0, k)
    pts2 = cl.heatmap_to_points(np.asarray(detector(warped)), -np.inf, 4.0, k)
    return ev.repeatability(pts1, pts2, h, img.shape, eps)


class TestCovarianceRepeatability:
    def test_identity_is_one(self):
        img = sd.render_composite((64, 64), np.random.default_rng(7)).image
        got = warp_repeatability(harris_detector, img, geo.identity(), 3.0, 25)
        assert got == 1.0

    def test_ideal_covariant_detector(self):
        sample = sd.render_composite((64, 64), np.random.default_rng(8))
        spread = []
        for p in sample.points:
            if all(np.hypot(p[0] - q[0], p[1] - q[1]) > 14.0 for q in spread):
                spread.append(p)
        spread = np.asarray(spread)
        rng = np.random.default_rng(9)
        h = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("training"), rng), (64, 64))

        def gt_heatmap(img):
            hm = np.zeros(img.shape, dtype=np.float32)
            pts = spread[:, :2]
            if img.tobytes() != sample.image.tobytes():
                pts = geo.apply(h, pts)
            for x, y in pts:
                xi, yi = int(round(x)), int(round(y))
                if 0 <= xi < 64 and 0 <= yi < 64:
                    hm[yi, xi] = 1.0
            return hm

        got = warp_repeatability(gt_heatmap, sample.image, h, 3.0, k=len(spread))
        assert got == 1.0

    def test_harris_translation_exact(self):
        img = step_corner()
        h = geo.translation(10.0, 0.0)
        got = warp_repeatability(harris_detector, img, h, 3.0, k=1)
        assert got == 1.0


class TestSelfLabel:
    def test_single_round_single_warp_is_thresholded_base(self, tmp_path):
        imgs = [sd.render_composite((64, 64), np.random.default_rng(20 + i)).image for i in range(3)]
        cfg = ad.AdaptConfig(n_homographies=1, detect_threshold=1e-6, nms_radius=4.0)
        history = ad.self_label(imgs, harris_detector, cfg, rounds=1, out_dir=str(tmp_path), seed=1)
        assert len(history) == 1
        labels, det = history[0]
        for img, pts in zip(imgs, labels):
            expect = cl.heatmap_to_points(harris_detector(img), 1e-6, 4.0, 0)
            np.testing.assert_array_equal(pts, expect)
        assert (tmp_path / "round_1" / "000000.pts").exists()
        meta = (tmp_path / "round_1" / "meta.txt").read_text()
        assert "n_homographies=1" in meta and "seed=1" in meta
        counts = [len(sd.read_points(tmp_path / "round_1" / f"{i:06d}.pts")) for i in range(len(imgs))]
        assert meta.splitlines()[-1] == "points=" + ",".join(map(str, counts))
        assert counts == [len(pts) for pts in labels] and len(set(counts)) > 1

    def test_reproducible_label_files(self, tmp_path):
        imgs = [sd.render_composite((64, 64), np.random.default_rng(30 + i)).image for i in range(2)]
        cfg = ad.AdaptConfig(n_homographies=4, detect_threshold=1e-6)
        a = tmp_path / "a"
        b = tmp_path / "b"
        ad.self_label(imgs, harris_detector, cfg, rounds=1, out_dir=str(a), seed=3)
        ad.self_label(imgs, harris_detector, cfg, rounds=1, out_dir=str(b), seed=3)
        fa = (a / "round_1" / "000000.pts").read_bytes()
        fb = (b / "round_1" / "000000.pts").read_bytes()
        assert fa == fb

    def test_retrain_hook_drives_next_round(self, tmp_path):
        imgs = [sd.render_composite((64, 64), np.random.default_rng(40 + i)).image for i in range(2)]
        cfg = ad.AdaptConfig(n_homographies=2, detect_threshold=1e-6)
        calls = []

        def retrain(dataset, round_index):
            calls.append((len(dataset), round_index))
            return harris_detector

        history = ad.self_label(imgs, harris_detector, cfg, rounds=2, retrain=retrain, seed=4)
        assert calls == [(2, 1), (2, 2)]
        assert len(history) == 2

    def test_empty_images_raises(self):
        with pytest.raises(ValueError):
            ad.self_label([], harris_detector, ad.AdaptConfig(), rounds=1)
