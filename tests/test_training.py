import os
import tracemalloc

import numpy as np
import pytest

from pointpipe import geometry as geo
from pointpipe import synthdata as sd
from pointpipe.imaging import TruncatedFile
from pointpipe.neural import (
    ARCH_PRESETS,
    EmptyDataset,
    MissingGradient,
    ParamStore,
    PointNet,
    TrainConfig,
    adam_step,
    load_weights,
    save_weights,
    train_magicpoint,
    train_superpoint,
)
from pointpipe.neural import training
from pointpipe.neural.losses import cells_from_points, correspondences, loss_detector
from pointpipe.neural.training import LossLog, TrainingDiverged, _rng, train_detector_on_labels, view_size

MICRO = ARCH_PRESETS["micro"]


class TestAdam:
    def test_zero_gradient_no_change(self):
        store = ParamStore(np.float64)
        p = store.create("x", np.array([1.0, -2.0]))
        store.zero_grad()
        adam_step(store, t=1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_hand_value(self):
        # g=1, t=1: mhat=1, vhat=1 -> update = -lr / (1 + eps)
        store = ParamStore(np.float64)
        p = store.create("x", np.array([0.0]))
        store.zero_grad()
        p.grad[:] = 1.0
        adam_step(store, lr=0.001, t=1)
        assert p.data[0] == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-12)

    def test_quadratic_bowl_converges(self):
        store = ParamStore(np.float64)
        p = store.create("x", np.array([1.0]))
        for t in range(1, 501):
            store.zero_grad()
            p.grad[:] = 2.0 * p.data  # d/dx x^2
            adam_step(store, lr=0.01, t=t)
        assert abs(p.data[0]) < 0.01

    def test_missing_gradient_raises(self):
        store = ParamStore(np.float64)
        store.create("x", np.array([1.0]))
        with pytest.raises(MissingGradient):
            adam_step(store, t=1)

    def test_non_trainable_skipped(self):
        store = ParamStore(np.float64)
        p = store.create("stat", np.array([5.0]), trainable=False)
        store.zero_grad()
        adam_step(store, t=1)
        assert p.data[0] == 5.0


class TestWeightFile:
    def test_roundtrip(self, tmp_path):
        model = PointNet(MICRO, with_descriptor=True, seed=3)
        path = tmp_path / "w.spw"
        save_weights(path, model.store)
        state = load_weights(path)
        assert set(state) == set(model.store.params)
        for name, arr in state.items():
            np.testing.assert_array_equal(arr, model.store.params[name].data)

    def test_magic_bytes(self, tmp_path):
        model = PointNet(MICRO, with_descriptor=False, seed=0)
        path = tmp_path / "w.spw"
        save_weights(path, model.store)
        assert path.read_bytes()[:4] == b"SPW1"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.spw"
        path.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_weights(path)

    def test_truncated_payload_names_tensor_and_offset(self, tmp_path):
        model = PointNet(MICRO, with_descriptor=False, seed=0)
        path = tmp_path / "w.spw"
        save_weights(path, model.store)
        name = list(model.store.params)[0]
        shape = model.store.params[name].data.shape
        start = 4 + 2 + len(name) + 1 + 4 * len(shape)
        path.write_bytes(path.read_bytes()[: start + 10])
        with pytest.raises(TruncatedFile) as exc:
            load_weights(path)
        assert str(exc.value) == (f"{path}: payload of tensor {name!r} at byte {start} needs "
                                  f"{4 * int(np.prod(shape))} bytes, but the file ends at byte {start + 10}")

    def test_half_length_file_is_truncated(self, tmp_path):
        model = PointNet(MICRO, with_descriptor=True, seed=0)
        path = tmp_path / "w.spw"
        save_weights(path, model.store)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedFile, match=r"of tensor '.+' at byte \d+ needs \d+ bytes"):
            load_weights(path)
        path.write_bytes(raw[:5])
        with pytest.raises(TruncatedFile, match="name length of tensor 0 at byte 4 needs 2 bytes"):
            load_weights(path)

    def test_load_state_shape_check(self):
        model = PointNet(MICRO, with_descriptor=False, seed=0)
        state = model.store.state_dict()
        state["enc0.w"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.store.load_state(state)


def tiny_stream(seed=0):
    return sd.StreamConfig(
        height=32, width=32, mix={sd.ShapeCategory.QUADRILATERAL: 1.0}, noise=False, seed=seed
    )


class TestTrainMagicpoint:
    def test_zero_iterations_returns_init(self):
        cfg = TrainConfig(iterations=0, batch_size=2, seed=4)
        model = train_magicpoint(MICRO, tiny_stream(), cfg)
        fresh = PointNet(MICRO, with_descriptor=False, seed=4)
        for name in fresh.store.params:
            np.testing.assert_array_equal(model.store.params[name].data, fresh.store.params[name].data)

    def test_fixed_seed_bitwise_reproducible(self):
        cfg = TrainConfig(iterations=3, batch_size=2, seed=5)
        m1 = train_magicpoint(MICRO, tiny_stream(1), cfg)
        m2 = train_magicpoint(MICRO, tiny_stream(1), cfg)
        for name in m1.store.params:
            np.testing.assert_array_equal(m1.store.params[name].data, m2.store.params[name].data)

    def test_loss_log_and_checkpoints(self, tmp_path):
        log = LossLog()
        cfg = TrainConfig(iterations=4, batch_size=2, seed=6, log_every=1, checkpoint_every=2)
        train_magicpoint(MICRO, tiny_stream(2), cfg, log=log, checkpoint_dir=str(tmp_path))
        assert len(log.rows) == 4
        assert (tmp_path / "checkpoint_000002.spw").exists()
        assert (tmp_path / "checkpoint_000004.spw").exists()
        csv_path = tmp_path / "loss.csv"
        log.write_csv(csv_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "iter,loss_total,loss_det,loss_desc,grad_norm"

    def test_grad_norm_column_is_finite_and_reproducible(self, tmp_path):
        cfg = TrainConfig(iterations=3, batch_size=2, seed=8, log_every=1)
        for run in ("a", "b"):
            log = LossLog()
            model = train_magicpoint(MICRO, tiny_stream(4), cfg, log=log)
            log.write_csv(tmp_path / f"{run}.csv")
        norms = [row[4] for row in log.rows]
        assert len(norms) == 3 and all(np.isfinite(norms)) and min(norms) > 0.0
        # Adam leaves the gradients in place, so the last row's norm is that of the final gradients
        grads = [p.grad for p in model.store.params.values() if p.trainable]
        assert norms[-1] == pytest.approx(np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads)), rel=1e-12)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_loss_decreases_on_tiny_problem(self):
        log = LossLog()
        cfg = TrainConfig(iterations=60, batch_size=4, seed=7, log_every=1)
        train_magicpoint(MICRO, tiny_stream(3), cfg, log=log)
        first = np.mean([r[1] for r in log.rows[:5]])
        last = np.mean([r[1] for r in log.rows[-5:]])
        assert last < first


    def test_second_step_peaks_no_higher_than_the_first_plus_adam_state(self):
        """Backward releases every layer's cache and _fit step 1's outputs and gradients, so step 2's forward
        starts beside the weights and Adam's moments alone."""
        stream = sd.StreamConfig(height=64, width=64, seed=9)

        def peak(iterations):
            tracemalloc.start()
            try:
                train_magicpoint(MICRO, stream, TrainConfig(iterations=iterations, batch_size=4, seed=9))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations of the renderer and numpy
        one, two = peak(1), peak(2)
        model = PointNet(MICRO, with_descriptor=False)
        adam_state = 2 * sum(p.data.nbytes for p in model.store.params.values() if p.trainable)
        # the slack: Adam's two moment arrays, made by step 1's update, and 64 KB of interpreter objects
        # (step 2 takes 0.40 MB more than step 1, Adam's moments 0.39 MB); step 1's parameter gradients,
        # were they still held when step 2's forward runs, would add 0.1 MB net, and its activations 0.9-1.2 MB
        assert two <= one + adam_state + 64 * 1024, (one, two, adam_state)


def labeled_dataset(n=3, seed=0):
    out = []
    for i in range(n):
        s = sd.render_sample(sd.ShapeCategory.QUADRILATERAL, (32, 32), np.random.default_rng(seed + i))
        out.append((s.image, s.points))
    return out


class TestTrainSuperpoint:
    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            train_superpoint(None, MICRO, [], TrainConfig(iterations=1))

    def test_fixed_seed_reproducible(self):
        data = labeled_dataset()
        cfg = TrainConfig(iterations=2, batch_size=2, seed=8)
        m1 = train_superpoint(None, MICRO, data, cfg)
        m2 = train_superpoint(None, MICRO, data, cfg)
        for name in m1.store.params:
            np.testing.assert_array_equal(m1.store.params[name].data, m2.store.params[name].data)

    def test_detector_reduction_matches_magicpoint_step(self):
        """With lam=0, duplicated identity views, and a frozen descriptor
        head, one joint step reproduces a detector-only step on the same
        batch up to floating-point accumulation order."""
        rng = np.random.default_rng(10)
        x = rng.random((2, 1, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 65, (2, 4, 4))

        mp = PointNet(MICRO, with_descriptor=False, seed=11)
        logits, _ = mp.forward(x, train=True)
        loss_mp, dl = loss_detector(logits, labels)
        mp.store.zero_grad()
        mp.backward(dl)
        adam_step(mp.store, t=1)

        sp = PointNet(MICRO, with_descriptor=True, seed=11)
        x2 = np.concatenate([x, x])
        labels2 = np.concatenate([labels, labels])
        logits2, desc2 = sp.forward(x2, train=True)
        loss_sp, dl2 = loss_detector(logits2, labels2)
        sp.store.zero_grad()
        sp.backward(dl2, np.zeros_like(desc2))
        adam_step(sp.store, t=1)

        assert loss_sp == pytest.approx(loss_mp, rel=1e-6)
        for name in mp.store.params:
            np.testing.assert_allclose(
                sp.store.params[name].data, mp.store.params[name].data, rtol=1e-5, atol=1e-7, err_msg=name
            )

    def test_loads_base_detector_weights(self):
        base = train_magicpoint(MICRO, tiny_stream(4), TrainConfig(iterations=2, batch_size=2, seed=12))
        data = labeled_dataset()
        model = train_superpoint(
            base.store.state_dict(), MICRO, data, TrainConfig(iterations=0, batch_size=2, seed=13)
        )
        for name in base.store.params:
            np.testing.assert_array_equal(model.store.params[name].data, base.store.params[name].data)


def composite_dataset(n=2):
    return [
        (sd.render_composite((64, 64), np.random.default_rng(i)).image,
         sd.render_composite((64, 64), np.random.default_rng(i)).points)
        for i in range(n)
    ]


class TestTrainDetectorOnLabels:
    def test_crop_training_runs_and_is_deterministic(self):
        data = composite_dataset()
        cfg = TrainConfig(iterations=2, batch_size=2, seed=14)
        m1 = train_detector_on_labels(MICRO, data, cfg, size=(32, 32))
        m2 = train_detector_on_labels(MICRO, data, cfg, size=(32, 32))
        for name in m1.store.params:
            np.testing.assert_array_equal(m1.store.params[name].data, m2.store.params[name].data)

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            train_detector_on_labels(MICRO, [], TrainConfig(iterations=1), size=(32, 32))


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "field, value", [("iterations", -1), ("batch_size", 0), ("log_every", 0), ("checkpoint_every", -1)]
    )
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^TrainConfig\.{field} must be >= \d, got {value}$"):
            TrainConfig(**{"iterations": 1, field: value})


class TestDivergence:
    def test_nan_image_stops_retraining(self):
        data = composite_dataset(n=1)
        data[0][0][:] = np.nan
        with pytest.raises(TrainingDiverged, match="at iteration 0; no checkpoint that gave a finite loss"):
            train_detector_on_labels(MICRO, data, TrainConfig(iterations=3, batch_size=2), size=(32, 32))

    def test_nan_pixel_stops_joint_training(self):
        data = labeled_dataset(n=1)
        data[0][0][5, 7] = np.nan
        with pytest.raises(TrainingDiverged, match="^gradient of 'enc0.w' is not finite at iteration 0; no checkpoint"):
            train_superpoint(None, MICRO, data, TrainConfig(iterations=3, batch_size=2))

    def test_names_last_checkpoint_with_finite_loss(self, tmp_path):
        data = labeled_dataset()

        def poison_after_step_3(it, loss):
            if it == 2:
                for img, _ in data:
                    img[0, 0] = np.nan

        cfg = TrainConfig(iterations=6, batch_size=2, seed=8, checkpoint_every=1)
        with pytest.raises(TrainingDiverged) as exc:
            train_superpoint(None, MICRO, data, cfg, checkpoint_dir=str(tmp_path), progress=poison_after_step_3)
        # checkpoint 3 holds the weights that met the poisoned batch; 2 is the last that gave a finite step
        assert str(exc.value) == ("gradient of 'enc0.w' is not finite at iteration 3; the last checkpoint that "
                                  f"gave a finite loss and gradients is {tmp_path}/checkpoint_000002.spw")
        assert sorted(os.listdir(tmp_path)) == [f"checkpoint_{k:06d}.spw" for k in (1, 2, 3)]


# The three batch builders of the trainers before they shared ``training._batch``, kept as its reference.


def reference_magicpoint_batch(stream_cfg, cfg, it):
    base = it * cfg.batch_size
    samples = [sd.sample_at(stream_cfg, base + j) for j in range(cfg.batch_size)]
    x = np.stack([s.image for s in samples])[:, None, :, :]
    labels = [cells_from_points(s.points, stream_cfg.height, stream_cfg.width, _rng(cfg.seed, 0x1A, base + j))
              for j, s in enumerate(samples)]
    return x, np.stack(labels), None


def reference_retraining_batch(dataset, cfg, size, it):
    hgt, wdt = size
    rng = _rng(cfg.seed, 0x3C, it)
    xs, ys = [], []
    for _ in range(cfg.batch_size):
        img, pts = dataset[int(rng.integers(len(dataset)))]
        ih, iw = img.shape
        oy = int(rng.integers(0, (ih - hgt) // 8 + 1)) * 8
        ox = int(rng.integers(0, (iw - wdt) // 8 + 1)) * 8
        crop = img[oy : oy + hgt, ox : ox + wdt]
        shifted = pts.copy()
        shifted[:, :2] -= (ox, oy)
        shifted = shifted[geo.in_bounds(shifted, size)]
        xs.append(crop)
        ys.append(cells_from_points(shifted, hgt, wdt, rng))
    return np.stack(xs)[:, None, :, :], np.stack(ys), None


def reference_joint_batch(dataset, cfg, it):
    ranges = geo.ranges_preset("training")
    rng = _rng(cfg.seed, 0x2B, it)
    imgs_a, imgs_b, labels, grids = [], [], [], []
    for _ in range(cfg.batch_size):
        img, pts = dataset[int(rng.integers(len(dataset)))]
        hgt, wdt = img.shape
        h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
        warped = sd.homographic_augment(sd.ShapeSample(img, pts, None), h)
        imgs_a.append(img)
        imgs_b.append(warped.image)
        labels.append(cells_from_points(pts, hgt, wdt, rng))
        labels.append(cells_from_points(warped.points, hgt, wdt, rng))
        grids.append(correspondences(h, hgt // 8, wdt // 8))
    return np.stack(imgs_a + imgs_b)[:, None, :, :], np.stack(labels[0::2] + labels[1::2]), grids


def built_batches(monkeypatch, train, iterations):
    """The batches ``training._batch`` builds for a trainer's first steps; the trainer's loop never runs."""
    monkeypatch.setattr(training, "_fit", lambda arch, cfg, views, size, ranges=None, *args, **kwargs:
                        [training._batch(views(it), size, ranges) for it in range(iterations)])
    return train()


def composites(sizes, seed=0):
    return [(s.image, s.points) for s in (sd.render_composite(size, np.random.default_rng(seed + i))
                                          for i, size in enumerate(sizes))]


def assert_bitwise_equal(batch, reference):
    for got, want in zip(batch[:2], reference[:2]):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (batch[2] is None) == (reference[2] is None)
    for got, want in zip(batch[2] or [], reference[2] or [], strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestViewPipeline:
    """``training._batch`` builds, bitwise, the batches each trainer built with its own code before."""

    CFG = TrainConfig(iterations=4, batch_size=3, seed=21)

    @pytest.mark.parametrize("noise", [True, False])
    def test_magicpoint_batches(self, monkeypatch, noise):
        stream = sd.StreamConfig(height=32, width=48, noise=noise, seed=6)
        batches = built_batches(monkeypatch, lambda: train_magicpoint(MICRO, stream, self.CFG), 4)
        for it, batch in enumerate(batches):
            assert_bitwise_equal(batch, reference_magicpoint_batch(stream, self.CFG, it))

    @pytest.mark.parametrize("size", [(32, 32), (40, 48), (64, 80)])
    def test_retraining_batches(self, monkeypatch, size):
        data = composites([(64, 80)] * 3)
        batches = built_batches(monkeypatch, lambda: train_detector_on_labels(MICRO, data, self.CFG, size), 4)
        for it, batch in enumerate(batches):
            assert_bitwise_equal(batch, reference_retraining_batch(data, self.CFG, size, it))

    def test_joint_batches(self, monkeypatch):
        data = composites([(64, 64)] * 3)
        batches = built_batches(monkeypatch, lambda: train_superpoint(None, MICRO, data, self.CFG), 4)
        for it, batch in enumerate(batches):
            assert_bitwise_equal(batch, reference_joint_batch(data, self.CFG, it))

    def test_label_points_outside_the_view_are_dropped(self):
        # clamped into the view, the left point would give cell 0 label 40
        image = np.zeros((8, 16), dtype=np.float32)
        points = np.array([[-3.0, 5.0, 1.0], [10.0, 3.0, 1.0]])
        _, labels, _ = training._batch([(image, points, np.random.default_rng(0))], (8, 16))
        assert labels.tolist() == [[[64, 3 * 8 + 2]]]


class TestAnyImageSize:
    def test_view_size_is_the_largest_whole_cell_fit(self):
        images = [np.zeros(shape) for shape in ((64, 80), (75, 100))]
        assert view_size(images) == (64, 80)
        assert view_size([np.zeros((75, 100))]) == (72, 96)
        assert view_size(images, (40, 48)) == (40, 48)

    @pytest.mark.parametrize("size", [(72, 72), (64, 88), (36, 40), (0, 8)])
    def test_a_crop_that_does_not_fit_raises_before_the_model_is_built(self, monkeypatch, size):
        monkeypatch.setattr(training, "PointNet", lambda *args, **kwargs: pytest.fail("model built"))
        with pytest.raises(ValueError, match=rf"^view size must be multiples of 8 from 8 up to the images' "
                                             rf"whole-cell fit \(64, 80\), got \({size[0]}, {size[1]}\)$"):
            train_detector_on_labels(MICRO, composites([(64, 80), (75, 100)]), TrainConfig(iterations=1), size)

    @pytest.mark.parametrize("sizes", [[(64, 64), (64, 80)], [(75, 100), (75, 100)]])
    def test_joint_training_takes_images_of_any_size(self, sizes):
        # at seed 1 a batch of the first list holds both sizes
        model = train_superpoint(None, MICRO, composites(sizes), TrainConfig(iterations=2, batch_size=2, seed=1))
        assert all(np.isfinite(p.data).all() for p in model.store.params.values())
