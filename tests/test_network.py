import numpy as np
import pytest

from pointpipe.imaging import bicubic_many
from pointpipe.neural import (
    ARCH_PRESETS,
    ArchConfig,
    DimensionNotDivisible,
    EmptyDescriptorMap,
    PointNet,
    depth_to_space,
    descriptor_sample,
    detector_decode,
    infer_arch,
    normalize_descriptors,
)
from pointpipe.neural.ops import BatchNorm2d, Conv2d, MaxPool2x2, ReLU

MICRO = ARCH_PRESETS["micro"]


class TestShapes:
    def test_full_arch_on_240x320(self):
        model = PointNet(ARCH_PRESETS["full"], with_descriptor=True, seed=0)
        x = np.zeros((1, 1, 240, 320), dtype=np.float32)
        logits, desc = model.forward(x)
        assert logits.shape == (1, 65, 30, 40)
        assert desc.shape == (1, 256, 30, 40)

    def test_micro_on_64(self):
        model = PointNet(MICRO, with_descriptor=False, seed=0)
        logits, desc = model.forward(np.zeros((2, 1, 64, 64), dtype=np.float32))
        assert logits.shape == (2, 65, 8, 8)
        assert desc is None

    def test_micro_on_96_finite(self):
        model = PointNet(MICRO, with_descriptor=True, seed=1)
        rng = np.random.default_rng(0)
        logits, desc = model.forward(rng.random((1, 1, 96, 96)).astype(np.float32))
        assert np.isfinite(logits).all() and np.isfinite(desc).all()
        assert desc.shape == (1, 32, 12, 12)

    def test_indivisible_raises(self):
        model = PointNet(MICRO, with_descriptor=False, seed=0)
        with pytest.raises(DimensionNotDivisible):
            model.forward(np.zeros((1, 1, 60, 64), dtype=np.float32))

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            ArchConfig(encoder_widths=(8, 8))


class TestAnyImageSize:
    def test_divisible_heatmap_unpadded(self):
        model = PointNet(MICRO, with_descriptor=True, seed=2)
        img = np.random.default_rng(1).random((96, 96)).astype(np.float32)
        logits, desc = model.forward(img[None, None], train=False)
        want = detector_decode(logits)[0]
        np.testing.assert_array_equal(model.heatmap(img), want)
        heat, dmap = model.describe(img)
        np.testing.assert_array_equal(heat, want)
        np.testing.assert_array_equal(dmap, normalize_descriptors(desc)[0])

    def test_indivisible_padded_by_edge_replication(self):
        model = PointNet(MICRO, with_descriptor=True, seed=3)
        img = np.random.default_rng(2).random((75, 100)).astype(np.float32)
        padded = np.pad(img, ((0, 5), (0, 4)), mode="edge")
        heat, dmap = model.describe(img)
        assert heat.shape == (75, 100) and dmap.shape == (32, 10, 13)
        np.testing.assert_array_equal(heat, model.heatmap(padded)[:75, :100])
        np.testing.assert_array_equal(model.heatmap(img), heat)

    def test_joint_heatmap_skips_the_descriptor_head(self):
        joint = PointNet(MICRO, with_descriptor=True, seed=4)
        detector = PointNet(MICRO, with_descriptor=False, seed=0)
        detector.store.load_state(joint.store.state_dict(), strict=False)

        class Raises:
            def forward(self, x, train):
                raise AssertionError("the descriptor head ran")

        joint.desc_head = [Raises()]
        img = np.random.default_rng(3).random((75, 100)).astype(np.float32)
        assert joint.heatmap(img).tobytes() == detector.heatmap(img).tobytes()


class TestDecode:
    def test_uniform_logits_give_uniform_heatmap(self):
        logits = np.zeros((1, 65, 3, 4), dtype=np.float32)
        hm = detector_decode(logits)
        assert hm.shape == (1, 24, 32)
        np.testing.assert_allclose(hm, 1.0 / 65.0, atol=1e-7)

    def test_one_hot_channel_lands_on_expected_pixel(self):
        logits = np.zeros((1, 65, 2, 2), dtype=np.float32)
        logits[0, 10, 0, 0] = 20.0  # channel 10 -> offset (1, 2) inside the cell
        hm = detector_decode(logits)
        cell = hm[0, :8, :8]
        assert cell[1, 2] > 0.99
        assert cell.sum() - cell[1, 2] < 0.01

    def test_cell_mass_plus_dustbin_is_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 65, 4, 5)).astype(np.float64)
        hm = detector_decode(logits)
        m = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = m / m.sum(axis=1, keepdims=True)
        dustbin = p[:, 64]
        for n in range(2):
            for h in range(4):
                for w in range(5):
                    cell = hm[n, 8 * h : 8 * h + 8, 8 * w : 8 * w + 8].sum()
                    assert abs(cell + dustbin[n, h, w] - 1.0) < 1e-6

    def test_depth_space_roundtrip_exact(self):
        """Channel k of cell (h, w) lands on pixel (8h + k//8, 8w + k%8)."""
        x = np.random.default_rng(1).normal(size=(3, 64, 5, 7))
        y = depth_to_space(x)
        assert y.shape == (3, 40, 56)
        n, k, h, w = np.meshgrid(*map(np.arange, x.shape), indexing="ij")
        np.testing.assert_array_equal(y[n, 8 * h + k // 8, 8 * w + k % 8], x)


class TestDescriptors:
    def test_normalized_unit_norm(self):
        rng = np.random.default_rng(2)
        desc = rng.normal(size=(2, 16, 3, 3)).astype(np.float32)
        dn = normalize_descriptors(desc)
        norms = np.sqrt((dn * dn).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_sample_at_cell_center_returns_cell_descriptor(self):
        rng = np.random.default_rng(3)
        dmap = normalize_descriptors(rng.normal(size=(8, 6, 6)))
        # center of cell (2, 4) is pixel (8*4 + 3.5, 8*2 + 3.5)
        out = descriptor_sample(dmap, np.array([[35.5, 19.5, 1.0]]))
        np.testing.assert_allclose(out[0], dmap[:, 2, 4], atol=1e-9)

    def test_constant_map_constant_vector(self):
        v = np.full((4, 5, 5), 0.5)
        vn = normalize_descriptors(v)
        out = descriptor_sample(vn, np.array([[10.2, 30.7, 1.0], [3.0, 3.0, 1.0]]))
        np.testing.assert_allclose(out, np.tile(vn[:, 0, 0], (2, 1)), atol=1e-9)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(4)
        dmap = normalize_descriptors(rng.normal(size=(16, 8, 8)))
        pts = np.stack([rng.uniform(0, 63, 50), rng.uniform(0, 63, 50), np.ones(50)], axis=1)
        out = descriptor_sample(dmap, pts)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_equals_per_channel_loop(self):
        rng = np.random.default_rng(5)
        dmap = normalize_descriptors(rng.normal(size=(32, 5, 7)).astype(np.float32))
        pts = np.stack([rng.uniform(-9, 64, 40), rng.uniform(-9, 48, 40), np.ones(40)], axis=1)
        cx, cy = (pts[:, 0] - 3.5) / 8, (pts[:, 1] - 3.5) / 8
        loop = np.empty((40, 32))
        for ch in range(32):
            loop[:, ch] = bicubic_many(dmap[ch], cx, cy)
        want = loop / np.maximum(np.linalg.norm(loop, axis=1, keepdims=True), 1e-12)
        np.testing.assert_array_equal(descriptor_sample(dmap, pts), want)

    def test_empty_map_raises(self):
        with pytest.raises(EmptyDescriptorMap):
            descriptor_sample(np.zeros((4, 0, 3)), np.array([[1.0, 1.0, 1.0]]))


class TestTranslationCovariance:
    def test_shift_by_8px_shifts_cells_exactly(self):
        # conv-only pathway with BN in eval mode: an 8-px shift moves the
        # logits by exactly one cell in the interior
        model = PointNet(MICRO, with_descriptor=False, seed=7)
        rng = np.random.default_rng(8)
        for p in model.store.params.values():
            if p.data.ndim == 1 and p.trainable:
                p.data += rng.normal(0, 0.05, p.data.shape).astype(np.float32)
        img = rng.random((128, 128)).astype(np.float32)
        shifted = np.zeros_like(img)
        shifted[:, 8:] = img[:, :-8]
        la, _ = model.forward(img[None, None], train=False)
        lb, _ = model.forward(shifted[None, None], train=False)
        # interior: cells whose receptive field avoids both borders
        m = 6
        np.testing.assert_array_equal(la[0, :, m:-m, m : -m - 1], lb[0, :, m:-m, m + 1 : -m])


def layers(model):
    """Every layer object of a model, encoder first."""
    return model.encoder + model.det_head + (model.desc_head or [])


class TestInferenceIsStateless:
    def test_heatmap_and_describe_write_no_layer_attribute(self):
        model = PointNet(MICRO, with_descriptor=True, seed=4)
        img = np.random.default_rng(3).random((40, 48)).astype(np.float32)
        before = [dict(vars(layer)) for layer in layers(model)]
        data = [p.data for p in model.store.params.values()]
        model.heatmap(img)
        model.describe(img)
        for layer, attrs in zip(layers(model), before):
            assert "_cache" not in vars(layer), layer
            assert vars(layer).keys() == attrs.keys() and all(vars(layer)[k] is v for k, v in attrs.items())
        assert all(p.data is d for p, d in zip(model.store.params.values(), data))

    @pytest.mark.parametrize("batch", [1, 2])
    def test_inference_between_forward_and_backward_leaves_gradients(self, batch):
        model = PointNet(MICRO, with_descriptor=True, seed=5)
        rng = np.random.default_rng(6)
        x = rng.random((batch, 1, 32, 32)).astype(np.float32)
        logits, desc = model.forward(x, train=True)
        r, s = rng.standard_normal(logits.shape), rng.standard_normal(desc.shape)

        def gradients(between):
            model.forward(x, train=True)
            between()
            model.store.zero_grad()
            dx = model.backward(r.astype(np.float32), s.astype(np.float32))
            return [dx] + [p.grad.copy() for p in model.store.params.values()]

        plain = gradients(lambda: None)
        interleaved = gradients(lambda: (model.heatmap(x[0, 0]), model.describe(x[0, 0])))
        for want, got in zip(plain, interleaved):
            np.testing.assert_array_equal(got, want)


class TestParameterLayout:
    def test_micro_joint_model_tensor_order_and_shapes(self):
        """The store's order is the .spw tensor order and the order of the
        seeded weight draws, so a reordered layer changes both."""
        model = PointNet(MICRO, with_descriptor=True, seed=0)
        blocks = [("enc0", 1, 9), ("enc1", 9, 9), ("enc2", 9, 16), ("enc3", 16, 16), ("enc4", 16, 32),
                  ("enc5", 32, 32), ("enc6", 32, 32), ("enc7", 32, 32), ("det.head", 32, 32)]
        want = []
        for name, cin, cout in blocks + [("desc.head", 32, 32)]:
            want.append((f"{name}.w", (cout, cin, 3, 3)))
            want += [(f"{name}.bn.{k}", (cout,)) for k in ("gamma", "beta", "running_mean", "running_var")]
            if name.endswith(".head"):
                head, width = name.split(".")[0], 65 if name == "det.head" else 32
                want += [(f"{head}.out.w", (width, 32, 1, 1)), (f"{head}.out.b", (width,))]
        assert [(n, p.data.shape) for n, p in model.store.params.items()] == want
        assert len(want) == 54
        detector = PointNet(MICRO, with_descriptor=False, seed=0)
        assert [(n, p.data.shape) for n, p in detector.store.params.items()] == want[:47]

    def test_layer_lists(self):
        block = [Conv2d, BatchNorm2d, ReLU]
        model = PointNet(MICRO, with_descriptor=True, seed=0)
        pooled = block * 2 + [MaxPool2x2]
        assert [type(layer) for layer in model.encoder] == pooled * 3 + block * 2
        assert [type(layer) for layer in model.det_head] == block + [Conv2d]
        assert [type(layer) for layer in model.desc_head] == block + [Conv2d]
        assert PointNet(MICRO, with_descriptor=False, seed=0).desc_head is None


class TestInferArch:
    def test_roundtrip(self):
        model = PointNet(MICRO, with_descriptor=True, seed=0)
        arch, with_desc = infer_arch(model.store.state_dict())
        assert arch == MICRO
        assert with_desc

    def test_detector_only(self):
        model = PointNet(MICRO, with_descriptor=False, seed=0)
        arch, with_desc = infer_arch(model.store.state_dict())
        assert arch.encoder_widths == MICRO.encoder_widths
        assert not with_desc


class TestWholeNetworkGradient:
    def test_backward_matches_finite_differences(self):
        """float64, train mode, both heads: the derivative of sum(logits * r) +
        sum(desc * s) along a random direction of each trainable tensor and of
        the input, analytic against central differences."""
        rng = np.random.default_rng(0)
        model = PointNet(MICRO, with_descriptor=True, seed=1, dtype=np.float64)
        x = rng.standard_normal((2, 1, 16, 16))
        logits, desc = model.forward(x, train=True)
        r, s = rng.standard_normal(logits.shape), rng.standard_normal(desc.shape)
        model.store.zero_grad()
        dx = model.backward(r, s)
        running = {n: p.data.copy() for n, p in model.store.params.items() if not p.trainable}

        def objective():
            out_logits, out_desc = model.forward(x, train=True)
            for n, value in running.items():
                model.store.params[n].data = value.copy()
            return float((out_logits * r).sum() + (out_desc * s).sum())

        h = 1e-6
        targets = [(n, p.data, p.grad) for n, p in model.store.params.items() if p.trainable] + [("input", x, dx)]
        assert len(targets) == 35
        for name, value, grad in targets:
            direction = rng.standard_normal(value.shape)
            start = value.copy()
            value += h * direction
            plus = objective()
            value[...] = start - h * direction
            minus = objective()
            value[...] = start
            numeric = (plus - minus) / (2.0 * h)
            analytic = float((grad * direction).sum())
            assert abs(numeric - analytic) <= 1e-6 * max(abs(numeric), abs(analytic)), name
