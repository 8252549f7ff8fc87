import math

import numpy as np
import pytest

from pointpipe import geometry as geo
from pointpipe.neural.losses import (
    DUSTBIN,
    LossConfig,
    cell_centers,
    cells_from_points,
    correspondences,
    loss_descriptor,
    loss_detector,
)
from pointpipe.neural.ops import ShapeMismatch


class TestCellsFromPoints:
    def test_no_points_all_dustbin(self):
        labels = cells_from_points(np.zeros((0, 3)), 32, 32, np.random.default_rng(0))
        assert labels.shape == (4, 4)
        assert (labels == DUSTBIN).all()

    def test_single_point_label(self):
        # x=1, y=2 -> cell (0,0), in-cell position row 2 col 1 -> 2*8+1 = 17
        labels = cells_from_points(np.array([[1.0, 2.0, 1.0]]), 16, 16, np.random.default_rng(0))
        assert labels[0, 0] == 17
        assert (labels.ravel() == DUSTBIN).sum() == 3

    def test_collision_resolved_deterministically(self):
        pts = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]])  # same cell (0,0)
        a = cells_from_points(pts, 16, 16, np.random.default_rng(42))
        b = cells_from_points(pts, 16, 16, np.random.default_rng(42))
        assert a[0, 0] in (17, 4 * 8 + 3)
        np.testing.assert_array_equal(a, b)

    def test_rounding_to_nearest_pixel(self):
        labels = cells_from_points(np.array([[7.6, 0.2, 1.0]]), 16, 16, np.random.default_rng(0))
        assert labels[0, 1] == 0 * 8 + 0  # x rounds to 8 -> cell (0,1), offset (0,0)


class TestLossDetector:
    def test_zero_logits_ln65(self):
        rng = np.random.default_rng(0)
        logits = np.zeros((2, 65, 4, 4))
        labels = rng.integers(0, 65, (2, 4, 4))
        loss, _ = loss_detector(logits, labels)
        assert loss == pytest.approx(math.log(65.0), abs=1e-9)
        assert loss == pytest.approx(4.17438727, abs=1e-7)

    def test_saturated_correct_logit(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 65, (1, 3, 3))
        logits = np.zeros((1, 65, 3, 3))
        for h in range(3):
            for w in range(3):
                logits[0, labels[0, h, w], h, w] = 1000.0
        loss, _ = loss_detector(logits, labels)
        assert loss < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 65, 3, 4))
        labels = rng.integers(0, 65, (2, 3, 4))
        _, grad = loss_detector(logits, labels)
        flat = logits.ravel()
        for c in rng.choice(logits.size, 20, replace=False):
            old = flat[c]
            flat[c] = old + 1e-5
            fp, _ = loss_detector(logits, labels)
            flat[c] = old - 1e-5
            fm, _ = loss_detector(logits, labels)
            flat[c] = old
            num = (fp - fm) / 2e-5
            assert abs(grad.ravel()[c] - num) / max(abs(num), 1e-8) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_detector(np.zeros((1, 65, 4, 4)), np.zeros((1, 3, 4), dtype=int))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(1, 65, 5, 5))
        labels = rng.integers(0, 65, (1, 5, 5))
        loss, _ = loss_detector(logits, labels)
        assert loss >= 0.0


class TestCorrespondences:
    def test_identity_same_cell_and_neighbors(self):
        s = correspondences(geo.identity(), 4, 4).reshape(4, 4, 4, 4)
        # same cell: distance 0
        assert s[1, 1, 1, 1] == 1
        # horizontal/vertical neighbors: centers exactly 8 px apart, inclusive
        assert s[1, 1, 1, 2] == 1
        assert s[1, 1, 2, 1] == 1
        # diagonal: 8 * sqrt(2) > 8
        assert s[1, 1, 2, 2] == 0

    def test_translation_two_cells(self):
        s = correspondences(geo.translation(16.0, 0.0), 3, 5).reshape(3, 5, 3, 5)
        for h in range(3):
            for w in range(3):
                assert s[h, w, h, w + 2] == 1
                if w + 2 < 5 and w != w + 2:
                    assert s[h, w, h, w] == 0

    def test_centers_at_cell_midpoints(self):
        c = cell_centers(2, 3)
        np.testing.assert_array_equal(c[0], [3.5, 3.5])
        np.testing.assert_array_equal(c[-1], [8 * 2 + 3.5, 8 * 1 + 3.5])


def one_cell_maps(va, vb):
    """Descriptor maps with a single cell holding the given vectors."""
    a = np.asarray(va, dtype=np.float64).reshape(-1, 1, 1)
    b = np.asarray(vb, dtype=np.float64).reshape(-1, 1, 1)
    return a, b


class TestLossDescriptor:
    def test_identical_unit_vectors_positive_pair(self):
        a, b = one_cell_maps([1.0, 0.0], [1.0, 0.0])
        loss, _, _ = loss_descriptor(a, b, np.ones((1, 1), dtype=np.float32), LossConfig())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_identical_unit_vectors_negative_pair(self):
        a, b = one_cell_maps([1.0, 0.0], [1.0, 0.0])
        loss, _, _ = loss_descriptor(a, b, np.zeros((1, 1), dtype=np.float32), LossConfig())
        assert loss == pytest.approx(0.8, abs=1e-9)  # 1 - m_n

    def test_orthogonal_vectors(self):
        a, b = one_cell_maps([1.0, 0.0], [0.0, 1.0])
        cfg = LossConfig()
        loss0, _, _ = loss_descriptor(a, b, np.zeros((1, 1), dtype=np.float32), cfg)
        assert loss0 == pytest.approx(0.0, abs=1e-12)
        loss1, _, _ = loss_descriptor(a, b, np.ones((1, 1), dtype=np.float32), cfg)
        assert loss1 == pytest.approx(250.0, abs=1e-9)  # lam_d * m_p

    def test_blockwise_equals_naive_double_loop(self):
        rng = np.random.default_rng(4)
        c, hc, wc = 5, 3, 4
        m = hc * wc
        a = rng.normal(size=(c, hc, wc))
        b = rng.normal(size=(c, hc, wc))
        s = (rng.random((m, m)) < 0.2).astype(np.float32)
        cfg = LossConfig()
        loss, _, _ = loss_descriptor(a, b, s, cfg, block=3)
        # naive oracle
        am = a.reshape(c, m)
        bm = b.reshape(c, m)
        an = am / np.linalg.norm(am, axis=0)
        bn = bm / np.linalg.norm(bm, axis=0)
        total = 0.0
        for i in range(m):
            for j in range(m):
                dot = float(an[:, i] @ bn[:, j])
                if s[i, j] > 0:
                    total += cfg.lam_d * max(0.0, cfg.m_p - dot)
                else:
                    total += max(0.0, dot - cfg.m_n)
        assert loss == pytest.approx(total / (m * m), rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [7, 4096])
    def test_hinge_terms_equal_the_where_form(self, dtype, block):
        rng = np.random.default_rng(6)
        c, hc, wc = 8, 4, 5
        m = hc * wc
        a = rng.normal(size=(c, hc, wc)).astype(dtype)
        b = (a + 0.3 * rng.normal(size=(c, hc, wc))).astype(dtype)  # near pairs, so both hinges act
        s = (rng.random((m, m)) < 0.3).astype(np.float32)
        cfg = LossConfig()
        loss, _, _ = loss_descriptor(a, b, s, cfg, block=block)
        # the loss as computed before the hinges went through keep_where, operation for operation
        an, bn = (x / np.maximum(np.sqrt((x * x).sum(axis=0, keepdims=True)), 1e-12)
                  for x in (a.reshape(c, m), b.reshape(c, m)))
        want = 0.0
        for start in range(0, m, block):
            g = an[:, start:start + block].T @ bn
            srow = s[start:start + block]
            pos = (g < cfg.m_p) & (srow > 0)
            neg = (g > cfg.m_n) & (srow <= 0)
            want += cfg.lam_d * np.where(pos, cfg.m_p - g, 0.0).sum() + np.where(neg, g - cfg.m_n, 0.0).sum()
        want *= 1.0 / (m * m)
        assert loss == float(want)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        c, hc, wc = 4, 2, 3
        m = hc * wc
        a = rng.normal(size=(c, hc, wc))
        b = rng.normal(size=(c, hc, wc))
        s = (rng.random((m, m)) < 0.3).astype(np.float32)
        cfg = LossConfig()
        _, da, db = loss_descriptor(a, b, s, cfg)
        for arr, grad in ((a, da), (b, db)):
            flat = arr.ravel()
            for coord in rng.choice(arr.size, 10, replace=False):
                old = flat[coord]
                flat[coord] = old + 1e-6
                fp, _, _ = loss_descriptor(a, b, s, cfg)
                flat[coord] = old - 1e-6
                fm, _, _ = loss_descriptor(a, b, s, cfg)
                flat[coord] = old
                num = (fp - fm) / 2e-6
                assert abs(grad.ravel()[coord] - num) / max(abs(num), 1e-6) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_descriptor(np.zeros((4, 2, 2)), np.zeros((4, 2, 3)), np.zeros((4, 4)), LossConfig())


class TestLossTotal:
    """Constants of the pair loss: detector terms plus lam times the descriptor term."""

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(m_p=0.1, m_n=0.2)
        with pytest.raises(ValueError):
            LossConfig(lam=-1.0)
        LossConfig(lam=0.0)  # allowed: detector-only reduction
