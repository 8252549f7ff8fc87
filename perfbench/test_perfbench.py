"""Tests of the benchmark's checkers and of its traced call counts.

    python3 -m pytest perfbench

Each checker accepts pointpipe's real output and rejects a deliberately
corrupted copy.  The count tests trace small inputs and compare call
counts with the numbers the program's structure fixes.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pointpipe import adaptation as ad  # noqa: E402
from pointpipe import classical as cl  # noqa: E402
from pointpipe import evalsuite as ev  # noqa: E402
from pointpipe import geometry as geo  # noqa: E402
from pointpipe import synthdata as sd  # noqa: E402
from pointpipe.neural import (  # noqa: E402
    ARCH_PRESETS,
    PointNet,
    TrainConfig,
    descriptor_sample,
    train_magicpoint,
    train_superpoint,
)


def _candidates(n=600, size=40, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.choice(size * size, n, replace=False)
    conf = rng.random(n).round(2)  # rounding makes confidence ties
    return np.stack([xy % size, xy // size, conf], axis=1).astype(np.float64)


# ---------------------------------------------------------------------------
# greedy NMS


def test_nms_checker_accepts_program_output():
    cand = _candidates()
    kept = cl.nms(cand, 4.0)
    assert checks.check_greedy_nms(cand, kept, 4.0) is None
    assert checks.check_greedy_nms(cand, kept[:25], 4.0, limit=25) is None
    assert checks.check_greedy_nms(cand, cl.nms(cand, 0.0), 0.0) is None


def test_nms_checker_rejects_a_dropped_kept_point():
    cand = _candidates()
    kept = cl.nms(cand, 4.0)
    assert "no higher-ranked kept point" in checks.check_greedy_nms(cand, np.delete(kept, 7, axis=0), 4.0)


def test_nms_checker_rejects_a_point_too_close():
    cand = _candidates()
    kept = cl.nms(cand, 4.0)
    ranks = {tuple(p): i for i, p in enumerate(cand[np.lexsort((cand[:, 0], cand[:, 1], -cand[:, 2]))])}
    dropped = [p for p in cand if not (kept == p).all(axis=1).any()]
    extra = dropped[0]
    merged = np.vstack([kept, extra])
    merged = merged[np.argsort([ranks[tuple(p)] for p in merged], kind="stable")]
    assert "within 4.0 of another kept point" in checks.check_greedy_nms(cand, merged, 4.0)


def test_nms_checker_rejects_wrong_order_and_foreign_points():
    cand = _candidates()
    kept = cl.nms(cand, 4.0)
    assert "rank order" in checks.check_greedy_nms(cand, kept[[1, 0] + list(range(2, len(kept)))], 4.0)
    moved = kept.copy()
    moved[3, 0] += 0.5
    assert "not a candidate" in checks.check_greedy_nms(cand, moved, 4.0)
    assert "rank order" in checks.check_greedy_nms(cand, cand, 0.0)


# ---------------------------------------------------------------------------
# nearest neighbours


def _unit_rows(n, d, seed):
    x = np.random.default_rng(seed).normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_nn_checker_accepts_program_output_with_ties():
    a, b = _unit_rows(50, 32, 1), _unit_rows(60, 32, 2)
    b = np.vstack([b, b[:10]])  # rows 60..69 tie with rows 0..9
    m = ev.match_nn(a, b)
    assert checks.check_nn_argmin(a, b, m.idx_b, m.distance) is None
    tied = np.where(m.idx_b < 10, m.idx_b + 60, m.idx_b)
    assert checks.check_nn_argmin(a, b, tied, m.distance) is None


def test_nn_checker_rejects_a_wrong_neighbour():
    a, b = _unit_rows(50, 32, 1), _unit_rows(60, 32, 2)
    m = ev.match_nn(a, b)
    wrong = m.idx_b.copy()
    wrong[5] = (wrong[5] + 1) % len(b)
    assert "row 5" in checks.check_nn_argmin(a, b, wrong, m.distance)
    assert "distances" in checks.check_nn_argmin(a, b, m.idx_b, m.distance + 1e-3)


# ---------------------------------------------------------------------------
# corner error and identity repeatability


def test_corner_checker():
    h = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("training"), np.random.default_rng(3)), (240, 320))
    h_est = h @ geo.translation(0.7, -0.4)
    reported = ev.corner_error(h_est, h, (240, 320))
    assert checks.check_corner_error(h_est, h, (240, 320), reported) is None
    assert "recomputed" in checks.check_corner_error(h_est, h, (240, 320), reported + 1e-6)
    assert "not finite" in checks.check_corner_error(np.full((3, 3), np.nan), h, (240, 320), reported)


def test_identity_repeatability_checker():
    img = sd.render_composite((64, 80), np.random.default_rng(4)).image
    dets = {"harris": lambda im: cl.heatmap_to_points(cl.harris(im), 1e-12, 0.0), "fast": cl.fast}
    reports = ev.run_detector_benchmark(dets, [(img, img, np.eye(3))], ev.DetectorProtocol(n_points=50),
                                        include_random=False)
    assert checks.check_identity_repeatability(reports) is None
    reports["fast"].repeatability = 0.98
    assert "fast" in checks.check_identity_repeatability(reports)


# ---------------------------------------------------------------------------
# traced counts


@pytest.fixture(scope="module")
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.on = False


def _traced(tracer, fn):
    tracer.counts.clear()
    tracer.spans.clear()
    tracer.on = True
    try:
        fn()
    finally:
        tracer.on = False
    return tracer.counts


def test_three_warps_per_non_identity_warp(tracer):
    net = PointNet(ARCH_PRESETS["micro"], with_descriptor=False, seed=0)
    img = sd.render_composite((48, 64), np.random.default_rng(5)).image
    cfg = ad.AdaptConfig(n_homographies=4)
    counts = _traced(tracer, lambda: ad.self_label([img], net.heatmap, cfg, rounds=1))
    assert counts["geometry.warp_image.calls"] == 3 * 3
    assert counts["adaptation.adapt.warps"] == 4
    assert workloads.Label.expected_counts(1) == {"geometry.warp_image.calls": 3 * (workloads.N_WARPS - 1)}


def test_five_match_nn_calls_per_pair(tracer):
    net = PointNet(ARCH_PRESETS["micro"], with_descriptor=True, seed=0)

    def system(img):
        heat, dmap = net.describe(img)
        pts = cl.heatmap_to_points(heat, 0.0, 4.0, 60)
        return pts, descriptor_sample(dmap, pts)

    images = [sd.render_composite((48, 64), np.random.default_rng(6)).image]
    pairs = ev.warped_pair_dataset(images, geo.ranges_preset("training"), seed=0)
    counts = _traced(tracer, lambda: ev.run_matching_benchmark(system, pairs))
    assert counts["evalsuite.match_nn.calls"] == 5
    assert workloads.Match.expected_counts(1) == {"evalsuite.match_nn.calls": 5}


def test_conv_backward_calls_per_training_step(tracer):
    arch = ARCH_PRESETS["micro"]
    stream = sd.StreamConfig(32, 32, seed=0)
    counts = _traced(tracer, lambda: train_magicpoint(arch, stream, TrainConfig(iterations=1, batch_size=2)))
    assert counts["neural.Conv2d.backward.calls"] == 10
    data = [(s.image, s.points) for s in (sd.sample_at(stream, i) for i in range(4))]
    counts = _traced(tracer, lambda: train_superpoint(None, arch, data, TrainConfig(iterations=1, batch_size=2)))
    assert counts["neural.Conv2d.backward.calls"] == 12
    steps = workloads.TRAIN_STEPS
    assert workloads.Train.expected_counts(2) == {"neural.Conv2d.backward.calls": steps * (10 + 12)}
