"""The four workloads: set-up from a seed, one unit of work, and its checks.

A unit is one call into the program: a training call of ``TRAIN_STEPS``
steps, or one image or pair.  ``run(i)`` returns a ``Unit`` with the
number of items it completed and their durations; ``check(unit, calls)``
tests the outputs, where ``calls`` holds the captured calls of that unit.
Check code runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from pointpipe import adaptation as ad
from pointpipe import cli
from pointpipe import evalsuite as ev
from pointpipe import geometry as geo
from pointpipe import synthdata as sd
from pointpipe.neural import (
    ARCH_PRESETS,
    LossConfig,
    PointNet,
    TrainConfig,
    cells_from_points,
    correspondences,
    load_weights,
    loss_descriptor,
    loss_detector,
    train_magicpoint,
    train_superpoint,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
DETECTOR_WEIGHTS = os.path.join(FIXTURES, "detector.spw")
JOINT_WEIGHTS = os.path.join(FIXTURES, "joint.spw")

SHAPE = (240, 320)
THRESHOLD = 0.015
NMS_RADIUS = 4.0
TRAIN_SIZE = 96
TRAIN_STEPS = 10  # steps per training call; a round is one pretraining and one joint call
JOINT_PAIRS = 4
N_WARPS = 20
MATCH_POINTS = 1000
RANSAC_THRESHOLD = 3.0
DETECT_POINTS = 300
COVERAGE = (0.55, 0.70)


@dataclass
class Unit:
    items: int
    item_s: list
    failed: int = 0
    output: object = None
    errors: list = field(default_factory=list)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def corpus(n: int) -> list:
    """The first n composites that ``eval-detector`` renders with its default seed.

    The corpus is the same for every run seed; the seed draws the warps.
    Greedy-NMS cost per composite varies fourfold with its background
    shading, and drawing the composites from the seed made the detect
    workload's throughput spread 28 % (IQR over median, 5 seeds).
    """
    return cli.composite_images(n, SHAPE, 0)


def coverage(h: np.ndarray, shape) -> float:
    """Share of the warped image's pixels whose source lies inside the image."""
    hgt, wdt = shape
    ys, xs = np.mgrid[0:hgt:4, 0:wdt:4]
    pts = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)]).astype(np.float64)
    src = np.linalg.inv(h) @ pts
    x, y = src[0] / src[2], src[1] / src[2]
    return float(np.mean((x >= 0) & (x <= wdt - 1) & (y >= 0) & (y <= hgt - 1)))


def warped_pairs(images, seed: int) -> list:
    """(image, warped image, homography) as ``warped_pair_dataset`` builds them,
    with each warp redrawn from the seed until its coverage is within COVERAGE.

    Most classical candidates lie in the covered part of the warped image,
    so a warp's coverage sets about half of a detect item's cost; drawn
    freely, it ranges from 0.4 to 0.85.
    """
    pairs = []
    ranges = geo.ranges_preset("training")
    for i, img in enumerate(images):
        rng = _rng(seed, 0xBB, i)
        while True:
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
            if COVERAGE[0] <= coverage(h, img.shape) <= COVERAGE[1]:
                break
        warped, _ = geo.warp_image(img, h)
        pairs.append((img, warped, h))
    return pairs


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _nms_errors(calls) -> list:
    errors = []
    for (args, result) in calls.get("classical.nms", []):
        msg = checks.check_greedy_nms(args[0], result, args[1])
        if msg:
            errors.append("nms: " + msg)
    return errors


class Workload:
    units_per_round = 1  # a run ends on a round boundary
    items_per_unit = 1
    warmup_kwargs: dict = {}  # for the warm-up round's units

    @staticmethod
    def expected_counts(units: int) -> dict:
        """Traced call counts that the program's structure fixes for ``units`` units."""
        return {}

    def final_check(self) -> list:
        return []


class Train(Workload):
    """Pretraining calls alternating with joint calls, TRAIN_STEPS steps each."""

    name = "train"
    units_per_round = 2
    items_per_unit = TRAIN_STEPS
    warmup_kwargs = {"steps": 1}  # one step holds the same buffers as ten

    def __init__(self, seed: int):
        self.seed = seed
        self.arch = ARCH_PRESETS["micro"]
        self.base_state = load_weights(DETECTOR_WEIGHTS)
        stream = sd.StreamConfig(TRAIN_SIZE, TRAIN_SIZE, seed=seed)
        samples = [sd.sample_at(stream, i) for i in range(64)]
        self.dataset = [(s.image, s.points) for s in samples]
        held_out = [sd.sample_at(stream, 1_000_000 + i) for i in range(8)]
        self.held_images = np.stack([s.image for s in held_out])[:, None]
        self.held_points = [s.points for s in held_out]

    def _cfg(self, unit: int, iterations: int, batch: int) -> TrainConfig:
        return TrainConfig(iterations=iterations, batch_size=batch, seed=self.seed * 1000 + unit)

    def run(self, unit: int, steps: int = TRAIN_STEPS) -> Unit:
        stamps = []
        progress = lambda it, loss: stamps.append(time.perf_counter())  # noqa: E731
        start = time.perf_counter()
        if unit % 2 == 0:
            stream = sd.StreamConfig(TRAIN_SIZE, TRAIN_SIZE, seed=self.seed * 1000 + unit)
            cfg = self._cfg(unit, steps, 8)
            model = train_magicpoint(self.arch, stream, cfg, progress=progress)
        else:
            cfg = self._cfg(unit, steps, JOINT_PAIRS)
            model = train_superpoint(self.base_state, self.arch, self.dataset, cfg, progress=progress)
        item_s = np.diff([start] + stamps).tolist()
        return Unit(items=len(stamps), item_s=item_s, output=(unit % 2, cfg, model))

    @staticmethod
    def expected_counts(units: int) -> dict:
        # 8 encoder convs and 2 detector-head convs; the joint model adds 2 descriptor-head convs
        pretrain = (units + 1) // 2
        return {"neural.Conv2d.backward.calls": TRAIN_STEPS * (10 * pretrain + 12 * (units - pretrain))}

    def _held_out_loss(self, state, with_descriptor: bool, seed: int) -> float:
        model = PointNet(self.arch, with_descriptor=with_descriptor, seed=seed)
        model.store.load_state(state, strict=False)
        h, w = TRAIN_SIZE, TRAIN_SIZE
        labels = np.stack([cells_from_points(p, h, w, _rng(seed, 1, j)) for j, p in enumerate(self.held_points)])
        if not with_descriptor:
            logits, _ = model.forward(self.held_images, train=True)
            return loss_detector(logits, labels)[0]
        # the joint objective on held-out pairs: both detector terms plus lam * descriptor term
        rng = _rng(seed, 2)
        views, warped_labels, grids = [], [], []
        for j, (img, pts) in enumerate(zip(self.held_images[:, 0], self.held_points)):
            hom = geo.to_pixel_frame(geo.sample_homography(geo.ranges_preset("training"), rng), img.shape)
            warped = sd.homographic_augment(sd.ShapeSample(img, pts, None), hom)
            views.append(warped.image)
            warped_labels.append(cells_from_points(warped.points, h, w, _rng(seed, 3, j)))
            grids.append(correspondences(hom, h // 8, w // 8))
        n = len(views)
        x = np.concatenate([self.held_images, np.stack(views)[:, None]])
        logits, desc = model.forward(x, train=True)
        det, _ = loss_detector(logits, np.concatenate([labels, np.stack(warped_labels)]))
        cfg = LossConfig()
        desc_loss = np.mean([loss_descriptor(desc[j], desc[n + j], grids[j], cfg)[0] for j in range(n)])
        return 2.0 * det + cfg.lam * desc_loss

    def check(self, unit: Unit, calls) -> None:
        joint, cfg, model = unit.output
        state = model.store.state_dict()
        bad = [k for k, v in state.items() if not np.all(np.isfinite(v))]
        if bad:
            unit.errors.append(f"non-finite weights after training: {bad[:3]}")
            return
        if joint:
            start = PointNet(self.arch, with_descriptor=True, seed=cfg.seed)
            start.store.load_state(self.base_state, strict=False)
        else:
            start = PointNet(self.arch, with_descriptor=False, seed=cfg.seed)
        before = self._held_out_loss(start.store.state_dict(), bool(joint), self.seed)
        after = self._held_out_loss(state, bool(joint), self.seed)
        if not after < before:
            kind = "joint" if joint else "pretraining"
            unit.errors.append(f"{kind} held-out loss did not fall: {before:.6f} -> {after:.6f}")
        unit.output = _digest(*state.values())


class Label(Workload):
    """Homographic Adaptation of one composite, as ``adapt-label`` runs it."""

    name = "label"
    units_per_round = 4  # a round is one pass over the images

    def __init__(self, seed: int):
        self.seed = seed
        self.detector = cli.heatmap_detector(DETECTOR_WEIGHTS)
        self.cfg = ad.AdaptConfig(n_homographies=N_WARPS, detect_threshold=THRESHOLD, nms_radius=NMS_RADIUS)
        self.images = corpus(self.units_per_round)

    def run(self, unit: int) -> Unit:
        img = self.images[unit % len(self.images)]
        start = time.perf_counter()
        history = ad.self_label([img], self.detector, self.cfg, rounds=1, seed=self.seed * 1000 + unit)
        item_s = [time.perf_counter() - start]
        points = history[0][0][0]
        return Unit(items=1, item_s=item_s, failed=int(len(points) == 0), output=points)

    @staticmethod
    def expected_counts(units: int) -> dict:
        # forward warp of the image, back-warp of the response and of the coverage mask
        return {"geometry.warp_image.calls": 3 * (N_WARPS - 1) * units}

    def check(self, unit: Unit, calls) -> None:
        points = unit.output
        (adapt_args, heat), = calls["adaptation.adapt"]
        img = adapt_args[1]
        if heat.shape != img.shape or not np.all(np.isfinite(heat)) or heat.min() < 0 or heat.max() > 1:
            unit.errors.append("adapted heatmap is not a probability map of the image's shape")
        if len(points) and (points[:, 2].min() < THRESHOLD or not np.array_equal(
                points[:, 2], heat[points[:, 1].astype(int), points[:, 0].astype(int)].astype(np.float64))):
            unit.errors.append("label confidences do not match the adapted heatmap")
        unit.errors.extend(_nms_errors(calls))
        unit.output = _digest(points)


class Match(Workload):
    """The ``eval-matching`` path on one warped pair."""

    name = "match"
    units_per_round = 4  # a round is one pass over the pairs

    def __init__(self, seed: int):
        self.seed = seed
        self.system = cli.make_system(JOINT_WEIGHTS, THRESHOLD, NMS_RADIUS, MATCH_POINTS)
        images = corpus(self.units_per_round)
        self.pairs = warped_pairs(images, seed)
        self.protocol = ev.MatchingProtocol(
            n_points=MATCH_POINTS, eps=3.0,
            ransac=ev.RansacParams(threshold=RANSAC_THRESHOLD, seed=seed),
        )

    def run(self, unit: int) -> Unit:
        pair = self.pairs[unit % len(self.pairs)]
        start = time.perf_counter()
        report = ev.run_matching_benchmark(self.system, [pair], self.protocol)
        item_s = [time.perf_counter() - start]
        return Unit(items=1, item_s=item_s, failed=int(report.counts["estimated"] != 1),
                    output=(pair, report))

    @staticmethod
    def expected_counts(units: int) -> dict:
        # nn_map both ways, matching_score both ways, and a->b again before RANSAC
        return {"evalsuite.match_nn.calls": 5 * units}

    def check(self, unit: Unit, calls) -> None:
        (img_a, img_b, h), report = unit.output
        for args, result in calls["evalsuite.match_nn"]:
            msg = checks.check_nn_argmin(args[0], args[1], result.idx_b, result.distance)
            if msg:
                unit.errors.append("match_nn: " + msg)
        estimates = calls.get("evalsuite.estimate_homography", [])
        if not unit.failed:
            _, h_est = estimates[-1]
            msg = checks.check_corner_error(h_est, h, img_a.shape, report.rows[0][3])
            if msg:
                unit.errors.append(msg)
        unit.errors.extend(_nms_errors(calls))
        unit.output = _digest(np.asarray(report.rows, dtype=np.float64),
                              *(r for _, r in estimates))


class Detect(Workload):
    """The ``eval-detector`` path: harris, shi, fast and random on one warped pair."""

    name = "detect"
    units_per_round = 6  # a round is one pass over the pairs

    def __init__(self, seed: int):
        self.seed = seed
        self.detectors = cli.parse_detectors(",".join(cli.CLASSICAL_NAMES), THRESHOLD)
        images = corpus(self.units_per_round)
        self.pairs = warped_pairs(images, seed)
        self.protocol = ev.DetectorProtocol(n_points=DETECT_POINTS, eps=3.0, nms_radius=NMS_RADIUS)

    def run(self, unit: int) -> Unit:
        pair = self.pairs[unit % len(self.pairs)]
        start = time.perf_counter()
        reports = ev.run_detector_benchmark(self.detectors, [pair], self.protocol, seed=self.seed * 1000 + unit)
        item_s = [time.perf_counter() - start]
        return Unit(items=1, item_s=item_s, output=reports)

    def check(self, unit: Unit, calls) -> None:
        reports = unit.output
        for name, rep in reports.items():
            _, r, _, n1, n2 = rep.rows[0]
            if not (0.0 <= r <= 1.0 and n1 <= DETECT_POINTS and n2 <= DETECT_POINTS):
                unit.errors.append(f"{name}: repeatability {r} with {n1}/{n2} points is out of range")
        unit.errors.extend(_nms_errors(calls))
        unit.output = _digest(np.asarray([row for rep in reports.values() for row in rep.rows], dtype=np.float64))

    def final_check(self) -> list:
        """Each deterministic detector is perfectly repeatable on (img, img, I)."""
        img = self.pairs[0][0]
        reports = ev.run_detector_benchmark(self.detectors, [(img, img, np.eye(3))], self.protocol,
                                            include_random=False)
        msg = checks.check_identity_repeatability(reports)
        return [msg] if msg else []


WORKLOADS = {w.name: w for w in (Train, Label, Match, Detect)}
