"""Single command-line entry point for the whole pipeline.

Subcommands cover dataset dumping, detector pretraining, self-labeling,
joint training, detection/matching on files, the benchmark protocols, and
``reproduce``, which runs the paper's noise, blob and warp-count experiments
at fixed settings.  Every option can come from a
``--config`` file (section.key = value) or a flag; flags win.  An option's
type states the values it accepts (see ``config``), so every setting is
checked before a subcommand starts; the subcommands check only what depends
on their inputs, such as ``adapt.crop`` against the image sizes.  Images and
warps run on ``blas.ordered_map``'s workers, one per usable core.  Exit
codes: 0 success, 2 configuration error, 3 runtime or data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
import time
import zlib

import numpy as np

from . import adaptation as ad
from . import classical as cl
from . import evalsuite as ev
from . import geometry as geo
from . import imaging as im
from . import synthdata as sd
from .blas import ordered_map
from .config import ConfigError, Option, parse_config_file, resolve
from .neural import (
    ARCH_PRESETS,
    LossConfig,
    PointNet,
    TrainConfig,
    descriptor_sample,
    infer_arch,
    load_weights,
    save_weights,
    train_magicpoint,
    train_superpoint,
)
from .neural.network import CELL
from .neural.training import LossLog, train_detector_on_labels

CLASSICAL_NAMES = ("harris", "shi", "fast")
ARCH_TYPE = "|".join(("str", *ARCH_PRESETS))
PRESET_TYPE = "|".join(("str", *geo.PRESETS))
THRESHOLD_HELP = "heatmap threshold of a .spw detector; harris and shi are thresholded at 1e-12, fast not at all"

# the fixed settings of ``reproduce``
PROTOCOL = ev.DetectorProtocol(n_points=300, eps=3.0, nms_radius=4.0)
NOISE_SHAPE = (96, 96)
COMPOSITE_SHAPE = (240, 320)
THRESHOLD = 0.015
NH_LIST = (1, 10, 100)


# ---------------------------------------------------------------------------
# shared helpers: loading, settings groups, output


def load_model(path) -> PointNet:
    state = load_weights(path)
    arch, with_desc = infer_arch(state)
    model = PointNet(arch, with_descriptor=with_desc, seed=0)
    model.store.load_state(state)
    return model


def detector_option(key, help_text):
    """A weight file or one of CLASSICAL_NAMES, which a config file keeps as written."""
    return Option(key, "|".join(("path", *CLASSICAL_NAMES)), help=help_text)


def candidate_detector(spec: str, threshold: float):
    """callable(image) -> candidate (N,3) points in no set order; the protocol's selection ranks them."""
    if spec == "fast":
        return lambda img: cl.fast(img)
    response = heatmap_detector(spec)
    if spec in CLASSICAL_NAMES:
        threshold = 1e-12
    return lambda img: cl.threshold_points(response(img), threshold)


def heatmap_detector(spec: str):
    """callable(image) -> dense response map (for adaptation)."""
    # looked up per call, so a wrapper installed on the module later (the benchmark's tracer) sees it
    if spec == "harris":
        return lambda img: cl.harris(img)
    if spec == "shi":
        return lambda img: cl.shi_tomasi(img)
    if spec == "fast":
        raise ConfigError("fast produces points, not a dense map; use harris/shi or weights")
    model = load_model(spec)
    return model.heatmap


def make_system(weights, threshold, nms_radius, top_k, random_desc_seed=None):
    model = load_model(weights)
    if model.desc_head is None:
        raise ConfigError(f"{weights}: weight file has no descriptor head")
    rng = np.random.default_rng(random_desc_seed) if random_desc_seed is not None else None

    def system(img):
        heat, dmap = model.describe(img)
        pts = cl.heatmap_to_points(heat, threshold, nms_radius, top_k)
        if rng is None:
            desc = descriptor_sample(dmap, pts) if len(pts) else np.zeros((0, dmap.shape[0]))
        else:
            desc = rng.normal(size=(len(pts), dmap.shape[0]))
            desc /= np.maximum(np.linalg.norm(desc, axis=1, keepdims=True), 1e-12)
        return pts, desc

    return system


def list_images(directory):
    names = sorted(n for n in os.listdir(directory) if n.endswith(".pgm"))
    if not names:
        raise ConfigError(f"no .pgm images in {directory!r}")
    return [os.path.join(directory, n) for n in names]


def parse_mix(key: str, text: str):
    """The category weights of a mix setting (``star:0.5,cube:0.5``, weight 1 when left out), None for uniform."""
    if text == "uniform":
        return None
    mix = {}
    for part in text.split(","):
        name, _, weight = part.partition(":")
        try:
            cat = sd.ShapeCategory(name.strip())
        except ValueError:
            raise ConfigError(f"config key {key}: unknown shape category {name.strip()!r}") from None
        if cat in mix:
            raise ConfigError(f"config key {key}: category {cat.value} is given twice")
        try:
            mix[cat] = float(weight) if weight else 1.0
            if not (math.isfinite(mix[cat]) and mix[cat] >= 0.0):
                raise ValueError(weight)
        except ValueError:
            raise ConfigError(f"config key {key}: the weight of {cat.value} must be a finite number >= 0, "
                              f"got {weight.strip()!r}") from None
    if sum(mix.values()) <= 0.0:
        raise ConfigError(f"config key {key}: the category weights must sum to > 0, got {text!r}")
    return mix


def composite_images(count, shape, seed):
    return [
        sd.render_composite(shape, np.random.default_rng(np.random.SeedSequence((seed, 0x7A, i)))).image
        for i in range(count)
    ]


def pair_options(section, count, height, width, n_points):
    """The settings of a warped-pair benchmark (eval-detector, eval-matching)."""
    return [
        Option(f"{section}.images", "path", "composites", "image dir or 'composites'"),
        Option(f"{section}.count", "count", count),
        Option(f"{section}.height", "side", height),
        Option(f"{section}.width", "side", width),
        Option(f"{section}.n_points", "budget", n_points),
        Option(f"{section}.eps", "distance", 3.0),
        Option(f"{section}.nms", "radius", 4.0),
        Option(f"{section}.threshold", "threshold", 0.015, THRESHOLD_HELP),
        Option(f"{section}.out", "path", help="output CSV"),
        Option(f"{section}.seed", "int", 0),
    ]


def pair_benchmark(source, count, shape, seed, preset="training"):
    """Warped pairs of the first ``count`` images of a directory, or of ``count`` composites of ``shape``."""
    if source == "composites":
        images = composite_images(count, shape, seed)
    else:
        images = [im.read_pgm(p) for p in list_images(source)[:count]]
    return ev.warped_pair_dataset(images, geo.ranges_preset(preset), seed=seed)


def parse_detectors(text, threshold):
    out = {}
    for part in text.split(","):
        name, _, path = part.partition(":")
        name = name.strip()
        out[name] = candidate_detector(path.strip() if path else name, threshold)
    return out


def write_csv(path, header, rows):
    """One header line, then the rows; values are formatted by the caller."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def training_options(section, batch):
    """The settings both training commands take; train_and_save reads all but arch."""
    return [
        Option(f"{section}.out", "path", help="output .spw weight file"),
        Option(f"{section}.iterations", "steps", 2000),
        Option(f"{section}.batch", "count", batch),
        Option(f"{section}.arch", ARCH_TYPE, "micro", "micro or full"),
        Option(f"{section}.seed", "int", 0),
        Option(f"{section}.lr", "float", 0.001),
        Option(f"{section}.log", "path", ""),
        Option(f"{section}.log_every", "count", 100),
    ]


def train_and_save(cfg, section, train, done, **extra):
    """Run train(TrainConfig, LossLog, progress) -> model, then write the weights, the loss CSV and the summary lines.

    ``extra`` holds further TrainConfig fields; ``done`` is the first summary line, formatted with
    ``iterations`` and the last logged loss ``final``.  Each logged step also prints a progress line
    with the elapsed wall time to stderr, so stdout and the loss CSV stay byte-reproducible.
    """
    train_cfg = TrainConfig(iterations=cfg[f"{section}.iterations"], batch_size=cfg[f"{section}.batch"],
                            seed=cfg[f"{section}.seed"], lr=cfg[f"{section}.lr"],
                            log_every=cfg[f"{section}.log_every"], **extra)
    log = LossLog()
    start = time.perf_counter()

    def progress(it, loss):
        if train_cfg.logs(it):
            print(f"iter {it}/{train_cfg.iterations} loss {loss:.4f} elapsed {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)

    model = train(train_cfg, log, progress)
    save_weights(cfg[f"{section}.out"], model.store)
    if cfg[f"{section}.log"]:
        log.write_csv(cfg[f"{section}.log"])
    print(done.format(iterations=train_cfg.iterations, final=log.rows[-1][1] if log.rows else float("nan")))
    print(f"weights -> {cfg[f'{section}.out']}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg):
    stream_cfg = sd.StreamConfig(
        height=cfg["synth.height"], width=cfg["synth.width"],
        mix=parse_mix("synth.mix", cfg["synth.mix"]), noise=cfg["synth.noise"], seed=cfg["synth.seed"],
    )
    out = cfg["synth.out"]
    os.makedirs(out, exist_ok=True)
    manifest = []
    for i in range(cfg["synth.count"]):
        sample = sd.sample_at(stream_cfg, i)
        im.write_pgm(os.path.join(out, f"{i:06d}.pgm"), sample.image)
        sd.write_points(os.path.join(out, f"{i:06d}.pts"), sample.points)
        manifest.append(f"{i:06d} {sample.category.value}")
    with open(os.path.join(out, "manifest.txt"), "w") as f:
        f.write("\n".join(manifest) + "\n")
    print(f"wrote {cfg['synth.count']} samples to {out}")


SYNTH_SCHEMA = [
    Option("synth.out", "path", help="output directory"),
    Option("synth.count", "count", 100),
    Option("synth.height", "side", 96),
    Option("synth.width", "side", 96),
    Option("synth.mix", "str", "uniform", "category mix, e.g. star:0.5,cube:0.5"),
    Option("synth.noise", "bool", True),
    Option("synth.seed", "int", 0),
]


def cmd_train_magicpoint(cfg):
    stream_cfg = sd.StreamConfig(
        height=cfg["train_mp.height"], width=cfg["train_mp.width"],
        mix=parse_mix("train_mp.mix", cfg["train_mp.mix"]), noise=cfg["train_mp.noise"], seed=cfg["train_mp.seed"],
    )
    ckpt_dir = os.path.dirname(os.path.abspath(cfg["train_mp.out"]))

    def train(train_cfg, log, progress):
        os.makedirs(ckpt_dir, exist_ok=True)
        return train_magicpoint(ARCH_PRESETS[cfg["train_mp.arch"]], stream_cfg, train_cfg, log=log,
                                checkpoint_dir=ckpt_dir, progress=progress)

    train_and_save(cfg, "train_mp", train, "trained {iterations} iterations, final loss {final:.4f}",
                   checkpoint_every=cfg["train_mp.checkpoint_every"])


TRAIN_MP_SCHEMA = [
    *training_options("train_mp", batch=8),
    Option("train_mp.height", "cells", 96),
    Option("train_mp.width", "cells", 96),
    Option("train_mp.mix", "str", "uniform"),
    Option("train_mp.noise", "bool", True),
    Option("train_mp.checkpoint_every", "steps", 0),
]


def cmd_adapt_label(cfg):
    images = [im.read_pgm(p) for p in list_images(cfg["adapt.images"])]
    detector = heatmap_detector(cfg["adapt.weights"])
    adapt_cfg = ad.AdaptConfig(
        n_homographies=cfg["adapt.nh"], detect_threshold=cfg["adapt.threshold"],
        nms_radius=cfg["adapt.nms"],
    )
    rounds = cfg["adapt.rounds"]
    seed = cfg["adapt.seed"]
    retrains = rounds > 1 or cfg["adapt.retrain_final"]
    train_cfg = TrainConfig(iterations=cfg["adapt.train_iterations"], batch_size=cfg["adapt.train_batch"])
    crop = cfg["adapt.crop"]
    side = min(min(img.shape) for img in images)
    if retrains and not (CELL <= crop <= side and crop % CELL == 0):
        raise ValueError(f"adapt.crop must be a multiple of {CELL} from {CELL} to the smallest image side "
                         f"{side}, got {crop}")

    def retrain(dataset, round_index):
        arch = ARCH_PRESETS[cfg["adapt.arch"]]
        state = None
        if cfg["adapt.weights"] not in CLASSICAL_NAMES:
            # read again each round: the model shares these arrays and training updates them in place
            state = load_weights(cfg["adapt.weights"])
            arch, _ = infer_arch(state)
        model = train_detector_on_labels(
            arch, dataset, dataclasses.replace(train_cfg, seed=seed + round_index),
            size=(crop, crop), base_state=state,
        )
        path = os.path.join(cfg["adapt.out"], f"detector_round_{round_index}.spw")
        save_weights(path, model.store)
        return model.heatmap

    # self_label creates the output directory with round_1/
    ad.self_label(
        images, detector, adapt_cfg, rounds,
        retrain=retrain if retrains else None,
        out_dir=cfg["adapt.out"], seed=seed, top_k=cfg["adapt.top_k"],
    )
    print(f"labeled {len(images)} images over {rounds} round(s) -> {cfg['adapt.out']}")


ADAPT_SCHEMA = [
    Option("adapt.images", "path", help="directory of .pgm images to label"),
    detector_option("adapt.weights", ".spw file or harris/shi"),
    Option("adapt.out", "path", help="label output directory"),
    Option("adapt.nh", "count", 100, "number of homographies (identity included)"),
    Option("adapt.rounds", "count", 1),
    Option("adapt.threshold", "threshold", 0.015),
    Option("adapt.nms", "radius", 4.0),
    Option("adapt.top_k", "budget", 0),
    Option("adapt.arch", ARCH_TYPE, "micro"),
    Option("adapt.crop", "int", 96, "training crop for the per-round retrain"),
    Option("adapt.train_iterations", "steps", 1000),
    Option("adapt.train_batch", "count", 8),
    Option("adapt.retrain_final", "bool", False, "retrain even when rounds=1"),
    Option("adapt.seed", "int", 0),
]


def cmd_train_superpoint(cfg):
    image_paths = list_images(cfg["train_sp.images"])
    label_dir = cfg["train_sp.labels"]
    dataset = []
    for p in image_paths:
        stem = os.path.splitext(os.path.basename(p))[0]
        lp = os.path.join(label_dir, stem + ".pts")
        if not os.path.exists(lp):
            raise ConfigError(f"no label file for {stem!r} in {label_dir!r}")
        dataset.append((im.read_pgm(p), sd.read_points(lp)))
    base_state = load_weights(cfg["train_sp.base"]) if cfg["train_sp.base"] else None
    arch = ARCH_PRESETS[cfg["train_sp.arch"]]
    if base_state is not None:
        arch, _ = infer_arch(base_state)
    loss_cfg = LossConfig(
        lam=cfg["train_sp.lam"], lam_d=cfg["train_sp.lam_d"],
        m_p=cfg["train_sp.margin_pos"], m_n=cfg["train_sp.margin_neg"],
    )
    train_and_save(cfg, "train_sp",
                   lambda train_cfg, log, progress: train_superpoint(base_state, arch, dataset, train_cfg,
                                                                     loss_cfg=loss_cfg, log=log, progress=progress),
                   "joint training done ({iterations} iterations)")


TRAIN_SP_SCHEMA = [
    Option("train_sp.images", "path", help="directory of .pgm images"),
    Option("train_sp.labels", "path", help="directory of matching .pts files"),
    *training_options("train_sp", batch=4),
    Option("train_sp.base", "path", "", "detector weights to start from"),
    Option("train_sp.lam", "float", 0.0001),
    Option("train_sp.lam_d", "float", 250.0),
    Option("train_sp.margin_pos", "float", 1.0),
    Option("train_sp.margin_neg", "float", 0.2),
]


def cmd_detect(cfg):
    inp = cfg["detect.input"]
    paths = list_images(inp) if os.path.isdir(inp) else [inp]
    detector = candidate_detector(cfg["detect.weights"], cfg["detect.threshold"])
    out = cfg["detect.out"]
    os.makedirs(out, exist_ok=True)

    def work(path):
        image = im.read_pgm(path)
        pts = cl.select_points(detector(image), cfg["detect.nms"], cfg["detect.top_k"])
        stem = os.path.splitext(os.path.basename(path))[0]
        sd.write_points(os.path.join(out, stem + ".pts"), pts)
        im.write_pgm(os.path.join(out, stem + "_overlay.pgm"), im.overlay_points(image, pts))
        return len(pts)

    counts = list(ordered_map(work, paths))
    print(f"detected points in {len(paths)} image(s): {counts}")


DETECT_SCHEMA = [
    Option("detect.input", "path", help="image file or directory"),
    detector_option("detect.weights", ".spw file or harris/shi/fast"),
    Option("detect.out", "path", help="output directory"),
    Option("detect.threshold", "threshold", 0.015, THRESHOLD_HELP),
    Option("detect.nms", "radius", 4.0),
    Option("detect.top_k", "budget", 0),
]


def cmd_match(cfg):
    ransac = ev.RansacParams(threshold=cfg["match.ransac_threshold"], max_iters=cfg["match.ransac_iters"],
                             seed=cfg["match.seed"])
    system = make_system(cfg["match.weights"], cfg["match.threshold"], cfg["match.nms"],
                         cfg["match.top_k"])
    img_a = im.read_pgm(cfg["match.image_a"])
    img_b = im.read_pgm(cfg["match.image_b"])
    pts_a, desc_a = system(img_a)
    pts_b, desc_b = system(img_b)
    matches = ev.match_nn(desc_a, desc_b, pts_a, pts_b)
    h_est = ev.estimate_homography(matches, ransac)
    out = cfg["match.out"]
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "matches.csv"), ["idx_a", "idx_b", "xa", "ya", "xb", "yb", "distance"],
              [(i, j, f"{pts_a[i, 0]:.3f}", f"{pts_a[i, 1]:.3f}", f"{pts_b[j, 0]:.3f}", f"{pts_b[j, 1]:.3f}",
                f"{d:.6f}") for i, j, d in zip(matches.idx_a, matches.idx_b, matches.distance)])
    geo.save_homography(os.path.join(out, "estimated.htxt"), h_est)
    side = np.hstack([im.overlay_points(img_a, pts_a), im.overlay_points(img_b, pts_b)])
    im.write_pgm(os.path.join(out, "side_by_side.pgm"), side)
    print(f"{len(pts_a)} x {len(pts_b)} points, {len(matches.idx_a)} matches -> {out}")


MATCH_SCHEMA = [
    Option("match.weights", "path", help="joint .spw weight file"),
    Option("match.image_a", "path"),
    Option("match.image_b", "path"),
    Option("match.out", "path", help="output directory"),
    Option("match.threshold", "threshold", 0.015),
    Option("match.nms", "radius", 4.0),
    Option("match.top_k", "budget", 1000),
    Option("match.ransac_threshold", "distance", 3.0),
    Option("match.ransac_iters", "count", 2000),
    Option("match.seed", "int", 0),
]


def cmd_eval_detector(cfg):
    detectors = parse_detectors(cfg["eval_det.detectors"], cfg["eval_det.threshold"])
    protocol = ev.DetectorProtocol(n_points=cfg["eval_det.n_points"], eps=cfg["eval_det.eps"],
                                   nms_radius=cfg["eval_det.nms"])
    pairs = pair_benchmark(cfg["eval_det.images"], cfg["eval_det.count"],
                           (cfg["eval_det.height"], cfg["eval_det.width"]), cfg["eval_det.seed"],
                           cfg["eval_det.preset"])
    reports = ev.run_detector_benchmark(detectors, pairs, protocol, seed=cfg["eval_det.seed"])
    ev.write_detector_report_csv(cfg["eval_det.out"], reports)
    print(ev.format_detector_table(reports))
    print(f"report -> {cfg['eval_det.out']}")


EVAL_DET_SCHEMA = [
    Option("eval_det.detectors", "str", help="comma list: name[:weights], e.g. magic:w.spw,harris"),
    Option("eval_det.preset", PRESET_TYPE, "training", "homography preset for pairs"),
    *pair_options("eval_det", count=50, height=240, width=320, n_points=300),
]


def cmd_eval_matching(cfg):
    seed = cfg["eval_match.seed"]
    protocol = ev.MatchingProtocol(n_points=cfg["eval_match.n_points"], eps=cfg["eval_match.eps"],
                                   eps_list=cfg["eval_match.eps_list"], ransac=ev.RansacParams(seed=seed))
    system = make_system(
        cfg["eval_match.weights"], cfg["eval_match.threshold"], cfg["eval_match.nms"],
        cfg["eval_match.n_points"],
        random_desc_seed=seed if cfg["eval_match.random_descriptors"] else None,
    )
    pairs = pair_benchmark(cfg["eval_match.images"], cfg["eval_match.count"],
                           (cfg["eval_match.height"], cfg["eval_match.width"]), seed, cfg["eval_match.preset"])
    report = ev.run_matching_benchmark(system, pairs, protocol)
    ev.write_matching_report_csv(cfg["eval_match.out"], report)
    print(ev.format_matching_table(report))
    print(f"report -> {cfg['eval_match.out']}")


EVAL_MATCH_SCHEMA = [
    Option("eval_match.weights", "path", help="joint .spw weight file"),
    Option("eval_match.preset", PRESET_TYPE, "training"),
    Option("eval_match.eps_list", "distance list", "1,3,5"),
    Option("eval_match.random_descriptors", "bool", False),
    *pair_options("eval_match", count=50, height=96, width=96, n_points=1000),
]


def noise_samples(count, seed):
    """``count`` clean shapes of NOISE_SHAPE that no training stream draws."""
    stream_cfg = sd.StreamConfig(height=NOISE_SHAPE[0], width=NOISE_SHAPE[1], noise=False)
    # sample_at draws sample i of a stream from the key (seed, i); the spawn key 0x5E makes these keys
    # five words long, so no stream whose seed and index fit in 32 bits draws an evaluation shape
    keys = [np.random.SeedSequence((seed, i), spawn_key=(0x5E,)) for i in range(count)]
    return [sd.sample_from(stream_cfg, np.random.default_rng(key)) for key in keys]


def _noise_experiment(samples, detectors, conditions, corrupt):
    """(condition label, detector, mAP, MLE) rows on the samples under each condition.

    ``conditions`` is a list of (CSV label, condition); ``corrupt(condition,
    i, image)`` returns sample i's image under that condition.
    """
    rows = []
    for label, condition in conditions:
        corrupted = [sd.ShapeSample(corrupt(condition, i, s.image), s.points, s.category)
                     for i, s in enumerate(samples)]
        for name, det in detectors.items():
            mapv, mle, _ = ev.detector_gt_metrics(det, corrupted, PROTOCOL.eps)
            rows.append((label, name, f"{mapv:.6f}", f"{mle:.6f}"))
    return rows


def square_sweep(heatmap):
    """(width, center confidence, corner confidence) rows of a square of each odd width 3..91."""
    rows = []
    for width in range(3, 92, 2):
        sample = sd.render_square(width)
        heat = heatmap(sample.image)

        def peak(p):
            x0, y0 = int(np.floor(p[0])), int(np.floor(p[1]))
            return float(heat[y0 : y0 + 2, x0 : x0 + 2].max())

        rows.append((width, f"{peak(sample.points[4, :2]):.6f}", f"{peak(sample.points[0, :2]):.6f}"))
    return rows


def adapted_detector(base, nh, seed):
    """callable(image) -> every point of base's response averaged over nh warps, drawn per image."""
    adapt_cfg = ad.AdaptConfig(n_homographies=nh)
    return lambda img: cl.threshold_points(ad.adapt(base, img, adapt_cfg, seed=zlib.crc32(img.tobytes()) ^ seed),
                                           -np.inf)


def cmd_reproduce(cfg):
    out, seed = cfg["reproduce.out"], cfg["reproduce.seed"]
    learned = load_model(cfg["reproduce.weights"]).heatmap
    points = {"learned": lambda img: cl.threshold_points(learned(img), THRESHOLD),
              **{name: candidate_detector(name, THRESHOLD) for name in CLASSICAL_NAMES}}
    dense = {"learned": learned, **{name: heatmap_detector(name) for name in ("harris", "shi")}}
    samples = noise_samples(cfg["reproduce.samples"], seed)
    pairs = pair_benchmark(cfg["reproduce.images"], cfg["reproduce.pairs"], COMPOSITE_SHAPE, seed)
    os.makedirs(out, exist_ok=True)

    def table(name, header, rows):
        write_csv(os.path.join(out, name), header, rows)
        print(f"{name} ({len(rows)} rows) -> {out}")

    def blend(s, i, image):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x8B, i)))
        noisy = im.apply_noise_battery(image, rng)
        return im.noise_blend(image, noisy, rng.random(image.shape).astype(np.float32), s)

    def add(kind, i, image):
        spec_seed = int(np.random.SeedSequence((seed, 0x9C, i)).generate_state(1)[0])
        return im.add_noise(image, im.NoiseSpec(kind, im.DEFAULT_MAGNITUDES[kind], seed=spec_seed))

    grid = [(f"{s:.2f}", float(s)) for s in np.arange(0.0, 2.0 + 1e-9, 0.25)]
    table("noise_sweep.csv", ["s", "detector", "map", "mle"], _noise_experiment(samples, points, grid, blend))
    table("noise_types.csv", ["kind", "detector", "map", "mle"],
          _noise_experiment(samples, points, [(kind, kind) for kind in im.NOISE_KINDS], add))
    table("square_sweep.csv", ["width", "center_confidence", "corner_confidence"], square_sweep(learned))
    rows = []
    for nh in NH_LIST:
        detectors = {name: adapted_detector(base, nh, seed) for name, base in dense.items()}
        reports = ev.run_detector_benchmark(detectors, pairs, PROTOCOL, include_random=False)
        rows += [(nh, name, f"{report.repeatability:.6f}") for name, report in reports.items()]
    table("nh_sweep.csv", ["n_homographies", "detector", "repeatability"], rows)


REPRODUCE_SCHEMA = [
    Option("reproduce.weights", "path", help=".spw weight file of the learned detector"),
    Option("reproduce.out", "path", help="output directory of the four CSVs"),
    Option("reproduce.images", "path", "composites", "image dir or 'composites' for the nh table's pairs"),
    Option("reproduce.samples", "count", 100, "clean shapes per noise condition"),
    Option("reproduce.pairs", "count", 20, "warped pairs per nh"),
    Option("reproduce.seed", "int", 0),
]


COMMANDS = [
    ("synth", ["synth-dump"], "render and dump a shapes dataset", SYNTH_SCHEMA, cmd_synth),
    ("train-magicpoint", [], "detector pretraining on streamed shapes", TRAIN_MP_SCHEMA, cmd_train_magicpoint),
    ("adapt-label", [], "self-label an image directory via warp aggregation", ADAPT_SCHEMA, cmd_adapt_label),
    ("train-superpoint", [], "joint detector+descriptor training from labels", TRAIN_SP_SCHEMA, cmd_train_superpoint),
    ("detect", [], "detect points, write .pts and overlays", DETECT_SCHEMA, cmd_detect),
    ("match", [], "match two images and estimate their homography", MATCH_SCHEMA, cmd_match),
    ("eval-detector", [], "repeatability benchmark over warped pairs", EVAL_DET_SCHEMA, cmd_eval_detector),
    ("eval-matching", [], "full matching benchmark over warped pairs", EVAL_MATCH_SCHEMA, cmd_eval_matching),
    ("reproduce", [], "the paper's noise, blob and warp-count experiments", REPRODUCE_SCHEMA, cmd_reproduce),
]


def build_parser():
    parser = argparse.ArgumentParser(prog="pointpipe",
                                     description="interest point pipeline: data, training, labeling, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, help_text, schema, fn in COMMANDS:
        p = sub.add_parser(name, aliases=aliases, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        for opt in schema:
            p.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help or opt.key)
        p.set_defaults(_schema=schema, _fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_pairs, base_dir = ({}, None)
        if args.config:
            file_pairs, base_dir = parse_config_file(args.config)
        schema = args._schema
        sections = {opt.key.split(".", 1)[0] for opt in schema}
        cli_values = vars(args)
        cfg = resolve(schema, sections, file_pairs, base_dir, cli_values)
        args._fn(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # runtime/data errors -> exit 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
