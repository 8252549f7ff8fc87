"""Single command-line entry point for the whole pipeline.

Subcommands cover dataset dumping, detector pretraining, self-labeling,
joint training, detection/matching on files, the benchmark protocols, and
the noise/blob/warp-count experiment sweeps.  Every option can come from a
``--config`` file (section.key = value) or a flag; flags win.  Exit codes:
0 success, 2 configuration error, 3 runtime or data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import adaptation as ad
from . import classical as cl
from . import evalsuite as ev
from . import geometry as geo
from . import imaging as im
from . import synthdata as sd
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


def parallel_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# shared helpers: loading, settings groups, output


def load_model(path) -> PointNet:
    state = load_weights(path)
    arch, with_desc = infer_arch(state)
    model = PointNet(arch, with_descriptor=with_desc, seed=0)
    model.store.load_state(state)
    return model


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


def check_top_k(top_k):
    if top_k < 0:
        raise ValueError(f"--top-k must be >= 0 (0 keeps every point), got {top_k}")


def make_system(weights, threshold, nms_radius, top_k, random_desc_seed=None):
    if not (nms_radius >= 0.0):
        raise ValueError(f"--nms must be a number >= 0, got {nms_radius}")
    check_top_k(top_k)
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


def parse_mix(text: str):
    if text == "uniform":
        return None
    mix = {}
    for part in text.split(","):
        name, _, weight = part.partition(":")
        try:
            cat = sd.ShapeCategory(name.strip())
        except ValueError:
            raise ConfigError(f"unknown shape category {name.strip()!r}") from None
        mix[cat] = float(weight) if weight else 1.0
    return mix


def check_image_size(cfg, section, multiple=1):
    """Reject a --height/--width the shape renderer (>= 32) or the network (a multiple of 8) cannot take."""
    for key in (f"{section}.height", f"{section}.width"):
        if cfg[key] < 32 or cfg[key] % multiple:
            rule = "at least 32" + (f" and a multiple of {multiple}" if multiple > 1 else "")
            raise ValueError(f"config key {key}: must be {rule}, got {cfg[key]}")


def composite_images(count, shape, seed):
    return [
        sd.render_composite(shape, np.random.default_rng(np.random.SeedSequence((seed, 0x7A, i)))).image
        for i in range(count)
    ]


def pair_options(section, count, height, width, n_points):
    """The settings of a warped-pair benchmark (eval-detector, eval-matching, exp-nh-sweep)."""
    return [
        Option(f"{section}.images", "path", "composites", "image dir or 'composites'"),
        Option(f"{section}.count", "count", count),
        Option(f"{section}.height", "int", height),
        Option(f"{section}.width", "int", width),
        Option(f"{section}.n_points", "int", n_points),
        Option(f"{section}.eps", "float", 3.0),
        Option(f"{section}.nms", "float", 4.0),
        Option(f"{section}.threshold", "float", 0.015),
        Option(f"{section}.out", "path", help="output CSV"),
        Option(f"{section}.seed", "int", 0),
    ]


def pair_benchmark(cfg, section, preset="training"):
    """(DetectorProtocol, warped pairs) of a pair_options section; settings are checked before any image is made."""
    protocol = ev.DetectorProtocol(n_points=cfg[f"{section}.n_points"], eps=cfg[f"{section}.eps"],
                                   nms_radius=cfg[f"{section}.nms"])
    ranges = geo.ranges_preset(preset)
    seed, count, source = cfg[f"{section}.seed"], cfg[f"{section}.count"], cfg[f"{section}.images"]
    if source == "composites":
        images = composite_images(count, (cfg[f"{section}.height"], cfg[f"{section}.width"]), seed)
    else:
        images = [im.read_pgm(p) for p in list_images(source)[:count]]
    return protocol, ev.warped_pair_dataset(images, ranges, seed=seed)


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
        Option(f"{section}.iterations", "int", 2000),
        Option(f"{section}.batch", "int", batch),
        Option(f"{section}.arch", "str", "micro", "micro or full"),
        Option(f"{section}.seed", "int", 0),
        Option(f"{section}.lr", "float", 0.001),
        Option(f"{section}.log", "path", ""),
        Option(f"{section}.log_every", "int", 100),
    ]


def train_and_save(cfg, section, train, done, **extra):
    """Run train(TrainConfig, LossLog) -> model, then write the weights, the loss CSV and the summary lines.

    ``extra`` holds further TrainConfig fields; ``done`` is the first summary line, formatted with
    ``iterations`` and the last logged loss ``final``.
    """
    train_cfg = TrainConfig(iterations=cfg[f"{section}.iterations"], batch_size=cfg[f"{section}.batch"],
                            seed=cfg[f"{section}.seed"], lr=cfg[f"{section}.lr"],
                            log_every=cfg[f"{section}.log_every"], **extra)
    log = LossLog()
    model = train(train_cfg, log)
    save_weights(cfg[f"{section}.out"], model.store)
    if cfg[f"{section}.log"]:
        log.write_csv(cfg[f"{section}.log"])
    print(done.format(iterations=train_cfg.iterations, final=log.rows[-1][1] if log.rows else float("nan")))
    print(f"weights -> {cfg[f'{section}.out']}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg):
    check_image_size(cfg, "synth")
    out = cfg["synth.out"]
    os.makedirs(out, exist_ok=True)
    stream_cfg = sd.StreamConfig(
        height=cfg["synth.height"], width=cfg["synth.width"],
        mix=parse_mix(cfg["synth.mix"]), noise=cfg["synth.noise"], seed=cfg["synth.seed"],
    )
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
    Option("synth.height", "int", 96),
    Option("synth.width", "int", 96),
    Option("synth.mix", "str", "uniform", "category mix, e.g. star:0.5,cube:0.5"),
    Option("synth.noise", "bool", True),
    Option("synth.seed", "int", 0),
]


def cmd_train_magicpoint(cfg):
    check_image_size(cfg, "train_mp", CELL)
    stream_cfg = sd.StreamConfig(
        height=cfg["train_mp.height"], width=cfg["train_mp.width"],
        mix=parse_mix(cfg["train_mp.mix"]), noise=cfg["train_mp.noise"], seed=cfg["train_mp.seed"],
    )
    ckpt_dir = os.path.dirname(os.path.abspath(cfg["train_mp.out"]))

    def train(train_cfg, log):
        os.makedirs(ckpt_dir, exist_ok=True)
        return train_magicpoint(ARCH_PRESETS[cfg["train_mp.arch"]], stream_cfg, train_cfg, log=log,
                                checkpoint_dir=ckpt_dir)

    train_and_save(cfg, "train_mp", train, "trained {iterations} iterations, final loss {final:.4f}",
                   checkpoint_every=cfg["train_mp.checkpoint_every"])


TRAIN_MP_SCHEMA = [
    *training_options("train_mp", batch=8),
    Option("train_mp.height", "int", 96),
    Option("train_mp.width", "int", 96),
    Option("train_mp.mix", "str", "uniform"),
    Option("train_mp.noise", "bool", True),
    Option("train_mp.checkpoint_every", "int", 0),
]


def cmd_adapt_label(cfg):
    check_top_k(cfg["adapt.top_k"])
    images = [im.read_pgm(p) for p in list_images(cfg["adapt.images"])]
    detector = heatmap_detector(cfg["adapt.weights"])
    adapt_cfg = ad.AdaptConfig(
        n_homographies=cfg["adapt.nh"], detect_threshold=cfg["adapt.threshold"],
        nms_radius=cfg["adapt.nms"],
    )
    rounds = cfg["adapt.rounds"]
    seed = cfg["adapt.seed"]
    retrains = rounds > 1 or cfg["adapt.retrain_final"]
    # retraining settings are checked before the first round writes anything
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

    # no makedirs here: self_label creates the output directory with round_1/, after checking its settings
    ad.self_label(
        images, detector, adapt_cfg, rounds,
        retrain=retrain if retrains else None,
        out_dir=cfg["adapt.out"], seed=seed, top_k=cfg["adapt.top_k"],
    )
    print(f"labeled {len(images)} images over {rounds} round(s) -> {cfg['adapt.out']}")


ADAPT_SCHEMA = [
    Option("adapt.images", "path", help="directory of .pgm images to label"),
    Option("adapt.weights", "path", help=".spw file or harris/shi"),
    Option("adapt.out", "path", help="label output directory"),
    Option("adapt.nh", "int", 100, "number of homographies (identity included)"),
    Option("adapt.rounds", "int", 1),
    Option("adapt.threshold", "float", 0.015),
    Option("adapt.nms", "float", 4.0),
    Option("adapt.top_k", "int", 0),
    Option("adapt.arch", "str", "micro"),
    Option("adapt.crop", "int", 96, "training crop for the per-round retrain"),
    Option("adapt.train_iterations", "int", 1000),
    Option("adapt.train_batch", "int", 8),
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
                   lambda train_cfg, log: train_superpoint(base_state, arch, dataset, train_cfg,
                                                           loss_cfg=loss_cfg, log=log),
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
    protocol = ev.DetectorProtocol(n_points=cfg["detect.top_k"], nms_radius=cfg["detect.nms"])
    detector = candidate_detector(cfg["detect.weights"], cfg["detect.threshold"])
    out = cfg["detect.out"]
    os.makedirs(out, exist_ok=True)

    def work(path):
        image = im.read_pgm(path)
        pts = ev.select_points(detector(image), protocol)
        stem = os.path.splitext(os.path.basename(path))[0]
        sd.write_points(os.path.join(out, stem + ".pts"), pts)
        im.write_pgm(os.path.join(out, stem + "_overlay.pgm"), im.overlay_points(image, pts))
        return len(pts)

    counts = parallel_map(work, paths, cfg["detect.threads"])
    print(f"detected points in {len(paths)} image(s): {counts}")


DETECT_SCHEMA = [
    Option("detect.input", "path", help="image file or directory"),
    Option("detect.weights", "path", help=".spw file or harris/shi/fast"),
    Option("detect.out", "path", help="output directory"),
    Option("detect.threshold", "float", 0.015),
    Option("detect.nms", "float", 4.0),
    Option("detect.top_k", "int", 0),
    Option("detect.threads", "count", 1, "worker threads for per-image work"),
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
    Option("match.threshold", "float", 0.015),
    Option("match.nms", "float", 4.0),
    Option("match.top_k", "int", 1000),
    Option("match.ransac_threshold", "float", 3.0),
    Option("match.ransac_iters", "int", 2000),
    Option("match.seed", "int", 0),
]


def cmd_eval_detector(cfg):
    detectors = parse_detectors(cfg["eval_det.detectors"], cfg["eval_det.threshold"])
    protocol, pairs = pair_benchmark(cfg, "eval_det", cfg["eval_det.preset"])
    reports = ev.run_detector_benchmark(detectors, pairs, protocol, seed=cfg["eval_det.seed"])
    ev.write_detector_report_csv(cfg["eval_det.out"], reports)
    print(ev.format_detector_table(reports))
    print(f"report -> {cfg['eval_det.out']}")


EVAL_DET_SCHEMA = [
    Option("eval_det.detectors", "str", help="comma list: name[:weights], e.g. magic:w.spw,harris"),
    Option("eval_det.preset", "str", "training", "homography preset for pairs"),
    *pair_options("eval_det", count=50, height=240, width=320, n_points=300),
]


def cmd_eval_matching(cfg):
    seed = cfg["eval_match.seed"]
    try:
        eps_list = tuple(float(e) for e in cfg["eval_match.eps_list"].split(","))
    except ValueError:
        raise ConfigError(f"--eps-list (eval_match.eps_list): expected comma-separated numbers, "
                          f"got {cfg['eval_match.eps_list']!r}") from None
    protocol = ev.MatchingProtocol(n_points=cfg["eval_match.n_points"], eps=cfg["eval_match.eps"],
                                   eps_list=eps_list, ransac=ev.RansacParams(seed=seed))
    system = make_system(
        cfg["eval_match.weights"], cfg["eval_match.threshold"], cfg["eval_match.nms"],
        cfg["eval_match.n_points"],
        random_desc_seed=seed if cfg["eval_match.random_descriptors"] else None,
    )
    # the matching protocol and make_system above have checked the settings the detector protocol holds
    _, pairs = pair_benchmark(cfg, "eval_match", cfg["eval_match.preset"])
    report = ev.run_matching_benchmark(system, pairs, protocol)
    ev.write_matching_report_csv(cfg["eval_match.out"], report)
    print(ev.format_matching_table(report))
    print(f"report -> {cfg['eval_match.out']}")


EVAL_MATCH_SCHEMA = [
    Option("eval_match.weights", "path", help="joint .spw weight file"),
    Option("eval_match.preset", "str", "training"),
    Option("eval_match.eps_list", "str", "1,3,5"),
    Option("eval_match.random_descriptors", "bool", False),
    *pair_options("eval_match", count=50, height=96, width=96, n_points=1000),
]


def _noise_experiment(cfg, column, conditions, corrupt):
    """Write mAP/MLE per (condition, detector) on corrupted clean samples.

    ``conditions`` is a list of (CSV label, condition); ``corrupt(condition,
    i, image)`` returns sample i's image under that condition.  Returns the
    number of rows written.
    """
    eps = ev.DetectorProtocol(eps=cfg["exp_noise.eps"]).eps  # checked before any shape is rendered
    stream_cfg = sd.StreamConfig(height=cfg["exp_noise.height"], width=cfg["exp_noise.width"], noise=False)
    seed = cfg["exp_noise.seed"]
    # sample_at draws sample i of a stream from the key (seed, i); the spawn key 0x5E makes these keys
    # five words long, so no stream whose seed and index fit in 32 bits draws an evaluation shape
    keys = [np.random.SeedSequence((seed, i), spawn_key=(0x5E,)) for i in range(cfg["exp_noise.count"])]
    samples = [sd.sample_from(stream_cfg, np.random.default_rng(key)) for key in keys]
    detectors = parse_detectors(cfg["exp_noise.detectors"], cfg["exp_noise.threshold"])
    rows = []
    for label, condition in conditions:
        corrupted = [sd.ShapeSample(corrupt(condition, i, s.image), s.points, s.category)
                     for i, s in enumerate(samples)]
        for name, det in detectors.items():
            mapv, mle, _ = ev.detector_gt_metrics(det, corrupted, eps)
            rows.append((label, name, f"{mapv:.6f}", f"{mle:.6f}"))
    write_csv(cfg["exp_noise.out"], [column, "detector", "map", "mle"], rows)
    return len(rows)


def cmd_exp_noise_sweep(cfg):
    seed = cfg["exp_noise.seed"]

    def blend(s, i, image):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x8B, i)))
        noisy = im.apply_noise_battery(image, rng)
        return im.noise_blend(image, noisy, rng.random(image.shape).astype(np.float32), s)

    grid = [(f"{s:.2f}", float(s)) for s in np.arange(0.0, 2.0 + 1e-9, 0.25)]
    n = _noise_experiment(cfg, "s", grid, blend)
    print(f"noise sweep ({n} rows) -> {cfg['exp_noise.out']}")


EXP_NOISE_SCHEMA = [
    Option("exp_noise.detectors", "str", help="comma list: name[:weights]"),
    Option("exp_noise.count", "count", 100),
    Option("exp_noise.height", "int", 96),
    Option("exp_noise.width", "int", 96),
    Option("exp_noise.eps", "float", 3.0),
    Option("exp_noise.threshold", "float", 0.015),
    Option("exp_noise.out", "path", help="output CSV"),
    Option("exp_noise.seed", "int", 0),
]


def cmd_exp_noise_types(cfg):
    seed = cfg["exp_noise.seed"]

    def add(kind, i, image):
        spec_seed = int(np.random.SeedSequence((seed, 0x9C, i)).generate_state(1)[0])
        return im.add_noise(image, im.NoiseSpec(kind, im.DEFAULT_MAGNITUDES[kind], seed=spec_seed))

    n = _noise_experiment(cfg, "kind", [(kind, kind) for kind in im.NOISE_KINDS], add)
    print(f"noise-type table ({n} rows) -> {cfg['exp_noise.out']}")


def cmd_exp_square_sweep(cfg):
    model = load_model(cfg["exp_square.weights"])
    rows = []
    for width in range(3, 92, 2):
        sample = sd.render_square(width)
        heat = model.heatmap(sample.image)
        tl = sample.points[0, :2]
        center = sample.points[4, :2]

        def peak(p):
            x0, y0 = int(np.floor(p[0])), int(np.floor(p[1]))
            return float(heat[y0 : y0 + 2, x0 : x0 + 2].max())

        rows.append((width, f"{peak(center):.6f}", f"{peak(tl):.6f}"))
    write_csv(cfg["exp_square.out"], ["width", "center_confidence", "corner_confidence"], rows)
    print(f"square sweep (widths 3..91) -> {cfg['exp_square.out']}")


EXP_SQUARE_SCHEMA = [
    Option("exp_square.weights", "path", help=".spw weight file"),
    Option("exp_square.out", "path", help="output CSV"),
]


def cmd_exp_nh_sweep(cfg):
    seed = cfg["exp_nh.seed"]
    try:
        nh_list = [int(x) for x in cfg["exp_nh.nh_list"].split(",")]
    except ValueError:
        raise ConfigError(f"--nh-list (exp_nh.nh_list): expected comma-separated integers, "
                          f"got {cfg['exp_nh.nh_list']!r}") from None
    adapt_cfgs = [ad.AdaptConfig(n_homographies=nh, detect_threshold=cfg["exp_nh.threshold"]) for nh in nh_list]
    protocol, pairs = pair_benchmark(cfg, "exp_nh")
    base = heatmap_detector(cfg["exp_nh.weights"])
    rows = []
    for nh, adapt_cfg in zip(nh_list, adapt_cfgs):
        def detector(img, _cfg=adapt_cfg):
            per_image = zlib.crc32(img.tobytes()) ^ seed
            hm = ad.adapt(base, img, _cfg, seed=per_image)
            return cl.threshold_points(hm, -np.inf)

        repeatability = ev.run_detector_benchmark({"adapted": detector}, pairs, protocol,
                                                  include_random=False)["adapted"].repeatability
        print(f"nh={nh}: repeatability {repeatability:.3f}")
        rows.append((nh, f"{repeatability:.6f}"))
    write_csv(cfg["exp_nh.out"], ["n_homographies", "repeatability"], rows)
    print(f"warp-count sweep -> {cfg['exp_nh.out']}")


EXP_NH_SCHEMA = [
    Option("exp_nh.weights", "path", help=".spw file or harris/shi"),
    Option("exp_nh.nh_list", "str", "1,10,100"),
    *pair_options("exp_nh", count=20, height=240, width=320, n_points=300),
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
    ("exp-noise-sweep", [], "mAP/MLE vs noise blend strength", EXP_NOISE_SCHEMA, cmd_exp_noise_sweep),
    ("exp-noise-types", [], "mAP/MLE per noise kind", EXP_NOISE_SCHEMA, cmd_exp_noise_types),
    ("exp-square-sweep", [], "blob vs corner confidence over square widths", EXP_SQUARE_SCHEMA, cmd_exp_square_sweep),
    ("exp-nh-sweep", [], "repeatability vs warp count", EXP_NH_SCHEMA, cmd_exp_nh_sweep),
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
