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
from .neural.training import LossLog, train_detector_on_labels

CLASSICAL_NAMES = ("harris", "shi", "fast")


def parallel_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# shared loading helpers


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


def make_system(weights, threshold, nms_radius, top_k, random_desc_seed=None):
    model = load_model(weights)
    if not model.with_descriptor:
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


def composite_images(count, shape, seed):
    return [
        sd.render_composite(shape, np.random.default_rng(np.random.SeedSequence((seed, 0x7A, i)))).image
        for i in range(count)
    ]


def eval_images(cfg, prefix, seed):
    source = cfg[f"{prefix}.images"]
    if source == "composites":
        return composite_images(cfg[f"{prefix}.count"], (cfg[f"{prefix}.height"], cfg[f"{prefix}.width"]), seed)
    return [im.read_pgm(p) for p in list_images(source)][: cfg[f"{prefix}.count"]]


def parse_detectors(text, threshold):
    out = {}
    for part in text.split(","):
        name, _, path = part.partition(":")
        name = name.strip()
        out[name] = candidate_detector(path.strip() if path else name, threshold)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg, args):
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
    Option("synth.count", "int", 100),
    Option("synth.height", "int", 96),
    Option("synth.width", "int", 96),
    Option("synth.mix", "str", "uniform", "category mix, e.g. star:0.5,cube:0.5"),
    Option("synth.noise", "bool", True),
    Option("synth.seed", "int", 0),
]


def cmd_train_magicpoint(cfg, args):
    stream_cfg = sd.StreamConfig(
        height=cfg["train_mp.height"], width=cfg["train_mp.width"],
        mix=parse_mix(cfg["train_mp.mix"]), noise=cfg["train_mp.noise"], seed=cfg["train_mp.seed"],
    )
    train_cfg = TrainConfig(
        iterations=cfg["train_mp.iterations"], batch_size=cfg["train_mp.batch"],
        seed=cfg["train_mp.seed"], lr=cfg["train_mp.lr"],
        log_every=cfg["train_mp.log_every"], checkpoint_every=cfg["train_mp.checkpoint_every"],
    )
    log = LossLog()
    ckpt_dir = os.path.dirname(os.path.abspath(cfg["train_mp.out"])) or "."
    os.makedirs(ckpt_dir, exist_ok=True)
    model = train_magicpoint(
        ARCH_PRESETS[cfg["train_mp.arch"]], stream_cfg, train_cfg, log=log,
        checkpoint_dir=ckpt_dir,
    )
    save_weights(cfg["train_mp.out"], model.store)
    if cfg["train_mp.log"]:
        log.write_csv(cfg["train_mp.log"])
    final = log.rows[-1][1] if log.rows else float("nan")
    print(f"trained {cfg['train_mp.iterations']} iterations, final loss {final:.4f}")
    print(f"weights -> {cfg['train_mp.out']}")


TRAIN_MP_SCHEMA = [
    Option("train_mp.out", "path", help="output .spw weight file"),
    Option("train_mp.iterations", "int", 2000),
    Option("train_mp.batch", "int", 8),
    Option("train_mp.arch", "str", "micro", "micro or full"),
    Option("train_mp.height", "int", 96),
    Option("train_mp.width", "int", 96),
    Option("train_mp.mix", "str", "uniform"),
    Option("train_mp.noise", "bool", True),
    Option("train_mp.seed", "int", 0),
    Option("train_mp.lr", "float", 0.001),
    Option("train_mp.log", "path", ""),
    Option("train_mp.log_every", "int", 100),
    Option("train_mp.checkpoint_every", "int", 0),
]


def cmd_adapt_label(cfg, args):
    images = [im.read_pgm(p) for p in list_images(cfg["adapt.images"])]
    detector = heatmap_detector(cfg["adapt.weights"])
    adapt_cfg = ad.AdaptConfig(
        n_homographies=cfg["adapt.nh"], detect_threshold=cfg["adapt.threshold"],
        nms_radius=cfg["adapt.nms"],
    )
    rounds = cfg["adapt.rounds"]
    seed = cfg["adapt.seed"]
    # retraining settings are checked before the first round writes anything
    train_cfg = TrainConfig(iterations=cfg["adapt.train_iterations"], batch_size=cfg["adapt.train_batch"])

    def retrain(dataset, round_index):
        arch = ARCH_PRESETS[cfg["adapt.arch"]]
        state = None
        if cfg["adapt.weights"] not in CLASSICAL_NAMES:
            # read again each round: the model shares these arrays and training updates them in place
            state = load_weights(cfg["adapt.weights"])
            arch, _ = infer_arch(state)
        crop = cfg["adapt.crop"]
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
        retrain=retrain if rounds > 1 or cfg["adapt.retrain_final"] else None,
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


def cmd_train_superpoint(cfg, args):
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
    log = LossLog()
    model = train_superpoint(
        base_state, arch, dataset,
        TrainConfig(iterations=cfg["train_sp.iterations"], batch_size=cfg["train_sp.batch"],
                    seed=cfg["train_sp.seed"], lr=cfg["train_sp.lr"],
                    log_every=cfg["train_sp.log_every"]),
        loss_cfg=loss_cfg, log=log,
    )
    save_weights(cfg["train_sp.out"], model.store)
    if cfg["train_sp.log"]:
        log.write_csv(cfg["train_sp.log"])
    print(f"joint training done ({cfg['train_sp.iterations']} iterations)")
    print(f"weights -> {cfg['train_sp.out']}")


TRAIN_SP_SCHEMA = [
    Option("train_sp.images", "path", help="directory of .pgm images"),
    Option("train_sp.labels", "path", help="directory of matching .pts files"),
    Option("train_sp.out", "path", help="output .spw weight file"),
    Option("train_sp.base", "path", "", "detector weights to start from"),
    Option("train_sp.arch", "str", "micro"),
    Option("train_sp.iterations", "int", 2000),
    Option("train_sp.batch", "int", 4),
    Option("train_sp.seed", "int", 0),
    Option("train_sp.lr", "float", 0.001),
    Option("train_sp.lam", "float", 0.0001),
    Option("train_sp.lam_d", "float", 250.0),
    Option("train_sp.margin_pos", "float", 1.0),
    Option("train_sp.margin_neg", "float", 0.2),
    Option("train_sp.log", "path", ""),
    Option("train_sp.log_every", "int", 100),
]


def cmd_detect(cfg, args):
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

    counts = parallel_map(work, paths, args.threads)
    print(f"detected points in {len(paths)} image(s): {counts}")


DETECT_SCHEMA = [
    Option("detect.input", "path", help="image file or directory"),
    Option("detect.weights", "path", help=".spw file or harris/shi/fast"),
    Option("detect.out", "path", help="output directory"),
    Option("detect.threshold", "float", 0.015),
    Option("detect.nms", "float", 4.0),
    Option("detect.top_k", "int", 0),
]


def cmd_match(cfg, args):
    ransac = ev.RansacParams(threshold=cfg["match.ransac_threshold"], max_iters=cfg["match.ransac_iters"],
                             seed=cfg["match.seed"])
    system = make_system(cfg["match.weights"], cfg["match.threshold"], cfg["match.nms"],
                         cfg["match.top_k"])
    img_a = im.read_pgm(cfg["match.image_a"])
    img_b = im.read_pgm(cfg["match.image_b"])
    pts_a, desc_a = system(img_a)
    pts_b, desc_b = system(img_b)
    out = cfg["match.out"]
    os.makedirs(out, exist_ok=True)
    matches = ev.match_nn(desc_a, desc_b, pts_a, pts_b)
    with open(os.path.join(out, "matches.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["idx_a", "idx_b", "xa", "ya", "xb", "yb", "distance"])
        for i, j, d in zip(matches.idx_a, matches.idx_b, matches.distance):
            w.writerow([i, j, f"{pts_a[i, 0]:.3f}", f"{pts_a[i, 1]:.3f}",
                        f"{pts_b[j, 0]:.3f}", f"{pts_b[j, 1]:.3f}", f"{d:.6f}"])
    h_est = ev.estimate_homography(matches, ransac)
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


def cmd_eval_detector(cfg, args):
    seed = cfg["eval_det.seed"]
    images = eval_images(cfg, "eval_det", seed)
    pairs = ev.warped_pair_dataset(images, geo.ranges_preset(cfg["eval_det.preset"]), seed=seed)
    detectors = parse_detectors(cfg["eval_det.detectors"], cfg["eval_det.threshold"])
    protocol = ev.DetectorProtocol(n_points=cfg["eval_det.n_points"], eps=cfg["eval_det.eps"],
                                   nms_radius=cfg["eval_det.nms"])
    reports = ev.run_detector_benchmark(detectors, pairs, protocol, seed=seed)
    ev.write_detector_report_csv(cfg["eval_det.out"], reports)
    print(ev.format_detector_table(reports))
    print(f"report -> {cfg['eval_det.out']}")


EVAL_DET_SCHEMA = [
    Option("eval_det.detectors", "str", help="comma list: name[:weights], e.g. magic:w.spw,harris"),
    Option("eval_det.images", "path", "composites", "image dir or 'composites'"),
    Option("eval_det.count", "int", 50),
    Option("eval_det.height", "int", 240),
    Option("eval_det.width", "int", 320),
    Option("eval_det.preset", "str", "training", "homography preset for pairs"),
    Option("eval_det.n_points", "int", 300),
    Option("eval_det.eps", "float", 3.0),
    Option("eval_det.nms", "float", 4.0),
    Option("eval_det.threshold", "float", 0.015),
    Option("eval_det.out", "path", help="output CSV"),
    Option("eval_det.seed", "int", 0),
]


def cmd_eval_matching(cfg, args):
    seed = cfg["eval_match.seed"]
    try:
        eps_list = tuple(float(e) for e in cfg["eval_match.eps_list"].split(","))
    except ValueError:
        raise ConfigError(f"--eps-list (eval_match.eps_list): expected comma-separated numbers, "
                          f"got {cfg['eval_match.eps_list']!r}") from None
    protocol = ev.MatchingProtocol(n_points=cfg["eval_match.n_points"], eps=cfg["eval_match.eps"],
                                   eps_list=eps_list, ransac=ev.RansacParams(seed=seed))
    images = eval_images(cfg, "eval_match", seed)
    pairs = ev.warped_pair_dataset(images, geo.ranges_preset(cfg["eval_match.preset"]), seed=seed)
    system = make_system(
        cfg["eval_match.weights"], cfg["eval_match.threshold"], cfg["eval_match.nms"],
        cfg["eval_match.n_points"],
        random_desc_seed=seed if cfg["eval_match.random_descriptors"] else None,
    )
    report = ev.run_matching_benchmark(system, pairs, protocol)
    ev.write_matching_report_csv(cfg["eval_match.out"], report)
    print(ev.format_matching_table(report))
    print(f"report -> {cfg['eval_match.out']}")


EVAL_MATCH_SCHEMA = [
    Option("eval_match.weights", "path", help="joint .spw weight file"),
    Option("eval_match.images", "path", "composites"),
    Option("eval_match.count", "int", 50),
    Option("eval_match.height", "int", 96),
    Option("eval_match.width", "int", 96),
    Option("eval_match.preset", "str", "training"),
    Option("eval_match.n_points", "int", 1000),
    Option("eval_match.eps", "float", 3.0),
    Option("eval_match.eps_list", "str", "1,3,5"),
    Option("eval_match.nms", "float", 4.0),
    Option("eval_match.threshold", "float", 0.015),
    Option("eval_match.random_descriptors", "bool", False),
    Option("eval_match.out", "path", help="output CSV"),
    Option("eval_match.seed", "int", 0),
]


def _noise_experiment(cfg, column, conditions, corrupt):
    """Write mAP/MLE per (condition, detector) on corrupted clean samples.

    ``conditions`` is a list of (CSV label, condition); ``corrupt(condition,
    i, image)`` returns sample i's image under that condition.  Returns the
    number of rows written.
    """
    stream_cfg = sd.StreamConfig(height=cfg["exp_noise.height"], width=cfg["exp_noise.width"],
                                 noise=False, seed=cfg["exp_noise.seed"])
    samples = [sd.sample_at(stream_cfg, i) for i in range(cfg["exp_noise.count"])]
    detectors = parse_detectors(cfg["exp_noise.detectors"], cfg["exp_noise.threshold"])
    rows = []
    for label, condition in conditions:
        corrupted = [sd.ShapeSample(corrupt(condition, i, s.image), s.points, s.category)
                     for i, s in enumerate(samples)]
        for name, det in detectors.items():
            mapv, mle, _ = ev.detector_gt_metrics(det, corrupted, cfg["exp_noise.eps"])
            rows.append((label, name, f"{mapv:.6f}", f"{mle:.6f}"))
    with open(cfg["exp_noise.out"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([column, "detector", "map", "mle"])
        w.writerows(rows)
    return len(rows)


def cmd_exp_noise_sweep(cfg, args):
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
    Option("exp_noise.count", "int", 100),
    Option("exp_noise.height", "int", 96),
    Option("exp_noise.width", "int", 96),
    Option("exp_noise.eps", "float", 3.0),
    Option("exp_noise.threshold", "float", 0.015),
    Option("exp_noise.out", "path", help="output CSV"),
    Option("exp_noise.seed", "int", 0),
]


def cmd_exp_noise_types(cfg, args):
    seed = cfg["exp_noise.seed"]

    def add(kind, i, image):
        spec_seed = int(np.random.SeedSequence((seed, 0x9C, i)).generate_state(1)[0])
        return im.add_noise(image, im.NoiseSpec(kind, im.DEFAULT_MAGNITUDES[kind], seed=spec_seed))

    n = _noise_experiment(cfg, "kind", [(kind, kind) for kind in im.NOISE_KINDS], add)
    print(f"noise-type table ({n} rows) -> {cfg['exp_noise.out']}")


def cmd_exp_square_sweep(cfg, args):
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

        rows.append((width, peak(center), peak(tl)))
    with open(cfg["exp_square.out"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["width", "center_confidence", "corner_confidence"])
        for width, c, t in rows:
            w.writerow([width, f"{c:.6f}", f"{t:.6f}"])
    print(f"square sweep (widths 3..91) -> {cfg['exp_square.out']}")


EXP_SQUARE_SCHEMA = [
    Option("exp_square.weights", "path", help=".spw weight file"),
    Option("exp_square.out", "path", help="output CSV"),
]


def cmd_exp_nh_sweep(cfg, args):
    seed = cfg["exp_nh.seed"]
    try:
        nh_list = [int(x) for x in cfg["exp_nh.nh_list"].split(",")]
    except ValueError:
        raise ConfigError(f"--nh-list (exp_nh.nh_list): expected comma-separated integers, "
                          f"got {cfg['exp_nh.nh_list']!r}") from None
    adapt_cfgs = [ad.AdaptConfig(n_homographies=nh, detect_threshold=cfg["exp_nh.threshold"]) for nh in nh_list]
    protocol = ev.DetectorProtocol(n_points=cfg["exp_nh.n_points"], eps=cfg["exp_nh.eps"],
                                   nms_radius=cfg["exp_nh.nms"])
    images = eval_images(cfg, "exp_nh", seed)
    pairs = ev.warped_pair_dataset(images, geo.ranges_preset("training"), seed=seed)
    base = heatmap_detector(cfg["exp_nh.weights"])
    rows = []
    for nh, adapt_cfg in zip(nh_list, adapt_cfgs):
        def detector(img, _cfg=adapt_cfg):
            per_image = zlib.crc32(img.tobytes()) ^ seed
            hm = ad.adapt(base, img, _cfg, seed=per_image)
            return cl.threshold_points(hm, -np.inf)

        report = ev.run_detector_benchmark({"adapted": detector}, pairs, protocol, include_random=False)
        rows.append((nh, report["adapted"].repeatability))
        print(f"nh={nh}: repeatability {rows[-1][1]:.3f}")
    with open(cfg["exp_nh.out"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n_homographies", "repeatability"])
        for nh, rep in rows:
            w.writerow([nh, f"{rep:.6f}"])
    print(f"warp-count sweep -> {cfg['exp_nh.out']}")


EXP_NH_SCHEMA = [
    Option("exp_nh.weights", "path", help=".spw file or harris/shi"),
    Option("exp_nh.images", "path", "composites"),
    Option("exp_nh.count", "int", 20),
    Option("exp_nh.height", "int", 240),
    Option("exp_nh.width", "int", 320),
    Option("exp_nh.nh_list", "str", "1,10,100"),
    Option("exp_nh.n_points", "int", 300),
    Option("exp_nh.eps", "float", 3.0),
    Option("exp_nh.nms", "float", 4.0),
    Option("exp_nh.threshold", "float", 0.015),
    Option("exp_nh.out", "path", help="output CSV"),
    Option("exp_nh.seed", "int", 0),
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
        if fn is cmd_detect:
            p.add_argument("--threads", type=int, default=1, help="worker threads for per-image work")
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
        args._fn(cfg, args)
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
