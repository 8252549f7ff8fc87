"""Detector pretraining on streamed shapes and joint pair training.

Both trainers are deterministic for a fixed seed: samples, label
tie-breaks, and warp draws all come from generators derived from (seed,
purpose, iteration).  The joint trainer optimizes the per-view mean of the
detector term plus half the weighted descriptor term, i.e. the documented
pair loss divided by two; logs always report the full pair loss.  Keeping
the per-view normalization makes detector gradients directly comparable
with detector-only pretraining.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .. import geometry as geo
from ..synthdata import ShapeSample, StreamConfig, homographic_augment, sample_at
from .losses import LossConfig, cells_from_points, correspondences, loss_descriptor, loss_detector
from .network import ArchConfig, PointNet
from .store import adam_step, save_weights


class EmptyDataset(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int = 8
    seed: int = 0
    lr: float = 0.001
    log_every: int = 100
    checkpoint_every: int = 0


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


class LossLog:
    """Collects (iter, loss_total, loss_det, loss_desc) rows; optional CSV."""

    def __init__(self):
        self.rows = []

    def add(self, iteration, total, det, desc):
        self.rows.append((iteration, float(total), float(det), float(desc)))

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iter", "loss_total", "loss_det", "loss_desc"])
            w.writerows(self.rows)


def _maybe_checkpoint(model, cfg, iteration, checkpoint_dir):
    if checkpoint_dir and cfg.checkpoint_every and (iteration + 1) % cfg.checkpoint_every == 0:
        save_weights(f"{checkpoint_dir}/checkpoint_{iteration + 1:06d}.spw", model.store)


def train_magicpoint(
    arch: ArchConfig,
    stream_cfg: StreamConfig,
    cfg: TrainConfig,
    log: LossLog | None = None,
    checkpoint_dir=None,
    progress=None,
) -> PointNet:
    """Detector-only training on the endless synthetic stream."""
    model = PointNet(arch, with_descriptor=False, seed=cfg.seed)
    for it in range(cfg.iterations):
        base = it * cfg.batch_size
        samples = [sample_at(stream_cfg, base + j) for j in range(cfg.batch_size)]
        x = np.stack([s.image for s in samples])[:, None, :, :]
        labels = np.stack(
            [
                cells_from_points(s.points, stream_cfg.height, stream_cfg.width, _rng(cfg.seed, 0x1A, base + j))
                for j, s in enumerate(samples)
            ]
        )
        logits, _ = model.forward(x, train=True)
        loss, dlogits = loss_detector(logits, labels)
        model.store.zero_grad()
        model.backward(dlogits)
        adam_step(model.store, cfg.lr, t=it + 1)
        if log is not None and (it % cfg.log_every == 0 or it == cfg.iterations - 1):
            log.add(it, loss, loss, 0.0)
        if progress is not None:
            progress(it, loss)
        _maybe_checkpoint(model, cfg, it, checkpoint_dir)
    return model


def train_detector_on_labels(
    arch: ArchConfig,
    dataset,
    cfg: TrainConfig,
    size: tuple[int, int],
    base_state=None,
    log: LossLog | None = None,
) -> PointNet:
    """Supervised detector training on (image, points) pairs with random crops.

    Used by the self-labeling rounds: images may be larger than the training
    window, so each step takes a seeded random crop aligned to the cell grid.
    """
    if not dataset:
        raise EmptyDataset("no labeled images to train on")
    hgt, wdt = size
    model = PointNet(arch, with_descriptor=False, seed=cfg.seed)
    if base_state:
        model.store.load_state(base_state, strict=False)
    for it in range(cfg.iterations):
        rng = _rng(cfg.seed, 0x3C, it)
        xs, ys = [], []
        for _ in range(cfg.batch_size):
            img, pts = dataset[int(rng.integers(len(dataset)))]
            ih, iw = img.shape
            if ih < hgt or iw < wdt:
                raise ValueError(f"image {img.shape} smaller than crop {size}")
            oy = int(rng.integers(0, (ih - hgt) // 8 + 1)) * 8
            ox = int(rng.integers(0, (iw - wdt) // 8 + 1)) * 8
            crop = img[oy : oy + hgt, ox : ox + wdt]
            if len(pts):
                shifted = pts.copy()
                shifted[:, 0] -= ox
                shifted[:, 1] -= oy
                keep = (
                    (shifted[:, 0] >= 0)
                    & (shifted[:, 0] <= wdt - 1)
                    & (shifted[:, 1] >= 0)
                    & (shifted[:, 1] <= hgt - 1)
                )
                shifted = shifted[keep]
            else:
                shifted = pts
            xs.append(crop)
            ys.append(cells_from_points(shifted, hgt, wdt, rng))
        x = np.stack(xs)[:, None, :, :]
        labels = np.stack(ys)
        logits, _ = model.forward(x, train=True)
        loss, dlogits = loss_detector(logits, labels)
        model.store.zero_grad()
        model.backward(dlogits)
        adam_step(model.store, cfg.lr, t=it + 1)
        if log is not None and (it % cfg.log_every == 0 or it == cfg.iterations - 1):
            log.add(it, loss, loss, 0.0)
    return model


def train_superpoint(
    base_state,
    arch: ArchConfig,
    dataset,
    cfg: TrainConfig,
    loss_cfg: LossConfig = LossConfig(),
    log: LossLog | None = None,
    checkpoint_dir=None,
    progress=None,
) -> PointNet:
    """Joint detector + descriptor training on self-labeled images.

    Each step samples a homography per image from the training preset,
    builds the warped view and its transported labels, and optimizes the
    pair loss; correspondence grids come from the same homography.
    """
    if not dataset:
        raise EmptyDataset("no labeled images to train on")
    ranges = geo.ranges_preset("training")
    model = PointNet(arch, with_descriptor=True, seed=cfg.seed)
    if base_state:
        model.store.load_state(base_state, strict=False)
    b = cfg.batch_size
    for it in range(cfg.iterations):
        rng = _rng(cfg.seed, 0x2B, it)
        imgs_a, imgs_b, labels, grids = [], [], [], []
        for j in range(b):
            img, pts = dataset[int(rng.integers(len(dataset)))]
            hgt, wdt = img.shape
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
            warped = homographic_augment(ShapeSample(img, pts, None), h)
            imgs_a.append(img)
            imgs_b.append(warped.image)
            labels.append(cells_from_points(pts, hgt, wdt, rng))
            labels.append(cells_from_points(warped.points, hgt, wdt, rng))
            grids.append(correspondences(h, hgt // 8, wdt // 8))
        x = np.stack(imgs_a + imgs_b)[:, None, :, :]
        y = np.stack(labels[0::2] + labels[1::2])
        logits, desc = model.forward(x, train=True)
        det_loss, dlogits = loss_detector(logits, y)
        ddesc = np.zeros_like(desc)
        desc_loss = 0.0
        if loss_cfg.lam > 0.0:
            for j in range(b):
                ld, da, db = loss_descriptor(desc[j], desc[b + j], grids[j], loss_cfg)
                desc_loss += ld / b
                scale = 0.5 * loss_cfg.lam / b
                ddesc[j] = scale * da
                ddesc[b + j] = scale * db
        model.store.zero_grad()
        model.backward(dlogits, ddesc)
        adam_step(model.store, cfg.lr, t=it + 1)
        if log is not None and (it % cfg.log_every == 0 or it == cfg.iterations - 1):
            # report the documented pair loss: both detector terms plus lam * Ld
            log.add(it, 2.0 * det_loss + loss_cfg.lam * desc_loss, 2.0 * det_loss, desc_loss)
        if progress is not None:
            progress(it, det_loss)
        _maybe_checkpoint(model, cfg, it, checkpoint_dir)
    return model
