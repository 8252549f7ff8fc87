"""Detector pretraining, detector retraining on labels, and joint pair training.

The three trainers share one loop, ``_fit``; each supplies only its batch
builder.  They are deterministic for a fixed seed: samples, label
tie-breaks, crops and warp draws all come from generators derived from
(seed, purpose, iteration).  The joint trainer optimizes the per-view mean
of the detector term plus half the weighted descriptor term, i.e. the
documented pair loss divided by two; logs always report the full pair loss.
Keeping the per-view normalization makes detector gradients directly
comparable with detector-only pretraining.  A loss or gradient that is not
finite stops training with ``TrainingDiverged`` before it reaches the weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .. import geometry as geo
from ..synthdata import ShapeSample, StreamConfig, homographic_augment, sample_at
from .losses import LossConfig, cells_from_points, correspondences, loss_descriptor, loss_detector
from .network import ArchConfig, PointNet
from .store import adam_step, save_weights


class EmptyDataset(ValueError):
    pass


class TrainingDiverged(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int = 8
    seed: int = 0
    lr: float = 0.001
    log_every: int = 100
    checkpoint_every: int = 0  # 0: no checkpoints

    def __post_init__(self):
        for name, least in (("iterations", 0), ("batch_size", 1), ("log_every", 1), ("checkpoint_every", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"TrainConfig.{name} must be >= {least}, got {value}")

    def logs(self, it: int) -> bool:
        """Whether step ``it`` is on the log schedule: every ``log_every`` steps, and the last step."""
        return it % self.log_every == 0 or it == self.iterations - 1


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


class LossLog:
    """Collects (iter, loss_total, loss_det, loss_desc, grad_norm) rows; optional CSV."""

    def __init__(self):
        self.rows = []

    def add(self, iteration, total, det, desc, grad_norm):
        self.rows.append((iteration, float(total), float(det), float(desc), float(grad_norm)))

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iter", "loss_total", "loss_det", "loss_desc", "grad_norm"])
            w.writerows(self.rows)


def _grad_norm(store) -> float:
    """Global L2 norm of the trainable parameters' gradients, summed in float64."""
    return math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum())
                         for p in store.params.values() if p.trainable))


def _diverged(what, it, checkpoint) -> TrainingDiverged:
    where = (f"the last checkpoint that gave a finite loss and gradients is {checkpoint}" if checkpoint
             else "no checkpoint that gave a finite loss and gradients was written")
    return TrainingDiverged(f"{what} at iteration {it}; {where}")


def _forward_and_loss(model, batch, loss_cfg):
    """One training forward and its losses: (detector total, descriptor loss, (dlogits, ddesc)).

    The batch, the network's outputs and the per-pair descriptor gradients
    are released on return; only the output gradients that backward needs
    are handed back.
    """
    x, labels, grids = batch
    logits, desc = model.forward(x, train=True)
    det_loss, dlogits = loss_detector(logits, labels)
    ddesc, desc_loss, det_total = None, 0.0, det_loss
    if grids is not None:
        b = len(grids)
        ddesc = np.zeros_like(desc)
        if loss_cfg.lam > 0.0:
            for j in range(b):
                ld, da, db = loss_descriptor(desc[j], desc[b + j], grids[j], loss_cfg)
                desc_loss += ld / b
                scale = 0.5 * loss_cfg.lam / b
                ddesc[j] = scale * da
                ddesc[b + j] = scale * db
        # report the documented pair loss: both detector terms plus lam * Ld
        det_total = 2.0 * det_loss
    return det_total, desc_loss, (dlogits, ddesc)


# the loop's finiteness checks report divergence; numpy's overflow warnings would only bury that message
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit(model, cfg: TrainConfig, batch, loss_cfg=LossConfig(), log=None, checkpoint_dir=None, progress=None):
    """Run ``cfg.iterations`` Adam steps on ``batch(it) -> (images, cell labels, grids)``.

    ``grids`` is None for detector-only training; otherwise the images are b
    views followed by their b warped views and ``grids[j]`` links view j with
    view b + j.  ``progress(it, loss)`` runs after every step with the loss the
    log records as ``loss_total``.  No array of step k outlives its Adam
    update, so step k + 1 builds its batch and runs its forward beside the
    weights and Adam's moments alone; the last step's gradients stay readable.
    """
    written = finite_checkpoint = None
    for it in range(cfg.iterations):
        # step k's parameter gradients were spent by its Adam update, and zero_grad makes new ones
        for p in model.store.params.values():
            p.grad = None
        det_total, desc_loss, grads = _forward_and_loss(model, batch(it), loss_cfg)
        total = det_total + loss_cfg.lam * desc_loss
        if not math.isfinite(total):
            raise _diverged(f"loss is {total}", it, finite_checkpoint)
        model.store.zero_grad()
        model.backward(*grads)
        del grads
        # ReLU maps NaN activations to 0, so a NaN input or weight can leave the loss finite
        for name, p in model.store.params.items():
            if not np.isfinite(p.grad).all():
                raise _diverged(f"gradient of {name!r} is not finite", it, finite_checkpoint)
        finite_checkpoint = written
        if log is not None and cfg.logs(it):
            log.add(it, total, det_total, desc_loss, _grad_norm(model.store))
        adam_step(model.store, cfg.lr, t=it + 1)
        if progress is not None:
            progress(it, total)
        if checkpoint_dir and cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
            written = f"{checkpoint_dir}/checkpoint_{it + 1:06d}.spw"
            save_weights(written, model.store)
    return model


def _labeled_model(arch, dataset, cfg, base_state, with_descriptor) -> PointNet:
    if not dataset:
        raise EmptyDataset("no labeled images to train on")
    model = PointNet(arch, with_descriptor=with_descriptor, seed=cfg.seed)
    if base_state:
        model.store.load_state(base_state, strict=False)
    return model


def train_magicpoint(arch: ArchConfig, stream_cfg: StreamConfig, cfg: TrainConfig, log: LossLog | None = None,
                     checkpoint_dir=None, progress=None) -> PointNet:
    """Detector-only training on the endless synthetic stream."""

    def batch(it):
        base = it * cfg.batch_size
        samples = [sample_at(stream_cfg, base + j) for j in range(cfg.batch_size)]
        x = np.stack([s.image for s in samples])[:, None, :, :]
        labels = [cells_from_points(s.points, stream_cfg.height, stream_cfg.width, _rng(cfg.seed, 0x1A, base + j))
                  for j, s in enumerate(samples)]
        return x, np.stack(labels), None

    model = PointNet(arch, with_descriptor=False, seed=cfg.seed)
    return _fit(model, cfg, batch, log=log, checkpoint_dir=checkpoint_dir, progress=progress)


def train_detector_on_labels(arch: ArchConfig, dataset, cfg: TrainConfig, size: tuple[int, int],
                             base_state=None) -> PointNet:
    """Supervised detector training on (image, points) pairs with random crops.

    Used by the self-labeling rounds: images may be larger than the training
    window, so each step takes a seeded random crop aligned to the cell grid.
    """
    model = _labeled_model(arch, dataset, cfg, base_state, with_descriptor=False)
    hgt, wdt = size

    def batch(it):
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
            shifted = pts.copy()
            shifted[:, :2] -= (ox, oy)
            shifted = shifted[geo.in_bounds(shifted, size)]
            xs.append(crop)
            ys.append(cells_from_points(shifted, hgt, wdt, rng))
        return np.stack(xs)[:, None, :, :], np.stack(ys), None

    return _fit(model, cfg, batch)


def train_superpoint(base_state, arch: ArchConfig, dataset, cfg: TrainConfig, loss_cfg: LossConfig = LossConfig(),
                     log: LossLog | None = None, checkpoint_dir=None, progress=None) -> PointNet:
    """Joint detector + descriptor training on self-labeled images.

    Each step samples a homography per image from the training preset,
    builds the warped view and its transported labels, and optimizes the
    pair loss; correspondence grids come from the same homography.
    """
    model = _labeled_model(arch, dataset, cfg, base_state, with_descriptor=True)
    ranges = geo.ranges_preset("training")

    def batch(it):
        rng = _rng(cfg.seed, 0x2B, it)
        imgs_a, imgs_b, labels, grids = [], [], [], []
        for _ in range(cfg.batch_size):
            img, pts = dataset[int(rng.integers(len(dataset)))]
            hgt, wdt = img.shape
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
            warped = homographic_augment(ShapeSample(img, pts, None), h)
            imgs_a.append(img)
            imgs_b.append(warped.image)
            labels.append(cells_from_points(pts, hgt, wdt, rng))
            labels.append(cells_from_points(warped.points, hgt, wdt, rng))
            grids.append(correspondences(h, hgt // 8, wdt // 8))
        return np.stack(imgs_a + imgs_b)[:, None, :, :], np.stack(labels[0::2] + labels[1::2]), grids

    return _fit(model, cfg, batch, loss_cfg, log=log, checkpoint_dir=checkpoint_dir, progress=progress)
