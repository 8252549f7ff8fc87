"""Detector pretraining, detector retraining on labels, and joint pair training.

The three trainers are one view pipeline run by one loop, ``_fit``.  A
source yields each step's views as (image, points, generator), and
``_batch`` takes each view through three stages, all drawn from its
generator: a cell-aligned crop to the view size, which drops the label
points outside it and draws nothing for an image of that size; for joint
training, a warp by the training preset; then the label tie-breaks, the
view's before the warped view's.  ``train_magicpoint`` streams sample k with
its own generator (seed, 0x1A, k).  ``train_detector_on_labels`` (key 0x3C)
and ``train_superpoint`` (key 0x2B) pick labeled images with one generator
(seed, key, it) per step; the first crops them to ``size``, the second to
the largest whole-cell size that fits every image (``view_size``).  The
joint trainer optimizes the per-view mean of the detector term plus half
the weighted descriptor term, i.e. the documented pair loss divided by two;
logs always report the full pair loss.  Keeping the per-view normalization
makes detector gradients directly comparable with detector-only
pretraining.  A loss or gradient that is not finite stops training with
``TrainingDiverged`` before it reaches the weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .. import geometry as geo
from ..synthdata import ShapeSample, StreamConfig, homographic_augment, sample_at
from .losses import LossConfig, cells_from_points, correspondences, loss_descriptor, loss_detector
from .network import CELL, ArchConfig, PointNet
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
def _fit(arch, cfg: TrainConfig, views, size, ranges=None, base_state=None, loss_cfg=LossConfig(), log=None,
         checkpoint_dir=None, progress=None):
    """Run ``cfg.iterations`` Adam steps on ``_batch(views(it), size, ranges)``; return the model.

    The model has a descriptor head when the views are warped into pairs, and
    starts from ``base_state`` where given.  ``progress(it, loss)`` runs after
    every step with the loss the log records as ``loss_total``.  No array of
    step k outlives its Adam update, so step k + 1 builds its batch and runs
    its forward beside the weights and Adam's moments alone; the last step's
    gradients stay readable.
    """
    model = PointNet(arch, with_descriptor=ranges is not None, seed=cfg.seed)
    if base_state:
        model.store.load_state(base_state, strict=False)
    written = finite_checkpoint = None
    for it in range(cfg.iterations):
        # step k's parameter gradients were spent by its Adam update, and zero_grad makes new ones
        for p in model.store.params.values():
            p.grad = None
        det_total, desc_loss, grads = _forward_and_loss(model, _batch(views(it), size, ranges), loss_cfg)
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


def _batch(views, size, ranges=None):
    """One step's (images, cell labels, grids): the b views, then with ``ranges`` their b warped views and
    the grids that link view j with view b + j (None without ``ranges``)."""
    hgt, wdt = size
    firsts, warps, grids = [], [], []
    for image, points, rng in views:
        oy, ox = (int(rng.integers(0, (side - crop) // CELL + 1)) * CELL for side, crop in zip(image.shape, size))
        view = image[oy : oy + hgt, ox : ox + wdt]
        points = points.copy()
        points[:, :2] -= (ox, oy)
        pair = [ShapeSample(view, points[geo.in_bounds(points, size)], None)]
        if ranges is not None:
            h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), size)
            pair.append(homographic_augment(pair[0], h))
            grids.append(correspondences(h, hgt // CELL, wdt // CELL))
        pair = [(s.image, cells_from_points(s.points, hgt, wdt, rng)) for s in pair]
        firsts.append(pair[0])
        warps += pair[1:]
    images, labels = zip(*firsts, *warps)
    return np.stack(images)[:, None, :, :], np.stack(labels), grids if ranges is not None else None


def view_size(images, size=None, name="view size") -> tuple[int, int]:
    """The view size of a labeled image list: ``size``, or by default the largest whole-cell size that fits
    every image.  A given size must be whole cells, from one cell up to that fit."""
    if not images:
        raise EmptyDataset("no labeled images to train on")
    fit = tuple(min(image.shape[axis] for image in images) // CELL * CELL for axis in (0, 1))
    size = fit if size is None else tuple(size)
    if not all(CELL <= side <= most and side % CELL == 0 for side, most in zip(size, fit)):
        raise ValueError(f"{name} must be multiples of {CELL} from {CELL} up to the images' whole-cell fit {fit}, "
                         f"got {size}")
    return size


def _labeled_views(dataset, cfg, purpose):
    def views(it):
        rng = _rng(cfg.seed, purpose, it)
        for _ in range(cfg.batch_size):
            image, points = dataset[int(rng.integers(len(dataset)))]
            yield image, points, rng

    return views


def train_magicpoint(arch: ArchConfig, stream_cfg: StreamConfig, cfg: TrainConfig, log: LossLog | None = None,
                     checkpoint_dir=None, progress=None) -> PointNet:
    """Detector-only training on the endless synthetic stream."""

    def views(it):
        for k in range(it * cfg.batch_size, (it + 1) * cfg.batch_size):
            sample = sample_at(stream_cfg, k)
            yield sample.image, sample.points, _rng(cfg.seed, 0x1A, k)

    return _fit(arch, cfg, views, (stream_cfg.height, stream_cfg.width), log=log, checkpoint_dir=checkpoint_dir,
                progress=progress)


def train_detector_on_labels(arch: ArchConfig, dataset, cfg: TrainConfig, size: tuple[int, int],
                             base_state=None) -> PointNet:
    """Supervised detector training on seeded ``size`` crops of (image, points) pairs; the self-labeling rounds
    retrain with it."""
    size = view_size([image for image, _ in dataset], size)
    return _fit(arch, cfg, _labeled_views(dataset, cfg, 0x3C), size, base_state=base_state)


def train_superpoint(base_state, arch: ArchConfig, dataset, cfg: TrainConfig, loss_cfg: LossConfig = LossConfig(),
                     log: LossLog | None = None, checkpoint_dir=None, progress=None) -> PointNet:
    """Joint detector + descriptor training on the pair loss of self-labeled images of any size and their
    warps by the training preset."""
    size = view_size([image for image, _ in dataset])
    return _fit(arch, cfg, _labeled_views(dataset, cfg, 0x2B), size, geo.ranges_preset("training"), base_state,
                loss_cfg, log=log, checkpoint_dir=checkpoint_dir, progress=progress)
