"""Response aggregation over random warps and the self-labeling loop.

The core operation runs a detector on many homographic warps of one image,
un-warps every response map, and averages them.  Border pixels are divided
by the number of warps that actually covered them, not blindly by the warp
count, so the average is unbiased everywhere it is defined and reduces to
the uniform mean in the interior.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .classical import heatmap_to_points
from .synthdata import write_points


MASK_EROSION = 8  # px; see adapt()


@dataclass(frozen=True)
class AdaptConfig:
    n_homographies: int = 100
    detect_threshold: float = 0.015
    nms_radius: float = 4.0

    def __post_init__(self):
        if self.n_homographies < 1:
            raise ValueError("need at least one homography (the identity)")


def _erode(mask: np.ndarray, radius: int) -> np.ndarray:
    """4-neighbor binary erosion applied radius times."""
    m = mask.copy()
    for _ in range(radius):
        e = m.copy()
        e[1:, :] &= m[:-1, :]
        e[:-1, :] &= m[1:, :]
        e[:, 1:] &= m[:, :-1]
        e[:, :-1] &= m[:, 1:]
        m = e
    return m


def adapt(detector, img: np.ndarray, cfg: AdaptConfig, seed: int = 0) -> np.ndarray:
    """Average detector responses over n_homographies warps (identity first).

    Warps are drawn from the "adaptation" homography preset, whose scale
    term makes the average multi-scale as well as multi-homography.
    Responses within ``MASK_EROSION`` px of a warp's validity border are
    discarded: the detector computed them from padding, and the boundary
    itself is an artificial edge that would otherwise inject spurious
    corners right on the image border.  Each pixel is then normalized by
    the count of warps that actually covered it; never-covered pixels stay
    0.  With n_homographies=1 the output is the base detector's map,
    bitwise.
    """
    img = np.asarray(img, dtype=np.float32)
    base = np.asarray(detector(img), dtype=np.float32)
    if cfg.n_homographies == 1:
        return base
    ranges = geo.ranges_preset("adaptation")
    accum = base.astype(np.float64)
    count = np.ones(img.shape, dtype=np.float64)
    for i in range(1, cfg.n_homographies):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4D, i)))
        h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
        hinv = geo.invert(h)
        warped, fwd_mask = geo.warp_image(img, h)
        response = np.asarray(detector(warped), dtype=np.float32)
        valid = _erode(fwd_mask, MASK_EROSION)
        response = np.where(valid, response, 0.0)
        back, back_mask = geo.warp_image(response, hinv)
        cover_f, cover_m = geo.warp_image(valid.astype(np.float32), hinv)
        covered = back_mask & cover_m & (cover_f >= 1.0 - 1e-6)
        accum += np.where(covered, back, 0.0)
        count += covered
    out = accum / count
    return out.astype(np.float32)


def self_label(images, detector, cfg: AdaptConfig, rounds: int, retrain=None,
               out_dir=None, seed: int = 0, top_k: int = 0):
    """Iterative pseudo-labeling: adapt-aggregate, threshold, optionally retrain.

    Per round every image is labeled from the adapted heatmap of the current
    detector; when ``retrain`` is given (callable(labeled_dataset, round) ->
    new detector) the freshly trained detector drives the next round.
    Returns a list of (labels, detector) per round; label directories
    ``round_R`` with one .pts per image plus meta.txt go under out_dir.
    """
    images = list(images)
    if not images:
        raise ValueError("no images to label")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    history = []
    current = detector
    for r in range(1, rounds + 1):
        labels = []
        for i, img in enumerate(images):
            hm = adapt(current, img, cfg, seed=int(np.random.SeedSequence((seed, 0x6F, r, i)).generate_state(1)[0]))
            labels.append(heatmap_to_points(hm, cfg.detect_threshold, cfg.nms_radius, top_k))
        if out_dir is not None:
            rdir = os.path.join(out_dir, f"round_{r}")
            os.makedirs(rdir, exist_ok=True)
            for i, pts in enumerate(labels):
                write_points(os.path.join(rdir, f"{i:06d}.pts"), pts)
            with open(os.path.join(rdir, "meta.txt"), "w") as f:
                f.write(f"n_homographies={cfg.n_homographies}\n")
                f.write(f"seed={seed}\n")
                f.write(f"threshold={cfg.detect_threshold}\n")
                f.write(f"nms_radius={cfg.nms_radius}\n")
        if retrain is not None:
            current = retrain(list(zip(images, labels)), r)
        history.append((labels, current))
    return history
