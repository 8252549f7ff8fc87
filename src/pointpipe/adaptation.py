"""Response aggregation over random warps and the self-labeling loop.

The core operation runs a detector on many homographic warps of one image,
un-warps every response map, and averages them.  Border pixels are divided
by the number of warps that actually covered them, not blindly by the warp
count, so the average is unbiased everywhere it is defined and reduces to
the uniform mean in the interior.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .blas import ONE_BLAS_THREAD
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


def _warped_response(detector, img: np.ndarray, ranges, seed: int, i: int):
    """Warp i's response carried back to the image frame, and the pixels it covers."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x4D, i)))
    h = geo.to_pixel_frame(geo.sample_homography(ranges, rng), img.shape)
    hinv = geo.invert(h)
    warped, fwd_mask = geo.warp_image(img, h)
    response = np.asarray(detector(warped), dtype=np.float32)
    valid = _erode(fwd_mask, MASK_EROSION)
    response = np.where(valid, response, 0.0)
    back, back_mask = geo.warp_image(response, hinv)
    cover_f, cover_m = geo.warp_image(valid.astype(np.float32), hinv)
    return back, back_mask & cover_m & (cover_f >= 1.0 - 1e-6)


def _add_warp(accum: np.ndarray, count: np.ndarray, back: np.ndarray, covered: np.ndarray) -> None:
    accum += np.where(covered, back, 0.0)
    count += covered


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

    Warps run two at a time: the odd ones on a helper thread, in a copy of
    the caller's context (so ``np.errstate`` carries over), and the even
    ones, the identity first, on the caller's thread.  The sums still take
    every warp in order, so the result does not depend on the threads.  The
    detector is therefore called from two threads at once and must not keep
    per-call state; an eval-mode ``PointNet.heatmap``, ``harris`` and
    ``shi_tomasi`` all qualify.  Meanwhile numpy's OpenBLAS runs one thread
    per call (see ``blas.ONE_BLAS_THREAD``).
    """
    img = np.asarray(img, dtype=np.float32)
    n = cfg.n_homographies
    if n == 1:
        return np.asarray(detector(img), dtype=np.float32)
    ranges = geo.ranges_preset("adaptation")
    with ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=1) as helper:
        for i in range(0, n, 2):
            if i + 1 < n:
                odd = helper.submit(contextvars.copy_context().run,
                                    _warped_response, detector, img, ranges, seed, i + 1)
            if i == 0:
                accum = np.asarray(detector(img), dtype=np.float32).astype(np.float64)
                count = np.ones(img.shape, dtype=np.float64)
            else:
                _add_warp(accum, count, *_warped_response(detector, img, ranges, seed, i))
            if i + 1 < n:
                _add_warp(accum, count, *odd.result())
    out = accum / count
    return out.astype(np.float32)


def self_label(images, detector, cfg: AdaptConfig, rounds: int, retrain=None,
               out_dir=None, seed: int = 0, top_k: int = 0):
    """Iterative pseudo-labeling: adapt-aggregate, threshold, optionally retrain.

    Per round every image is labeled from the adapted heatmap of the current
    detector; when ``retrain`` is given (callable(labeled_dataset, round) ->
    new detector) the freshly trained detector drives the next round.
    Returns a list of (labels, detector) per round; label directories
    ``round_R`` with one .pts per image plus meta.txt (settings and the
    per-image point counts in image order) go under out_dir.
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
                f.write(f"points={','.join(str(len(pts)) for pts in labels)}\n")
        if retrain is not None:
            current = retrain(list(zip(images, labels)), r)
        history.append((labels, current))
    return history
