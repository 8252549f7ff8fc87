"""Training losses: per-cell detector cross-entropy and pairwise descriptor hinge.

Cell labels encode where a ground-truth point falls inside its 8x8 cell
(row-major position 0..63) or 64 for "no point here".  The descriptor loss
runs over all cell pairs of an image pair, gated by homography-induced
correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import geometry as geo
from .network import CELL, DETECTOR_OUT
from .ops import ShapeMismatch, keep_where

DUSTBIN = CELL * CELL  # label 64


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.0001  # weight of the descriptor term in the total loss
    lam_d: float = 250.0  # positive-pair weight inside the hinge
    m_p: float = 1.0
    m_n: float = 0.2

    def __post_init__(self):
        # lam = 0 is the documented detector-only reduction
        if self.lam < 0 or min(self.lam_d, self.m_p, self.m_n) <= 0:
            raise ValueError("loss constants must be positive (lam may be 0)")
        if self.m_p <= self.m_n:
            raise ValueError("m_p must exceed m_n")


def cells_from_points(points: np.ndarray, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Rasterize ground-truth points into an (Hc, Wc) label grid.

    Each point rounds to its nearest pixel; when several points land in one
    cell a seeded uniform choice keeps exactly one.  Empty cells get the
    dustbin label.
    """
    hc, wc = height // CELL, width // CELL
    labels = np.full((hc, wc), DUSTBIN, dtype=np.int64)
    if len(points) == 0:
        return labels
    px = np.clip(np.rint(np.asarray(points)[:, 0]).astype(int), 0, width - 1)
    py = np.clip(np.rint(np.asarray(points)[:, 1]).astype(int), 0, height - 1)
    buckets: dict[tuple[int, int], list[int]] = {}
    for x, y in zip(px, py):
        buckets.setdefault((y // CELL, x // CELL), []).append((y % CELL) * CELL + (x % CELL))
    for cell in sorted(buckets):
        cands = buckets[cell]
        pick = cands[0] if len(cands) == 1 else cands[int(rng.integers(len(cands)))]
        labels[cell] = pick
    return labels


def loss_detector(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over all cells; returns (loss, dlogits)."""
    if logits.ndim == 3:
        logits = logits[None]
    if labels.ndim == 2:
        labels = labels[None]
    n, c, hc, wc = logits.shape
    if c != DETECTOR_OUT or labels.shape != (n, hc, wc):
        raise ShapeMismatch(f"logits {logits.shape} vs labels {labels.shape}")
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(sez)
    ni, yi, xi = np.meshgrid(np.arange(n), np.arange(hc), np.arange(wc), indexing="ij")
    picked = logp[ni, labels, yi, xi]
    count = n * hc * wc
    loss = -picked.sum() / count
    dlogits = ez / sez
    dlogits[ni, labels, yi, xi] -= 1.0
    dlogits /= count
    return float(loss), dlogits.astype(logits.dtype, copy=False)


def cell_centers(hc: int, wc: int) -> np.ndarray:
    """(Hc*Wc, 2) pixel coordinates of cell centers, row-major; center of
    cell (h, w) is (8w + 3.5, 8h + 3.5)."""
    ww, hh = np.meshgrid(np.arange(wc), np.arange(hc))
    return np.stack([ww.ravel() * CELL + 3.5, hh.ravel() * CELL + 3.5], axis=1)


def correspondences(h: np.ndarray, hc: int, wc: int) -> np.ndarray:
    """Binary (Hc*Wc, Hc*Wc) grid: 1 where the warped center of cell (h,w)
    lies within 8 px (inclusive) of the center of cell (h',w')."""
    centers = cell_centers(hc, wc)
    warped = geo.apply(h, centers)
    d2 = ((warped[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= float(CELL * CELL)).astype(np.float32)


def _normalize_cols(dm: np.ndarray):
    norms = np.maximum(np.sqrt((dm * dm).sum(axis=0, keepdims=True)), 1e-12)
    return dm / norms, norms


def loss_descriptor(desc_a: np.ndarray, desc_b: np.ndarray, s: np.ndarray, cfg: LossConfig,
                    block: int = 4096):
    """Pairwise hinge loss over all (cell, cell) pairs; returns (loss, dA, dB).

    Descriptors are L2-normalized per location before the dot products, and
    gradients flow through the normalization.  The pair sum runs blockwise
    over rows so memory stays bounded; results equal the naive double loop.
    """
    if desc_a.shape != desc_b.shape:
        raise ShapeMismatch(f"{desc_a.shape} vs {desc_b.shape}")
    c, hc, wc = desc_a.shape
    m = hc * wc
    if s.shape != (m, m):
        raise ShapeMismatch(f"correspondence grid {s.shape}, expected {(m, m)}")
    am = desc_a.reshape(c, m)
    bm = desc_b.reshape(c, m)
    an, a_norms = _normalize_cols(am)
    bn, b_norms = _normalize_cols(bm)
    inv_pairs = 1.0 / (m * m)
    loss = 0.0
    dan = np.zeros_like(an)
    dbn = np.zeros_like(bn)
    for start in range(0, m, block):
        stop = min(start + block, m)
        g = an[:, start:stop].T @ bn  # (rows, m)
        srow = s[start:stop]
        pos = (g < cfg.m_p) & (srow > 0)
        neg = (g > cfg.m_n) & (srow <= 0)
        loss += cfg.lam_d * keep_where(pos, cfg.m_p - g).sum() + keep_where(neg, g - cfg.m_n).sum()
        dg = (neg.astype(g.dtype) - cfg.lam_d * pos.astype(g.dtype)) * inv_pairs
        dan[:, start:stop] += bn @ dg.T
        dbn += an[:, start:stop] @ dg
    loss *= inv_pairs
    # through the column normalization: d = (dn - n * (n . dn)) / |d|
    da = (dan - an * (an * dan).sum(axis=0, keepdims=True)) / a_norms
    db = (dbn - bn * (bn * dbn).sum(axis=0, keepdims=True)) / b_norms
    return float(loss), da.reshape(desc_a.shape), db.reshape(desc_b.shape)

