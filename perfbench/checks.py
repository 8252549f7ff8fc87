"""Checkers that test pointpipe's outputs without calling pointpipe.

Each returns None when the output holds and a message when it does not.
"""

from __future__ import annotations

import numpy as np


def _rank_order(points: np.ndarray) -> np.ndarray:
    """Indices by descending confidence, ties by ascending (y, x)."""
    return np.lexsort((points[:, 0], points[:, 1], -points[:, 2]))


def _near(kept_xy, query_xy, r, pair_filter, chunk=8192):
    """For each query, True iff some kept point within r satisfies pair_filter(q_idx, k_idx).

    The kept points are bucketed on an r-sized grid, so each query looks at
    the kept points of its own and the 8 surrounding cells only.
    """
    found = np.zeros(len(query_xy), dtype=bool)
    if len(kept_xy) == 0 or len(query_xy) == 0:
        return found
    kc = np.floor(kept_xy / r).astype(np.int64)
    qc = np.floor(query_xy / r).astype(np.int64)
    lo = np.minimum(kc.min(axis=0), qc.min(axis=0)) - 1
    kc -= lo
    qc -= lo
    width, height = np.maximum(kc.max(axis=0), qc.max(axis=0)) + 2
    code = kc[:, 1] * width + kc[:, 0]
    order = np.argsort(code, kind="stable")
    starts = np.searchsorted(code[order], code[order], side="left")
    slot = np.arange(len(order)) - starts
    grid = np.full((height, width, int(slot.max()) + 1), -1, dtype=np.int64)
    grid[kc[order, 1], kc[order, 0], slot] = order
    r2 = r * r
    for s in range(0, len(query_xy), chunk):
        q = np.arange(s, min(s + chunk, len(query_xy)))
        nb = np.concatenate([grid[qc[q, 1] + dy, qc[q, 0] + dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1)],
                            axis=1)
        valid = nb >= 0
        d2 = ((query_xy[q, None, :] - kept_xy[nb]) ** 2).sum(axis=2)
        found[q] = (valid & (d2 <= r2) & pair_filter(q[:, None], nb)).any(axis=1)
    return found


def check_greedy_nms(candidates, kept, radius: float, limit: int = 0) -> str | None:
    """Greedy-NMS property of ``kept`` against ``candidates``.

    Kept points are candidates, listed in rank order, pairwise more than
    ``radius`` apart; every candidate that ranks above the last kept point
    (all candidates when fewer than ``limit`` were kept) and was dropped
    lies within ``radius`` of a kept point that ranks above it.
    """
    cand = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    kept = np.asarray(kept, dtype=np.float64).reshape(-1, 3)
    if len(cand) == 0:
        return None if len(kept) == 0 else "points kept from an empty candidate set"
    ranked = cand[_rank_order(cand)]
    if radius <= 0:
        expect = ranked[: min(limit, len(ranked))] if limit else ranked
        return None if np.array_equal(kept, expect) else "radius 0 must keep the candidates in rank order"
    # rank of each kept point, by exact (x, y, confidence) match against the candidates
    row = np.dtype((np.void, 3 * 8))
    rv = np.ascontiguousarray(ranked).view(row).ravel()
    kv = np.ascontiguousarray(kept).view(row).ravel()
    sorter = np.argsort(rv)
    pos = np.minimum(np.searchsorted(rv, kv, sorter=sorter), len(rv) - 1)
    ranks = sorter[pos]
    missing = rv[ranks] != kv
    if missing.any():
        i = int(np.nonzero(missing)[0][0])
        return f"kept point {i} {tuple(kept[i])} is not a candidate"
    if len(kept) > 1 and np.any(np.diff(ranks) <= 0):
        return "kept points are not in rank order"
    kxy = kept[:, :2]
    # separation: no other kept point within radius
    close = _near(kxy, kxy, radius, lambda q, k: q != k)
    if close.any():
        return f"{int(close.sum())} kept points lie within {radius} of another kept point"
    # coverage of dropped candidates ranking above the cut
    cut = len(ranked) if (not limit or len(kept) < limit) else int(ranks[-1]) + 1
    dropped = np.ones(cut, dtype=bool)
    dropped[ranks[ranks < cut]] = False
    drop_idx = np.nonzero(dropped)[0]
    covered = _near(kxy, ranked[drop_idx, :2], radius, lambda q, k: ranks[k] < drop_idx[q])
    if not covered.all():
        i = int(drop_idx[np.nonzero(~covered)[0][0]])
        return f"dropped candidate of rank {i} has no higher-ranked kept point within {radius}"
    return None


def check_nn_argmin(desc_a, desc_b, idx_b, distance, tol: float = 1e-9) -> str | None:
    """Each idx_b[i] is a nearest row of desc_b to desc_a[i] (ties allowed).

    Distances are recomputed in float64 through |a|^2 + |b|^2 - 2 a.b, not
    by the differencing the program uses.
    """
    a = np.asarray(desc_a, dtype=np.float64)
    b = np.asarray(desc_b, dtype=np.float64)
    idx_b = np.asarray(idx_b)
    if idx_b.shape != (len(a),):
        return f"expected {len(a)} matches, got {idx_b.shape}"
    if len(a) == 0:
        return None
    if idx_b.min() < 0 or idx_b.max() >= len(b):
        return "match index out of range"
    d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
    best = d2.min(axis=1)
    chosen = d2[np.arange(len(a)), idx_b]
    scale = 1.0 + np.abs(best)
    bad = chosen > best + tol * scale
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        return f"row {i}: matched {int(idx_b[i])} at d^2={chosen[i]:.12g}, nearest is d^2={best[i]:.12g}"
    dist = np.asarray(distance, dtype=np.float64)
    if np.any(np.abs(dist - np.sqrt(np.maximum(chosen, 0.0))) > 1e-6):
        return "reported distances disagree with the matched descriptors"
    return None


def _project(h, xy):
    hom = np.concatenate([xy, np.ones((len(xy), 1))], axis=1) @ np.asarray(h, dtype=np.float64).T
    return hom[:, :2] / hom[:, 2:3]


def corner_error(h_est, h_gt, shape) -> float:
    hgt, wdt = shape
    corners = np.array([[0.0, 0.0], [wdt - 1.0, 0.0], [0.0, hgt - 1.0], [wdt - 1.0, hgt - 1.0]])
    return float(np.sqrt(((_project(h_gt, corners) - _project(h_est, corners)) ** 2).sum(1)).mean())


def check_corner_error(h_est, h_gt, shape, reported: float) -> str | None:
    """The reported corner error equals the one recomputed from the returned H."""
    if not np.all(np.isfinite(h_est)):
        return "estimated homography is not finite"
    err = corner_error(h_est, h_gt, shape)
    if not abs(err - reported) <= 1e-9 * max(1.0, abs(err)):
        return f"corner error reported {reported!r}, recomputed {err!r}"
    return None


def check_identity_repeatability(reports: dict) -> str | None:
    """Every deterministic detector repeats all its points on (img, img, I)."""
    for name, rep in reports.items():
        if rep.repeatability != 1.0:
            return f"{name}: repeatability {rep.repeatability!r} on an image paired with itself"
    return None
