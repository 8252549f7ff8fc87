"""Joint detector/descriptor network and its parameter-free decoders.

Encoder: eight 3x3 conv layers (conv -> BatchNorm -> ReLU) with a 2x2 max
pool after every second layer for the first six, shrinking H x W to
H/8 x W/8 "cells".  Two heads: the detector emits 65 logits per cell (64
in-cell positions plus a dustbin), the descriptor emits one D-vector per
cell.  Both output layers are plain 1x1 convolutions: logits feed a
softmax, raw descriptors feed L2 normalization, so neither carries an
activation of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imaging import bicubic_many
from .ops import BatchNorm2d, Conv2d, MaxPool2x2, ReLU
from .store import ParamStore

CELL = 8
DETECTOR_OUT = 65


class DimensionNotDivisible(ValueError):
    pass


class EmptyDescriptorMap(ValueError):
    pass


@dataclass(frozen=True)
class ArchConfig:
    encoder_widths: tuple = (64, 64, 64, 64, 128, 128, 128, 128)
    head_width: int = 256
    descriptor_dim: int = 256

    def __post_init__(self):
        if len(self.encoder_widths) != 8:
            raise ValueError("encoder needs exactly 8 conv widths")


ARCH_PRESETS = {
    "micro": ArchConfig((9, 9, 16, 16, 32, 32, 32, 32), head_width=32, descriptor_dim=32),
    "full": ArchConfig(),
}


def _block(store: ParamStore, name: str, cin: int, cout: int, rng) -> list:
    """3x3 conv -> BatchNorm -> ReLU; the conv has no bias, as BatchNorm cancels it."""
    return [Conv2d(store, name, cin, cout, 3, rng, bias=False), BatchNorm2d(store, f"{name}.bn", cout), ReLU()]


def _forward(layers: list, x: np.ndarray, train: bool) -> np.ndarray:
    for layer in layers:
        x = layer.forward(x, train)
    return x


def _backward(layers: list, dy: np.ndarray) -> np.ndarray:
    for layer in reversed(layers):
        dy = layer.backward(dy)
    return dy


class PointNet:
    """Shared encoder with a detector head and an optional descriptor head.

    ``encoder``, ``det_head`` and ``desc_head`` are layer lists (``desc_head``
    is None without a descriptor).  Layers are created in ``.spw`` order, which
    is also the order of the seeded initial weight draws.
    """

    def __init__(self, arch: ArchConfig, with_descriptor: bool, seed: int = 0, dtype=np.float32):
        self.store = ParamStore(dtype)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
        self.encoder = []
        cin = 1
        for i, width in enumerate(arch.encoder_widths):
            self.encoder += _block(self.store, f"enc{i}", cin, width, rng)
            if i in (1, 3, 5):
                self.encoder.append(MaxPool2x2())
            cin = width
        self.det_head = _block(self.store, "det.head", cin, arch.head_width, rng)
        self.det_head.append(Conv2d(self.store, "det.out", arch.head_width, DETECTOR_OUT, 1, rng))
        self.desc_head = None
        if with_descriptor:
            self.desc_head = _block(self.store, "desc.head", cin, arch.head_width, rng)
            self.desc_head.append(Conv2d(self.store, "desc.out", arch.head_width, arch.descriptor_dim, 1, rng))

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False, descriptor: bool = True):
        """Return (logits N x 65 x Hc x Wc, raw descriptors or None).

        With ``descriptor`` false the descriptor head does not run and the
        second value is None.
        """
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(f"expected (N, 1, H, W) input, got {x.shape}")
        if x.shape[2] % CELL or x.shape[3] % CELL:
            raise DimensionNotDivisible(f"H and W must be divisible by {CELL}, got {x.shape[2:]}")
        feat = _forward(self.encoder, np.ascontiguousarray(x, dtype=self.store.dtype), train)
        logits = _forward(self.det_head, feat, train)
        if self.desc_head is None or not descriptor:
            return logits, None
        return logits, _forward(self.desc_head, feat, train)

    def backward(self, dlogits: np.ndarray, ddesc: np.ndarray | None = None) -> np.ndarray:
        """Input gradient of the last training forward; every layer releases what that forward kept."""
        if ddesc is not None and self.desc_head is None:  # before any layer releases its cache
            raise ValueError("model has no descriptor head")
        dfeat = _backward(self.det_head, dlogits)
        if ddesc is not None:
            dfeat = dfeat + _backward(self.desc_head, ddesc)
        return _backward(self.encoder, dfeat)

    # -- inference helpers ---------------------------------------------------

    # Any image size works: sides that are not multiples of 8 are
    # replicate-padded on the bottom and right for the network, and the
    # heatmap is cropped back to the image, so no point lands in the padding.

    def heatmap(self, img: np.ndarray) -> np.ndarray:
        """Point-ness probability map for one image (eval mode)."""
        hgt, wdt = img.shape
        logits, _ = self.forward(_pad_to_cells(img)[None, None, :, :], train=False, descriptor=False)
        return detector_decode(logits)[0, :hgt, :wdt].astype(np.float32)

    def describe(self, img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(heatmap, normalized descriptor map D x ceil(H/8) x ceil(W/8)) for one image."""
        hgt, wdt = img.shape
        logits, desc = self.forward(_pad_to_cells(img)[None, None, :, :], train=False)
        if desc is None:
            raise EmptyDescriptorMap("model has no descriptor head")
        return detector_decode(logits)[0, :hgt, :wdt].astype(np.float32), normalize_descriptors(desc)[0]


def _pad_to_cells(img: np.ndarray) -> np.ndarray:
    """Replicate the bottom and right edges up to the next multiple of CELL."""
    pad = ((0, -img.shape[0] % CELL), (0, -img.shape[1] % CELL))
    if pad == ((0, 0), (0, 0)):
        return img
    return np.pad(img, pad, mode="edge")


def infer_arch(state: dict) -> tuple[ArchConfig, bool]:
    """Recover the architecture of a saved state dict from weight shapes."""
    widths = tuple(int(state[f"enc{i}.w"].shape[0]) for i in range(8))
    head_width = int(state["det.head.w"].shape[0])
    with_descriptor = "desc.out.w" in state
    ddim = int(state["desc.out.w"].shape[0]) if with_descriptor else head_width
    return ArchConfig(widths, head_width, ddim), with_descriptor


# ---------------------------------------------------------------------------
# parameter-free decoding


def softmax_channels(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def depth_to_space(x: np.ndarray) -> np.ndarray:
    """(N, 64, Hc, Wc) -> (N, 8*Hc, 8*Wc); channel k of a cell lands on
    pixel (8h + k//8, 8w + k%8)."""
    n, c, hc, wc = x.shape
    if c != CELL * CELL:
        raise ValueError(f"expected {CELL * CELL} channels, got {c}")
    return x.reshape(n, CELL, CELL, hc, wc).transpose(0, 3, 1, 4, 2).reshape(n, hc * CELL, wc * CELL)


def detector_decode(logits: np.ndarray) -> np.ndarray:
    """Channel softmax, drop the dustbin, rearrange cells to pixels."""
    if logits.shape[1] != DETECTOR_OUT:
        raise ValueError(f"expected {DETECTOR_OUT} channels, got {logits.shape[1]}")
    probs = softmax_channels(logits)
    return depth_to_space(probs[:, : CELL * CELL])


def normalize_descriptors(desc: np.ndarray) -> np.ndarray:
    """Unit L2 norm per spatial location; works on (N, D, Hc, Wc) or (D, Hc, Wc)."""
    axis = 1 if desc.ndim == 4 else 0
    norm = np.sqrt((desc * desc).sum(axis=axis, keepdims=True))
    return desc / np.maximum(norm, 1e-12)


def descriptor_sample(desc_map: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bicubic-sample a normalized (D, Hc, Wc) map at pixel points, re-normalize.

    Cell centers live at pixel coordinates 3.5 + 8k, so pixel (x, y) maps to
    coarse coordinates ((x - 3.5) / 8, (y - 3.5) / 8).
    """
    desc_map = np.asarray(desc_map)
    if desc_map.ndim != 3 or desc_map.shape[1] == 0 or desc_map.shape[2] == 0:
        raise EmptyDescriptorMap(f"bad descriptor map shape {desc_map.shape}")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        return np.zeros((0, desc_map.shape[0]), dtype=np.float64)
    cx = (points[:, 0] - 3.5) / CELL
    cy = (points[:, 1] - 3.5) / CELL
    # (N, D) in C order, so the norms below sum each row in the same order as a per-channel loop
    out = np.ascontiguousarray(bicubic_many(desc_map, cx, cy).T)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.maximum(norms, 1e-12)
