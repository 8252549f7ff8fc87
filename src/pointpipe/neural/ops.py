"""Differentiable layers with exact analytic backward passes.

Every layer's ``forward(x, train)`` takes the mode explicitly.  With
``train`` false it is a pure function of its input and the parameters
(BatchNorm normalizes with its running statistics): it writes no attribute,
so one model can serve any number of threads.  With ``train`` true a layer
keeps in ``_cache`` what its ``backward`` needs, and BatchNorm also updates
its running statistics.  ``backward`` takes that cache and releases it
before it computes, so each training forward serves exactly one backward
(a second raises ``BackwardWithoutForward``), and after a network's
backward no layer holds an activation: the next training forward starts
beside the weights alone.  It accumulates parameter gradients into the
store and returns the input gradient; BatchNorm's runs its arithmetic in
place on one gradient array and one scratch array, and its training forward
takes the variance from the deviations it normalizes.  A 3x3 convolution,
and its input gradient, is ``_correlate``: im2col and GEMM one tile of
output rows at a time, so the patches of a tile are still in cache when the
GEMM reads them; ``_patches`` copies all k*k taps of a tile at once from
its flattened rows.  A training forward runs the same code as evaluation and
keeps only a reference to its input, which must not change before
backward; backward rebuilds one image's patch matrix at a time from it for
the weight gradient (``_weight_gradient``), an im2col copy with no extra
GEMM, so the batch's patches, nine times the input, are never held from
forward to backward.  A 1x1 convolution is one GEMM over the input itself.
ReLU's and MaxPool's backward, and the descriptor loss's hinge terms, zero
their masked values through ``keep_where``, a branch-free bit select that is
bitwise ``np.where(mask, values, 0.0)``.  Layers run in whatever float dtype
the store was built with (float64 for gradient checking).
"""

from __future__ import annotations

import math

import numpy as np

from .store import ParamStore


class ShapeMismatch(ValueError):
    pass


class OddDimension(ValueError):
    pass


class BackwardWithoutForward(RuntimeError):
    pass


def keep_where(mask, values: np.ndarray) -> np.ndarray:
    """Bitwise ``np.where(mask, values, 0.0)`` for a float array and a bool mask of its shape, branch-free.

    The mask is widened to all-ones or all-zeros words of the values'
    width and ANDed with their bits: a kept value keeps every bit (NaN
    payloads, -0.0, infinities and subnormals included) and a dropped one
    becomes +0.0, which is what ``np.where`` writes, at one pass whatever
    pattern the mask has.
    """
    bits = np.dtype(f"u{values.itemsize}")
    out = np.multiply(mask, np.iinfo(bits).max, dtype=bits)
    out &= values.view(bits)
    return out.view(values.dtype)


def _release(layer):
    """What the layer's last training forward kept for backward; the layer keeps none of it."""
    cache = getattr(layer, "_cache", None)
    if cache is None:
        raise BackwardWithoutForward(f"{type(layer).__name__}.backward needs a training forward first, "
                                     f"and each training forward serves one backward")
    layer._cache = None
    return cache


# output pixels per tile of whole rows: a tile's k*k*C patch rows are still
# in cache when the GEMM reads them
TILE_PIXELS = 2048
# BLAS computes a GEMM's pixels in vectors of up to 16 values and a partial
# vector with other code; OpenBLAS hands a GEMM of at most 100**3 multiply-adds
# to small-matrix kernels, which sum a long dot product in another order than
# its blocked kernels do
VECTOR_PIXELS = 16
SMALL_GEMM = 100**3


def _tile_bounds(h: int, w: int, nout: int, depth: int) -> list[int]:
    """Output-row bounds of the tiles of an (nout, depth) weight matrix's GEMM.

    Every pixel goes through the BLAS code that one whole-image GEMM gives it:
    each tile holds whole vectors, and each tile's GEMM is above the
    small-matrix size when the whole image's is (a short last tile joins the
    one before it).  A pixel count that ends in a partial vector, whose code
    varies with the GEMM's size, and a one-row matrix, which numpy hands to
    gemv, take the whole image.  These rules were measured on scipy-openblas
    0.3.31, not derived; ``TestTiledConvolution`` compares the bytes.
    """
    if nout == 1 or h * w % VECTOR_PIXELS or h * w == 0:
        return [0, h]
    step = VECTOR_PIXELS // math.gcd(w, VECTOR_PIXELS)
    rows = max(step, TILE_PIXELS // w // step * step)
    row_work = w * nout * depth
    if rows * row_work <= SMALL_GEMM:
        rows = (SMALL_GEMM // (row_work * step) + 1) * step
    bounds = list(range(0, h, rows)) + [h]
    if len(bounds) > 2 and (h - bounds[-2]) * row_work <= SMALL_GEMM:
        del bounds[-2]
    return bounds


def _patches(img: np.ndarray, r0: int, r1: int, k: int, band: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The 'same'-padded (C*k*k, (r1-r0)*W) patch matrix of output rows r0:r1 of a (C, H, W) image, in buf.

    The input rows r0 - pad to r1 + pad go into ``band`` flattened, zero where
    they leave the image, after ``pad`` leading entries.  Tap (ky, kx) of
    every output pixel of the tile is then ``band`` shifted by ky*W + kx, so
    the k*k taps are one strided copy whose inner loop runs over the whole
    tile.  Where a shift crosses a row end, the first or last pixels of each
    row come from the neighbouring row; they lie outside the image and are
    zeroed after the copy.  The patches hold the values the per-tap 2-D copies
    of a zero-padded image give, so every GEMM over them keeps its bytes.
    """
    c, h, w = img.shape
    pad = k // 2
    lo, hi = max(r0 - pad, 0), min(r1 + pad, h)
    n = (r1 - r0) * w
    start, stop = pad + (lo - r0 + pad) * w, pad + (hi - r0 + pad) * w
    band[:, pad:start] = 0
    band[:, start:stop] = img[:, lo:hi].reshape(c, -1)
    band[:, stop : pad + n + 2 * pad * w] = 0
    tile = buf[:, :, :, : r1 - r0]
    cs, item = band.strides
    taps = np.lib.stride_tricks.as_strided(band, (c, k, k, n), (cs, w * item, item, item), writeable=False)
    np.copyto(tile.reshape(c, k, k, n), taps)
    for kx in range(pad):
        tile[:, :, kx, :, : pad - kx] = 0
        tile[:, :, k - 1 - kx, :, w - (pad - kx) :] = 0
    return tile.reshape(c * k * k, n)


def _correlate(x: np.ndarray, wmat: np.ndarray, k: int) -> np.ndarray:
    """'Same'-padded stride-1 correlation: (N, C, H, W) x (Cout, C*k*k) -> (N, Cout, H*W).

    Each image goes in tiles of whole output rows: ``_patches`` builds a
    tile's patch matrix from its input rows and their halo, and
    ``wmat @ patches`` is written into the tile's columns of the output.  No
    padded copy of the whole input is made.  Only the GEMM's pixel dimension
    is split, and ``_tile_bounds`` keeps every pixel in the BLAS code of one
    GEMM over the whole image, so the outputs are that GEMM's bytes.  One
    tile's band and patch buffer are reused for every tile.
    """
    n, c, h, w = x.shape
    pad = k // 2
    bounds = _tile_bounds(h, w, *wmat.shape)
    rows = max(np.diff(bounds))
    y = np.empty((n, wmat.shape[0], h * w), dtype=np.result_type(wmat, x))
    band = np.zeros((c, (rows + 2 * pad) * w + 2 * pad), dtype=x.dtype)
    buf = np.empty((c, k, k, rows, w), dtype=x.dtype)
    for i in range(n):
        for r0, r1 in zip(bounds, bounds[1:]):
            np.matmul(wmat, _patches(x[i], r0, r1, k, band, buf), out=y[i, :, r0 * w : r1 * w])
    return y


def _weight_gradient(x: np.ndarray, dym: np.ndarray, k: int) -> np.ndarray:
    """Sum over images of ``dym[i] @ patches_i.T``: (N, C, H, W), (N, Cout, H*W) -> (Cout, C*k*k).

    Image i's 'same'-padded (C*k*k, H*W) patch matrix is rebuilt from ``x``
    by ``_patches`` just before its GEMM, in one buffer for the whole batch.
    A 1x1 kernel's patches are the input itself.  Each GEMM and the order of
    the sum are those of a patch matrix kept for the whole batch, so ``dw``
    has its bytes.
    """
    n, c, h, w = x.shape
    dw = np.zeros((dym.shape[1], c * k * k), dtype=x.dtype)
    if k == 1:
        for dyi, patches in zip(dym, x.reshape(n, c, h * w)):
            dw += dyi @ patches.T
        return dw
    pad = k // 2
    band = np.zeros((c, (h + 2 * pad) * w + 2 * pad), dtype=x.dtype)
    buf = np.empty((c, k, k, h, w), dtype=x.dtype)
    for dyi, img in zip(dym, x):
        dw += dyi @ _patches(img, 0, h, k, band, buf).T
    return dw


class Conv2d:
    """k x k cross-correlation, stride 1; 'same' padding for k=3, none for k=1."""

    def __init__(self, store: ParamStore, name: str, cin: int, cout: int, ksize: int,
                 rng: np.random.Generator, bias: bool = True):
        if ksize not in (1, 3):
            raise ValueError("only 1x1 and 3x3 kernels are used here")
        fan_in = cin * ksize * ksize
        bound = np.sqrt(6.0 / fan_in)  # Kaiming-uniform, ReLU gain
        self.w = store.create(f"{name}.w", rng.uniform(-bound, bound, (cout, cin, ksize, ksize)))
        # a bias ahead of BatchNorm is cancelled by the mean subtraction and
        # its gradient degenerates to roundoff noise, so BN-fed convs skip it
        self.b = store.create(f"{name}.b", np.zeros(cout)) if bias else None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, h, w = x.shape
        cout, cin, k, _ = self.w.data.shape
        if c != cin:
            raise ShapeMismatch(f"expected {cin} input channels, got {c}")
        wmat = self.w.data.reshape(cout, cin * k * k)
        if k == 1:
            # a 1x1 kernel's patches are the input itself
            y = np.matmul(wmat[None], x.reshape(n, c, h * w))
        else:
            y = _correlate(x, wmat, k)
        y = y.reshape(n, cout, h, w)
        if train:
            self._cache = x
        if self.b is not None:
            y += self.b.data.reshape(1, cout, 1, 1)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = _release(self)
        n = x.shape[0]
        cout, cin, k, _ = self.w.data.shape
        dym = dy.reshape(n, cout, -1)
        if self.b is not None:
            self.b.grad += dy.sum(axis=(0, 2, 3))
        self.w.grad += _weight_gradient(x, dym, k).reshape(self.w.data.shape)
        if k == 1:
            return np.matmul(self.w.data.reshape(cout, cin).T[None], dym).reshape(x.shape)
        # dx is the 'same' correlation of dy with the transposed, 180-rotated kernel
        wt = self.w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        wtm = np.ascontiguousarray(wt).reshape(cin, cout * k * k)
        return _correlate(dy, wtm, k).reshape(x.shape)


class ReLU:
    def forward(self, x, train: bool):
        if train:
            self._cache = x > 0
        # bitwise np.where(x > 0, x, 0.0): fmax maps NaN and -inf to 0, and
        # adding +0.0 turns a -0.0 that fmax may return into +0.0
        y = np.fmax(x, 0.0)
        y += 0.0
        return y

    def backward(self, dy):
        return keep_where(_release(self), dy)


class MaxPool2x2:
    """Non-overlapping 2x2 max; gradient routed to the first max in row-major order."""

    def forward(self, x, train: bool):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise OddDimension(f"pooling needs even spatial dims, got {h}x{w}")
        v00 = x[:, :, 0::2, 0::2]
        v01 = x[:, :, 0::2, 1::2]
        v10 = x[:, :, 1::2, 0::2]
        v11 = x[:, :, 1::2, 1::2]
        y = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
        if train:
            f00 = v00 == y
            f01 = (v01 == y) & ~f00
            f10 = (v10 == y) & ~(f00 | f01)
            f11 = ~(f00 | f01 | f10)
            self._cache = (f00, f01, f10, f11)
        return y

    def backward(self, dy):
        f00, f01, f10, f11 = _release(self)
        n, c, hc, wc = f00.shape
        # the four phases cover every input pixel
        dx = np.empty((n, c, 2 * hc, 2 * wc), dtype=dy.dtype)
        dx[:, :, 0::2, 0::2] = keep_where(f00, dy)
        dx[:, :, 0::2, 1::2] = keep_where(f01, dy)
        dx[:, :, 1::2, 0::2] = keep_where(f10, dy)
        dx[:, :, 1::2, 1::2] = keep_where(f11, dy)
        return dx


class BatchNorm2d:
    """Per-channel batch normalization, eps 1e-5, running-stat momentum 0.9."""

    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.gamma = store.create(f"{name}.gamma", np.ones(channels))
        self.beta = store.create(f"{name}.beta", np.zeros(channels))
        self.running_mean = store.create(f"{name}.running_mean", np.zeros(channels), trainable=False)
        self.running_var = store.create(f"{name}.running_var", np.ones(channels), trainable=False)

    def forward(self, x, train: bool):
        c = x.shape[1]
        mu, var = self.running_mean.data, self.running_var.data
        if train:
            mu = x.mean(axis=(0, 2, 3))
        # the arithmetic runs in place on the x - mu temporary, never on x
        xhat = x - mu.reshape(1, c, 1, 1)
        if train:
            # x.var(axis=(0, 2, 3)) step for step: the mean of the squared deviations from x's mean,
            # which are xhat before it is scaled
            var = np.square(xhat).mean(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat *= inv_std.reshape(1, c, 1, 1)
        if not train:
            xhat *= self.gamma.data.reshape(1, c, 1, 1)
            xhat += self.beta.data.reshape(1, c, 1, 1)
            return xhat
        self.running_mean.data = (
            self.MOMENTUM * self.running_mean.data + (1.0 - self.MOMENTUM) * mu
        ).astype(self.running_mean.data.dtype)
        self.running_var.data = (
            self.MOMENTUM * self.running_var.data + (1.0 - self.MOMENTUM) * var
        ).astype(self.running_var.data.dtype)
        self._cache = (xhat, inv_std)
        return self.gamma.data.reshape(1, c, 1, 1) * xhat + self.beta.data.reshape(1, c, 1, 1)

    def backward(self, dy):
        xhat, inv_std = _release(self)
        c = dy.shape[1]
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        self.gamma.grad += (dy * xhat).sum(axis=(0, 2, 3))
        dxhat = dy * self.gamma.data.reshape(1, c, 1, 1)
        sum_d = dxhat.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        sum_dx = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        # (inv_std / m) * (m * dxhat - sum_d - xhat * sum_dx), operation for operation, in place on dxhat and
        # one scratch array; a product's operands may swap, as IEEE multiplication is commutative, so every
        # value keeps its bytes
        dxhat *= m
        dxhat -= sum_d
        scratch = xhat * sum_dx
        dxhat -= scratch
        dxhat *= inv_std.reshape(1, c, 1, 1) / m
        return dxhat
