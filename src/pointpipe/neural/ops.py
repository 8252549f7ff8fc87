"""Differentiable layers with exact analytic backward passes.

Every layer's ``forward(x, train)`` takes the mode explicitly.  With
``train`` false it is a pure function of its input and the parameters
(BatchNorm normalizes with its running statistics): it writes no attribute,
so one model can serve any number of threads.  With ``train`` true a layer
keeps what its ``backward`` needs, and BatchNorm also updates its running
statistics.  ``backward`` is valid only after a training forward; it
accumulates parameter gradients into the store and returns the input
gradient.  Convolution is im2col + GEMM.  Layers run in whatever float dtype
the store was built with (float64 for gradient checking).
"""

from __future__ import annotations

import numpy as np

from .store import ParamStore


class ShapeMismatch(ValueError):
    pass


class OddDimension(ValueError):
    pass


def _im2col(x: np.ndarray, k: int, pad: int):
    """(N, C, H, W) -> (N, C*k*k, Ho*Wo) patches for stride-1 conv."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = h + 2 * pad - k + 1
    wo = w + 2 * pad - k + 1
    # one nearly-sequential block copy per kernel tap beats gathering the
    # fully strided (n, c, k, k, ho, wo) view in one pass
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = x[:, :, ky : ky + ho, kx : kx + wo]
    return cols.reshape(n, c * k * k, ho * wo)


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
        self.pad = ksize // 2

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, h, w = x.shape
        cout, cin, k, _ = self.w.data.shape
        if c != cin:
            raise ShapeMismatch(f"expected {cin} input channels, got {c}")
        # a 1x1 kernel's patches are the input itself
        cols = x.reshape(n, c, h * w) if k == 1 else _im2col(x, k, self.pad)
        y = np.matmul(self.w.data.reshape(cout, cin * k * k)[None], cols).reshape(n, cout, h, w)
        if train:
            self._cache = (x.shape, cols)
        if self.b is not None:
            y += self.b.data.reshape(1, cout, 1, 1)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_shape, cols = self._cache
        n = x_shape[0]
        cout, cin, k, _ = self.w.data.shape
        dym = dy.reshape(n, cout, -1)
        if self.b is not None:
            self.b.grad += dy.sum(axis=(0, 2, 3))
        dw = np.zeros((cout, cin * k * k), dtype=cols.dtype)
        for i in range(n):
            dw += dym[i] @ cols[i].T
        self.w.grad += dw.reshape(self.w.data.shape)
        if k == 1:
            return np.matmul(self.w.data.reshape(cout, cin).T[None], dym).reshape(x_shape)
        # dx is the full correlation of dy with the transposed, 180-rotated kernel
        wt = self.w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        dcols = _im2col(dy, k, k - 1 - self.pad)
        wtm = np.ascontiguousarray(wt).reshape(cin, cout * k * k)
        return np.matmul(wtm[None], dcols).reshape(x_shape)


class ReLU:
    def forward(self, x, train: bool):
        if train:
            self._mask = x > 0
        # bitwise np.where(x > 0, x, 0.0): fmax maps NaN and -inf to 0, and
        # adding +0.0 turns a -0.0 that fmax may return into +0.0
        y = np.fmax(x, 0.0)
        y += 0.0
        return y

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0).astype(dy.dtype, copy=False)


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
            self._flags = (f00, f01, f10, f11)
        return y

    def backward(self, dy):
        f00, f01, f10, f11 = self._flags
        n, c, hc, wc = f00.shape
        dx = np.zeros((n, c, 2 * hc, 2 * wc), dtype=dy.dtype)
        dx[:, :, 0::2, 0::2] = np.where(f00, dy, 0.0)
        dx[:, :, 0::2, 1::2] = np.where(f01, dy, 0.0)
        dx[:, :, 1::2, 0::2] = np.where(f10, dy, 0.0)
        dx[:, :, 1::2, 1::2] = np.where(f11, dy, 0.0)
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
        if train:
            mu = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
        else:
            mu, var = self.running_mean.data, self.running_var.data
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        # the arithmetic runs in place on the x - mu temporary, never on x
        xhat = x - mu.reshape(1, c, 1, 1)
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
        xhat, inv_std = self._cache
        c = dy.shape[1]
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        self.gamma.grad += (dy * xhat).sum(axis=(0, 2, 3))
        dxhat = dy * self.gamma.data.reshape(1, c, 1, 1)
        sum_d = dxhat.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        sum_dx = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        return (inv_std.reshape(1, c, 1, 1) / m) * (m * dxhat - sum_d - xhat * sum_dx)
