"""Layer forward semantics and analytic-vs-numeric gradient agreement."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from pointpipe.neural import ARCH_PRESETS, PointNet
from pointpipe.neural.ops import (
    BackwardWithoutForward,
    BatchNorm2d,
    Conv2d,
    MaxPool2x2,
    OddDimension,
    ReLU,
    ShapeMismatch,
    _tile_bounds,
    keep_where,
)
from pointpipe.neural.store import ParamStore


def numeric_grad(f, x, coords, h=1e-5):
    """Central finite differences of scalar f at selected flat coordinates."""
    grads = {}
    flat = x.ravel()
    for c in coords:
        old = flat[c]
        flat[c] = old + h
        fp = f()
        flat[c] = old - h
        fm = f()
        flat[c] = old
        grads[c] = (fp - fm) / (2.0 * h)
    return grads


def sample_coords(rng, size, k=8):
    return rng.choice(size, size=min(k, size), replace=False)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def check_layer_input_grad(layer, x, rng, tol, k=8):
    """Probe d(sum(out * r))/dx of a training forward against finite differences."""
    out = layer.forward(x, train=True)
    r = rng.normal(size=out.shape)
    dx = layer.backward(r)

    def f():
        return float((layer.forward(x, train=True) * r).sum())

    coords = sample_coords(rng, x.size, k)
    num = numeric_grad(f, x, coords)
    for c, g in num.items():
        assert rel_err(dx.ravel()[c], g) < tol, (c, dx.ravel()[c], g)


class TestConv:
    def test_identity_kernel(self):
        store = ParamStore(np.float64)
        rng = np.random.default_rng(0)
        conv = Conv2d(store, "c", 1, 1, 3, rng)
        conv.w.data[:] = 0.0
        conv.w.data[0, 0, 1, 1] = 1.0
        conv.b.data[:] = 0.0
        x = rng.normal(size=(2, 1, 6, 6))
        np.testing.assert_allclose(conv.forward(x, train=True), x, atol=1e-12)

    def test_ones_kernel_counts_taps(self):
        store = ParamStore(np.float64)
        conv = Conv2d(store, "c", 1, 1, 3, np.random.default_rng(0))
        conv.w.data[:] = 1.0
        conv.b.data[:] = 0.0
        x = np.ones((1, 1, 5, 5))
        y = conv.forward(x, train=True)[0, 0]
        assert y[2, 2] == 9.0
        assert y[0, 0] == 4.0
        assert y[0, 2] == 6.0

    def test_channel_mismatch(self):
        store = ParamStore(np.float64)
        conv = Conv2d(store, "c", 3, 4, 3, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 2, 8, 8)), train=True)

    @pytest.mark.parametrize("ksize,cin,cout", [(3, 2, 3), (1, 3, 2)])
    def test_gradients_match_finite_differences(self, ksize, cin, cout):
        rng = np.random.default_rng(1)
        store = ParamStore(np.float64)
        conv = Conv2d(store, "c", cin, cout, ksize, rng)
        x = rng.normal(size=(2, cin, 6, 7))
        out = conv.forward(x, train=True)
        r = rng.normal(size=out.shape)
        store.zero_grad()
        dx = conv.backward(r)

        def f():
            return float((conv.forward(x, train=True) * r).sum())

        for c, g in numeric_grad(f, x, sample_coords(rng, x.size)).items():
            assert rel_err(dx.ravel()[c], g) < 1e-6
        for c, g in numeric_grad(f, conv.w.data, sample_coords(rng, conv.w.data.size)).items():
            assert rel_err(conv.w.grad.ravel()[c], g) < 1e-6
        for c, g in numeric_grad(f, conv.b.data, sample_coords(rng, conv.b.data.size, 3)).items():
            assert rel_err(conv.b.grad.ravel()[c], g) < 1e-6


def whole_image_im2col(x):
    """The (N, C*9, H*W) patch matrix of a 'same'-padded 3x3 correlation, built for the whole image at once."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c, 3, 3, h, w), dtype=x.dtype)
    for ky in range(3):
        for kx in range(3):
            cols[:, :, ky, kx] = xp[:, :, ky : ky + h, kx : kx + w]
    return cols.reshape(n, c * 9, h * w)


def held_arrays(layer):
    """The arrays a layer's attributes hold, directly or in a tuple."""
    for value in vars(layer).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def traced(fn):
    """(fn(), peak, current) bytes that tracemalloc saw allocated while fn ran and still held after it."""
    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, current


def assert_same_bytes(got, want, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    if got.tobytes() != want.tobytes():
        config = io.StringIO()
        with contextlib.redirect_stdout(config):
            np.show_config()
        pytest.fail(f"{what}: {np.count_nonzero(got != want)} values differ from the whole-image GEMM; "
                    f"the tiles' bitwise equality rests on this BLAS build:\n{config.getvalue()}")


class TestTiledConvolution:
    """The tiled 3x3 convolution gives the bytes of one whole-image im2col GEMM.

    Every multi-tile case has a first tile, whose padded band starts above the
    image, and a last tile, whose band ends below it; (85, 48) has a merged
    last tile, longer than the others, and batch 8 reuses one band per image.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,cin,cout,h,w", [
        (1, 9, 9, 240, 320),  # enc1 at the benchmark size: 40 tiles of 6 rows
        (1, 1, 9, 240, 320),  # enc0: tiles grown past the small-GEMM size
        (8, 9, 16, 40, 100),  # batch 8: 20-row tiles
        (1, 9, 16, 15, 320),  # a short last tile: 6, 6 and 3 rows
        (1, 4, 16, 3, 2064),  # a row wider than a tile: one row per tile
        (1, 16, 16, 8, 1500),  # 1500-pixel rows: tiles of 4 rows hold whole 16-pixel vectors
        (1, 64, 16, 85, 48),  # K = 576: a one-row last tile, under the small-GEMM size, joins the one before
        (1, 2, 16, 61, 83),  # a partial vector at the end: the whole image
        (1, 16, 256, 21, 100),  # a partial vector after a short last tile: the whole image
        (1, 1, 32, 152, 66),  # one input channel: dx is a one-row GEMM, the whole image
        (1, 52, 2, 4, 1040),  # two outputs, K = 468: rows grown past the small-GEMM size
        (2, 3, 5, 1, 4),  # one column: every left and right tap wraps across a row end and is zeroed
        (2, 3, 1, 7, 4),  # one row: every upper and lower tap reads the band's zero rows
    ])
    def test_equals_whole_image_gemm(self, n, cin, cout, h, w, dtype):
        rng = np.random.default_rng(h * w + cin)
        conv = Conv2d(ParamStore(dtype), "c", cin, cout, 3, rng)
        conv.b.data[:] = rng.normal(size=cout)
        x = rng.normal(size=(n, cin, h, w)).astype(dtype)
        dy = rng.normal(size=(n, cout, h, w)).astype(dtype)
        wmat = conv.w.data.reshape(cout, cin * 9)
        cols = whole_image_im2col(x)
        want = np.matmul(wmat[None], cols).reshape(n, cout, h, w) + conv.b.data.reshape(1, cout, 1, 1)

        assert_same_bytes(conv.forward(x, train=False), want, "eval forward")
        assert_same_bytes(conv.forward(x, train=True), want, "train forward")
        assert all(a.size < cols.size for a in held_arrays(conv)), "a training forward keeps no patch matrix"
        conv.w.grad = np.zeros_like(conv.w.data)
        conv.b.grad = np.zeros_like(conv.b.data)
        dx = conv.backward(dy)
        wt = np.ascontiguousarray(conv.w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]).reshape(cin, cout * 9)
        assert_same_bytes(dx, np.matmul(wt[None], whole_image_im2col(dy)).reshape(x.shape), "dx")
        dw = np.zeros((cout, cin * 9), dtype=dtype)
        for i in range(n):
            dw += dy[i].reshape(cout, h * w) @ cols[i].T
        assert_same_bytes(conv.w.grad, dw.reshape(conv.w.data.shape), "dw")

    def test_tile_bounds(self):
        assert _tile_bounds(240, 320, 9, 81) == list(range(0, 241, 6))
        assert _tile_bounds(240, 320, 9, 9) == [0, 39, 78, 117, 156, 195, 240]
        assert _tile_bounds(40, 100, 16, 81) == [0, 20, 40]
        assert _tile_bounds(15, 320, 16, 81) == [0, 6, 12, 15]
        assert _tile_bounds(3, 2064, 16, 36) == [0, 1, 2, 3]
        assert _tile_bounds(8, 1500, 16, 144) == [0, 4, 8]
        assert _tile_bounds(85, 48, 16, 576) == [0, 42, 85]
        assert _tile_bounds(64, 83, 16, 81) == [0, 16, 32, 48, 64]
        assert _tile_bounds(4, 1040, 2, 468) == [0, 2, 4]
        assert _tile_bounds(61, 83, 16, 81) == [0, 61]
        assert _tile_bounds(152, 66, 1, 288) == [0, 152]
        assert _tile_bounds(0, 320, 9, 81) == [0, 0]

    def test_eval_forward_allocates_under_half_the_patch_matrix(self):
        conv = Conv2d(ParamStore(np.float32), "c", 9, 9, 3, np.random.default_rng(0), bias=False)
        x = np.random.default_rng(1).random((1, 9, 240, 320), dtype=np.float32)
        patch_matrix = 9 * 9 * 240 * 320 * 4
        _, peak, _ = traced(lambda: conv.forward(x, train=False))
        assert peak < patch_matrix / 2, (peak, patch_matrix)

    def test_training_forward_allocates_and_keeps_under_half_the_patch_matrix(self):
        conv = Conv2d(ParamStore(np.float32), "c", 9, 9, 3, np.random.default_rng(0), bias=False)
        x = np.random.default_rng(1).random((1, 9, 240, 320), dtype=np.float32)
        patch_matrix = 9 * 9 * 240 * 320 * 4
        y, peak, current = traced(lambda: conv.forward(x, train=True))
        assert peak < patch_matrix / 2, (peak, patch_matrix)
        # what stays allocated besides the output: the input is kept, not copied
        assert current - y.nbytes < x.nbytes / 2, (current, y.nbytes, x.nbytes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_allocates_one_image_patch_matrix_plus_dx(self, dtype):
        conv = Conv2d(ParamStore(dtype), "c", 9, 9, 3, np.random.default_rng(0), bias=False)
        rng = np.random.default_rng(1)
        x = rng.random((2, 9, 240, 320)).astype(dtype)
        dy = rng.random((2, 9, 240, 320)).astype(dtype)
        conv.forward(x, train=True)
        conv.w.grad = np.zeros_like(conv.w.data)
        image_patches = 9 * 9 * 240 * 320 * np.dtype(dtype).itemsize
        dx, peak, _ = traced(lambda: conv.backward(dy))
        # the batch's patch matrix alone would take 2 * image_patches
        assert peak < image_patches + dx.nbytes, (peak, image_patches, dx.nbytes)

    def test_eval_forward_makes_no_padded_copy_of_the_input(self):
        conv = Conv2d(ParamStore(np.float32), "c", 9, 9, 3, np.random.default_rng(0), bias=False)
        x = np.random.default_rng(1).random((1, 9, 240, 320), dtype=np.float32)
        y, peak, _ = traced(lambda: conv.forward(x, train=False))
        # besides the output, one tile's patches (0.62 MB) and one padded band of rows (0.09 MB);
        # a padded copy of the whole input would add 2.8 MB (peak 6.2 MB instead of 3.5 MB)
        assert peak - y.nbytes < x.nbytes / 2, (peak, y.nbytes, x.nbytes)


def whole_batch_patches_forward(conv_forward):
    """Conv2d.forward that also keeps a copy of the batch's whole patch matrix, made as it runs."""

    def forward(conv, x, train):
        y = conv_forward(conv, x, train)
        if train:
            n, c, h, w = x.shape
            conv._cols = whole_image_im2col(x) if conv.w.data.shape[2] == 3 else x.reshape(n, c, h * w).copy()
        return y

    return forward


def whole_batch_patches_backward(conv, dy):
    """Conv2d.backward from the kept whole patch matrix; dx from one whole-image GEMM."""
    n, cout, h, w = dy.shape
    cin, k = conv.w.data.shape[1:3]
    dym = dy.reshape(n, cout, h * w)
    if conv.b is not None:
        conv.b.grad += dy.sum(axis=(0, 2, 3))
    dw = np.zeros((cout, cin * k * k), dtype=conv._cols.dtype)
    for i in range(n):
        dw += dym[i] @ conv._cols[i].T
    conv.w.grad += dw.reshape(conv.w.data.shape)
    if k == 1:
        return np.matmul(conv.w.data.reshape(cout, cin).T[None], dym).reshape(n, cin, h, w)
    wt = np.ascontiguousarray(conv.w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]).reshape(cin, cout * 9)
    return np.matmul(wt[None], whole_image_im2col(dy)).reshape(n, cin, h, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_network_step_gradients_equal_whole_batch_patches(dtype, monkeypatch):
    """A micro joint step's gradients are bitwise those of patch matrices kept from forward to backward."""
    rng = np.random.default_rng(4)
    x = rng.random((3, 1, 32, 40))
    dlogits = rng.normal(size=(3, 65, 4, 5)).astype(dtype)
    ddesc = rng.normal(size=(3, 32, 4, 5)).astype(dtype)

    def step():
        model = PointNet(ARCH_PRESETS["micro"], with_descriptor=True, seed=2, dtype=dtype)
        model.store.zero_grad()
        model.forward(x, train=True)
        dx = model.backward(dlogits, ddesc)
        return dx, {name: p.grad for name, p in model.store.params.items()}

    got_dx, got = step()
    monkeypatch.setattr(Conv2d, "forward", whole_batch_patches_forward(Conv2d.forward))
    monkeypatch.setattr(Conv2d, "backward", whole_batch_patches_backward)
    want_dx, want = step()
    assert_same_bytes(got_dx, want_dx, "input gradient")
    for name in want:
        assert_same_bytes(got[name], want[name], name)


class TestBackwardReleasesItsCache:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_layer_holds_an_array_after_a_network_backward(self, dtype):
        model = PointNet(ARCH_PRESETS["micro"], with_descriptor=True, seed=3, dtype=dtype)
        rng = np.random.default_rng(12)
        logits, desc = model.forward(rng.random((2, 1, 32, 40)), train=True)
        layers = model.encoder + model.det_head + model.desc_head
        assert all(list(held_arrays(layer)) for layer in layers), "every layer keeps what its backward needs"
        model.store.zero_grad()
        model.backward(rng.normal(size=logits.shape).astype(dtype), rng.normal(size=desc.shape).astype(dtype))
        assert [layer for layer in layers if list(held_arrays(layer))] == []
        with pytest.raises(BackwardWithoutForward, match=r"^Conv2d\.backward needs a training forward first, "
                                                         r"and each training forward serves one backward$"):
            model.backward(logits, desc)

    @pytest.mark.parametrize("make", [
        lambda store: Conv2d(store, "c", 2, 3, 3, np.random.default_rng(0)),
        lambda store: Conv2d(store, "c", 2, 3, 1, np.random.default_rng(0)),
        lambda store: BatchNorm2d(store, "bn", 2),
        lambda store: ReLU(),
        lambda store: MaxPool2x2(),
    ])
    def test_each_training_forward_serves_one_backward(self, make):
        store = ParamStore(np.float64)
        layer = make(store)
        store.zero_grad()
        x = np.random.default_rng(1).normal(size=(2, 2, 4, 6))
        name = type(layer).__name__
        with pytest.raises(BackwardWithoutForward, match=rf"^{name}\.backward needs a training forward first"):
            layer.backward(np.ones_like(x))
        layer.forward(x, train=False)
        with pytest.raises(BackwardWithoutForward, match=rf"^{name}\.backward"):
            layer.backward(np.ones_like(x))
        y = layer.forward(x, train=True)
        layer.backward(np.ones_like(y))
        assert not list(held_arrays(layer))
        with pytest.raises(BackwardWithoutForward, match=rf"^{name}\.backward"):
            layer.backward(np.ones_like(y))


def special_values(dtype):
    """Every kind of float bit pattern: NaNs with payloads and both signs, signed zeros, infinities, subnormals."""
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    if bits == np.uint32:
        nans = np.array([0x7FC00000, 0xFFC00000, 0x7FC0BEEF, 0xFFC12345, 0x7F800001], dtype=bits)
    else:
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF800000000BEEF,
                         0xFFF8000012345678, 0x7FF0000000000001], dtype=bits)
    tiny = np.finfo(dtype).smallest_subnormal
    return np.concatenate([nans.view(dtype), np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny,
                                                       np.finfo(dtype).tiny / 2, -1.5, 2.5], dtype=dtype)])


class TestKeepWhere:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_where_bitwise(self, dtype):
        rng = np.random.default_rng(4)
        special = special_values(dtype)
        values = np.tile(special, 9).reshape(3, 5, -1)
        mixed = rng.normal(size=(2, 3, 8, 8)).astype(dtype)
        mixed.ravel()[rng.integers(mixed.size, size=40)] = rng.choice(special, size=40)
        cases = [(values, rng.random(values.shape) < 0.5), (mixed, rng.random(mixed.shape) < 0.3),
                 (mixed[:, :, :, ::3], rng.random(mixed[:, :, :, ::3].shape) < 0.7)]
        cases += [(x, np.full(x.shape, flag)) for x in (values, mixed) for flag in (True, False)]
        cases += [(special[i:i + 1], np.array([flag])) for i in range(len(special)) for flag in (True, False)]
        for x, mask in cases:
            want = np.where(mask, x, 0.0).astype(x.dtype, copy=False)
            got = keep_where(mask, x)
            assert got.dtype == x.dtype and got.shape == x.shape and got.tobytes() == want.tobytes()


class TestMaxPool:
    def test_constant(self):
        pool = MaxPool2x2()
        x = np.full((1, 2, 4, 4), 0.7)
        np.testing.assert_array_equal(pool.forward(x, train=True), np.full((1, 2, 2, 2), 0.7))

    def test_block_max(self):
        pool = MaxPool2x2()
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert pool.forward(x, train=True)[0, 0, 0, 0] == 4.0

    def test_odd_dims_rejected(self):
        with pytest.raises(OddDimension):
            MaxPool2x2().forward(np.zeros((1, 1, 5, 4)), train=True)

    def test_tie_routes_to_first_row_major(self):
        pool = MaxPool2x2()
        x = np.array([[[[2.0, 2.0], [2.0, 2.0]]]])
        pool.forward(x, train=True)
        dx = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_zeros_and_where(self, dtype):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, size=(2, 3, 8, 10)).astype(dtype)  # many ties
        dy = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        dy.ravel()[::4] = rng.choice(special_values(dtype), size=dy.ravel()[::4].size)
        pool = MaxPool2x2()
        pool.forward(x, train=True)
        flags = pool._cache
        want = np.zeros(x.shape, dtype=dtype)
        for (i, j), f in zip(((0, 0), (0, 1), (1, 0), (1, 1)), flags):
            want[:, :, i::2, j::2] = np.where(f, dy, 0.0)
        got = pool.backward(dy)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_gradient_matches_fd_away_from_ties(self):
        rng = np.random.default_rng(2)
        pool = MaxPool2x2()
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)  # distinct values
        check_layer_input_grad(pool, x, rng, 1e-6)


class TestReLU:
    def test_values(self):
        r = ReLU()
        np.testing.assert_array_equal(r.forward(np.array([-1.0, 2.0]), train=True), [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_where_positive_bitwise(self, dtype):
        special = np.array([np.nan, -0.0, 0.0, -np.inf, np.inf, -1.5, 2.5, 1e-45, -1e-45], dtype=dtype)
        rng = np.random.default_rng(9)
        mixed = rng.normal(size=(2, 3, 8, 8)).astype(dtype)
        mixed.ravel()[::7] = -0.0
        mixed.ravel()[::11] = np.nan
        # fmax's result for -0.0 differs between numpy's SIMD and scalar loops, so
        # single values and strided views are tried as well as whole arrays
        singles = [special[i:i + 1] for i in range(len(special))]
        for x in (special, *singles, mixed, mixed[:, :, :, ::3]):
            want = np.where(x > 0, x, 0.0).astype(x.dtype, copy=False)
            for train in (False, True):
                got = ReLU().forward(x, train=train)
                assert got.dtype == x.dtype and got.tobytes() == want.tobytes()

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(3)
        relu = ReLU()
        x = rng.normal(size=(2, 3, 4, 4))
        x += np.sign(x) * 0.1  # keep clear of |x| < 1e-3
        check_layer_input_grad(relu, x, rng, 1e-6)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(4)
        store = ParamStore(np.float64)
        bn = BatchNorm2d(store, "bn", 3)
        x = rng.normal(2.0, 3.0, size=(4, 3, 8, 8))
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_update(self):
        rng = np.random.default_rng(5)
        store = ParamStore(np.float64)
        bn = BatchNorm2d(store, "bn", 2)
        x = rng.normal(1.0, 2.0, size=(8, 2, 6, 6))
        bn.forward(x, train=True)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(bn.running_mean.data, 0.1 * mu, atol=1e-12)
        np.testing.assert_allclose(bn.running_var.data, 0.9 + 0.1 * var, atol=1e-12)

    def test_eval_uses_running_stats(self):
        store = ParamStore(np.float64)
        bn = BatchNorm2d(store, "bn", 1)
        bn.running_mean.data[:] = 2.0
        bn.running_var.data[:] = 4.0
        x = np.full((1, 1, 2, 2), 4.0)
        y = bn.forward(x, train=False)
        np.testing.assert_allclose(y, (4.0 - 2.0) / np.sqrt(4.0 + 1e-5), atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_forward_bitwise_and_input_untouched(self, dtype):
        rng = np.random.default_rng(7)
        store = ParamStore(dtype)
        bn = BatchNorm2d(store, "bn", 3)
        for p in (bn.gamma, bn.beta, bn.running_mean):
            p.data[:] = rng.normal(size=3)
        bn.running_var.data[:] = rng.uniform(0.5, 2.0, 3)
        x = rng.normal(size=(2, 3, 5, 7)).astype(dtype)
        before = x.copy()
        shape = (1, 3, 1, 1)
        xhat = (x - bn.running_mean.data.reshape(shape)) * (1.0 / np.sqrt(bn.running_var.data + bn.EPS)).reshape(shape)
        want = bn.gamma.data.reshape(shape) * xhat + bn.beta.data.reshape(shape)
        got = bn.forward(x, train=False)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (8, 9, 96, 96), (16, 32, 12, 12)])
    def test_train_forward_equals_mean_and_var(self, dtype, shape):
        """The variance from the kept deviations is bitwise x.var's, and so are the output, cache and running stats."""
        rng = np.random.default_rng(shape[1])
        c = shape[1]
        store = ParamStore(dtype)
        bn = BatchNorm2d(store, "bn", c)
        for p in (bn.gamma, bn.beta, bn.running_mean):
            p.data[:] = rng.normal(size=c)
        bn.running_var.data[:] = rng.uniform(0.5, 2.0, c)
        x = (rng.normal(3.0, 5.0, size=shape) * rng.uniform(1e-3, 1e3, size=(1, c, 1, 1))).astype(dtype)
        x[0, 0, 0, 0] = np.nan
        x[-1, 1, -1, -1] = np.inf
        before = x.copy()
        rm, rv = bn.running_mean.data.copy(), bn.running_var.data.copy()
        s = (1, c, 1, 1)
        with np.errstate(invalid="ignore"):
            mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            inv_std = 1.0 / np.sqrt(var + bn.EPS)
            xhat = (x - mu.reshape(s)) * inv_std.reshape(s)
            want = bn.gamma.data.reshape(s) * xhat + bn.beta.data.reshape(s)
            got = bn.forward(x, train=True)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for kept, expected in zip(bn._cache, (xhat, inv_std)):
            assert kept.dtype == expected.dtype and kept.tobytes() == expected.tobytes()
        m = bn.MOMENTUM
        assert bn.running_mean.data.tobytes() == (m * rm + (1.0 - m) * mu).astype(dtype).tobytes()
        assert bn.running_var.data.tobytes() == (m * rv + (1.0 - m) * var).astype(dtype).tobytes()
        np.testing.assert_array_equal(x, before)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        store = ParamStore(np.float64)
        bn = BatchNorm2d(store, "bn", 2)
        bn.gamma.data[:] = rng.normal(1.0, 0.2, 2)
        bn.beta.data[:] = rng.normal(0.0, 0.2, 2)
        x = rng.normal(size=(3, 2, 5, 5))
        out = bn.forward(x, train=True)
        r = rng.normal(size=out.shape)
        store.zero_grad()
        dx = bn.backward(r)

        def f():
            return float((bn.forward(x, train=True) * r).sum())

        # forward mutates running stats; freeze them for the probe
        rm, rv = bn.running_mean.data.copy(), bn.running_var.data.copy()
        for c, g in numeric_grad(f, x, sample_coords(rng, x.size)).items():
            assert rel_err(dx.ravel()[c], g) < 1e-5
        for c, g in numeric_grad(f, bn.gamma.data, [0, 1]).items():
            assert rel_err(bn.gamma.grad[c], g) < 1e-5
        for c, g in numeric_grad(f, bn.beta.data, [0, 1]).items():
            assert rel_err(bn.beta.grad[c], g) < 1e-5
        bn.running_mean.data[:] = rm
        bn.running_var.data[:] = rv

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_in_place_equals_one_expression(self, dtype):
        """The in-place backward gives bitwise the gradients of the out-of-place expression below, NaN and
        infinite upstream gradients included."""
        rng = np.random.default_rng(13)
        store = ParamStore(dtype)
        bn = BatchNorm2d(store, "bn", 4)
        bn.gamma.data[:] = rng.normal(1.0, 0.5, 4)
        x = rng.normal(0.5, 2.0, size=(3, 4, 16, 20)).astype(dtype)
        finite = rng.normal(size=x.shape).astype(dtype)
        with_nan = finite.copy()
        with_nan[0, 1, 2, 3] = np.nan
        with_nan[2, 3, ::5, ::7] = -np.nan
        with_inf = finite.copy()
        with_inf[1, 0, 4, 4] = np.inf
        with_inf[1, 2, 0, 0] = -np.inf
        with_inf[2, 2, 5, 6] = np.inf  # channel 2 holds both signs: its sums are NaN
        mixed = with_nan.copy()
        mixed[with_inf != finite] = with_inf[with_inf != finite]
        for dy in (finite, with_nan, with_inf, mixed):
            bn.forward(x, train=True)
            xhat, inv_std = bn._cache
            with np.errstate(invalid="ignore", over="ignore"):
                want = batchnorm_backward_expression(bn, dy, xhat, inv_std)
                store.zero_grad()
                got = (bn.backward(dy), bn.gamma.grad, bn.beta.grad)
            for name, g, w in zip(("dx", "gamma.grad", "beta.grad"), got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
            assert np.isnan(got[0]).any() == (dy is not finite)


def batchnorm_backward_expression(bn, dy, xhat, inv_std):
    """(dx, dgamma, dbeta) of BatchNorm2d's training forward as one out-of-place expression."""
    c = dy.shape[1]
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dbeta = dy.sum(axis=(0, 2, 3))
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dxhat = dy * bn.gamma.data.reshape(1, c, 1, 1)
    sum_d = dxhat.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
    sum_dx = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
    return (inv_std.reshape(1, c, 1, 1) / m) * (m * dxhat - sum_d - xhat * sum_dx), dgamma, dbeta
