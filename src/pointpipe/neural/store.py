"""Named parameter store, Adam updates, and the binary weight file format."""

from __future__ import annotations

import struct

import numpy as np

from ..imaging import TruncatedFile


class MissingGradient(RuntimeError):
    pass


class Param:
    __slots__ = ("data", "grad", "trainable")

    def __init__(self, data: np.ndarray, trainable: bool = True):
        self.data = data
        self.grad = None
        self.trainable = trainable


class ParamStore:
    """Ordered name -> Param map plus per-parameter Adam moments."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Param] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}

    def create(self, name: str, data: np.ndarray, trainable: bool = True) -> Param:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(np.ascontiguousarray(data, dtype=self.dtype), trainable)
        self.params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self.params[name]

    def names(self):
        return list(self.params.keys())

    def zero_grad(self):
        # buffers for every parameter: backward accumulates into frozen
        # params too, the optimizer just skips them
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray], strict: bool = True):
        for name, p in self.params.items():
            if name in state:
                arr = np.asarray(state[name], dtype=self.dtype)
                if arr.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}")
                p.data = np.ascontiguousarray(arr)
            elif strict:
                raise KeyError(f"weight file is missing parameter {name!r}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, lr=1e-3, t=1) -> ParamStore:
    """Bias-corrected Adam update on every trainable parameter (in place)."""
    if t < 1:
        raise ValueError("t is a 1-based step counter")
    for name, p in store.params.items():
        if not p.trainable:
            continue
        if p.grad is None:
            raise MissingGradient(f"parameter {name!r} has no gradient")
        m = store._adam_m.get(name)
        if m is None:
            m = store._adam_m[name] = np.zeros_like(p.data)
        v = store._adam_v.get(name)
        if v is None:
            v = store._adam_v[name] = np.zeros_like(p.data)
        g = p.grad
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        p.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype, copy=False)
    return store


# ---------------------------------------------------------------------------
# .spw weight files: magic "SPW1", then per parameter
#   u16 LE name length | name bytes | u8 rank | u32 LE dims | f32 LE payload

_MAGIC = b"SPW1"


def save_weights(path, store: ParamStore) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name, p in store.params.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            arr = np.ascontiguousarray(p.data, dtype="<f4")
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_weights(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a weight file (bad magic)")
    view = memoryview(raw)
    state = {}
    pos = 4

    def field(size, what):
        nonlocal pos
        if len(raw) - pos < size:
            raise TruncatedFile(
                f"{path}: {what} at byte {pos} needs {size} bytes, but the file ends at byte {len(raw)}"
            )
        pos += size
        return view[pos - size : pos]

    while pos < len(raw):
        (nlen,) = struct.unpack("<H", field(2, f"name length of tensor {len(state)}"))
        name = bytes(field(nlen, f"name of tensor {len(state)}")).decode("utf-8")
        (rank,) = struct.unpack("<B", field(1, f"rank of tensor {name!r}"))
        dims = struct.unpack(f"<{rank}I", field(4 * rank, f"shape of tensor {name!r}"))
        count = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(field(4 * count, f"payload of tensor {name!r}"), dtype="<f4").reshape(dims)
        # ReLU maps NaN to 0, so a non-finite weight would give answers instead of an error
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name!r} holds a NaN or infinite value")
        state[name] = arr.copy()
    return state
