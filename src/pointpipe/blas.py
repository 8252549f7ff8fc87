"""numpy's OpenBLAS held at one thread per call while Python threads share the cores.

OpenBLAS spreads a GEMM over every core by default.  When two or more Python
threads run GEMMs at once (the two warps in flight of
``adaptation.adapt``, the workers of ``cli.parallel_map``), their BLAS
threads then compete for the same cores: on two cores the learned rows of
a ``reproduce`` nh table (a micro detector, 10 images at 240x320, nh 1, 10,
100) took 140 s, against 114 s for one sequential loop and 75 s with one
BLAS thread.  OpenBLAS
splits a GEMM's rows and columns over its threads, not its sums, and the
outputs were the same bytes either way on scipy-openblas 0.3.31.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading

import numpy as np


def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel, or None where it is not found."""
    wheel_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(wheel_libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_") and hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """While any caller is inside, numpy's OpenBLAS runs each call on one thread.

    The thread count is process-wide, so callers are counted: the first one
    in saves it and the last one out restores it.  Where the library is not
    found this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = False  # looked up on first use: (get, set) or None
        self._users = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._calls is False:
                self._calls = openblas_threads()
            if self._calls is not None and self._users == 0:
                get, set_ = self._calls
                self._saved = get()
                set_(1)
            self._users += 1

    def __exit__(self, *exc):
        with self._lock:
            self._users -= 1
            if self._calls is not None and self._users == 0:
                self._calls[1](self._saved)


ONE_BLAS_THREAD = _OneBlasThread()
