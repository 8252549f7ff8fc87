"""The program's thread policy: one ordered map over the usable cores, numpy's OpenBLAS at one thread meanwhile.

When several Python threads run GEMMs at once, OpenBLAS's own threads (one
per core by default) compete for the same cores.  Its outputs were the same
bytes at any thread count on scipy-openblas 0.3.31, which splits a GEMM's
rows and columns over its threads, not its sums.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

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


def usable_cores() -> int:
    """The number of cores this process may run on: its affinity mask (``taskset``) where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, items):
    """Yield fn(x) for each x of a sequence in item order, computing blocks of ``usable_cores()`` items at a time.

    The caller computes the first item of a block while helper threads compute
    the rest, each in a copy of the caller's context (so ``np.errstate`` holds
    there); one core or one item runs inline.  An error from ``fn``, or from a
    ``for`` loop over the call itself, propagates once every helper has finished.
    """
    workers = usable_cores()
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers - 1) as helpers:
        for start in range(0, len(items), workers):
            block = items[start : start + workers]
            rest = [helpers.submit(contextvars.copy_context().run, fn, x) for x in block[1:]]
            yield fn(block[0])
            for future in rest:
                yield future.result()
