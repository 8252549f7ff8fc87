import threading

import numpy as np
import pytest

from pointpipe.blas import openblas_threads, usable_cores


def pytest_report_header(config):
    """numpy's build, OpenBLAS's thread count and ordered_map's worker count, which the bitwise tests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    calls = openblas_threads()
    threads = calls[0]() if calls is not None else "not found"
    return [f"numpy {np.__version__}; BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no OpenBLAS configuration')}); OpenBLAS threads: {threads}; "
            f"ordered_map workers: {usable_cores()}"]


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail any test that ends with live threads it did not start with (ordered_map starts some)."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads still alive after the test: {leaked}")
