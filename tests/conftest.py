import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail any test that ends with live threads it did not start with (adapt and detect --threads start some)."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads still alive after the test: {leaked}")
