import os
import threading
import time

import numpy as np
import pytest

from pointpipe import blas


@pytest.fixture
def workers(monkeypatch):
    """Pin ordered_map's worker count: set(n)."""
    return lambda n: monkeypatch.setattr(blas, "usable_cores", lambda: n)


class TestOrderedMap:
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_yields_in_item_order(self, workers, n, count):
        workers(n)

        def square(x):
            time.sleep(0.001 * (n - x % n))  # later items of a block finish first
            return x * x

        assert list(blas.ordered_map(square, range(count))) == [x * x for x in range(count)]

    @pytest.mark.parametrize("n, count", [(1, 4), (3, 1)])
    def test_one_worker_or_one_item_runs_inline(self, workers, monkeypatch, n, count):
        workers(n)
        monkeypatch.setattr(blas.ONE_BLAS_THREAD, "_calls", (lambda: pytest.fail("OpenBLAS was pinned"), None))
        caller, before = threading.get_ident(), threading.active_count()
        seen = list(blas.ordered_map(lambda x: (threading.get_ident(), threading.active_count()), range(count)))
        assert seen == [(caller, before)] * count

    def test_caller_computes_the_first_item_of_each_block(self, workers):
        workers(3)
        caller = threading.get_ident()
        idents = list(blas.ordered_map(lambda x: time.sleep(0.005) or threading.get_ident(), range(7)))
        assert [i for i, ident in enumerate(idents) if ident == caller] == [0, 3, 6]
        assert len(set(idents[0:3])) == 3 and len(set(idents[3:6])) == 3

    # item 4 is a helper's at 3 workers (blocks 0-2, 3-5, 6-8) and the caller's at 4 (blocks 0-3, 4-7, 8)
    @pytest.mark.parametrize("where, n", [("helper", 3), ("caller", 4), ("consumer", 3)])
    def test_error_reraised_after_every_helper_finished(self, workers, where, n):
        workers(n)
        caller, before = threading.get_ident(), threading.active_count()

        def fn(x):
            if x == 4 and where != "consumer":
                raise RuntimeError("failed on the " + ("caller" if threading.get_ident() == caller else "helper"))
            time.sleep(0.01)
            return x

        with pytest.raises(RuntimeError, match=f"failed on the {where}"):
            for x in blas.ordered_map(fn, range(9)):
                if x == 4:
                    raise RuntimeError("failed on the consumer")
        assert threading.active_count() == before

    def test_helpers_run_in_the_callers_errstate(self, workers):
        workers(3)
        with np.errstate(divide="raise"):
            modes = list(blas.ordered_map(lambda x: time.sleep(0.005) or (threading.get_ident(), np.geterr()["divide"]),
                                          range(6)))
        assert len({ident for ident, _ in modes}) > 1
        assert [mode for _, mode in modes] == ["raise"] * 6


def test_usable_cores_is_the_affinity_mask():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert blas.usable_cores() == want
