"""Measured scaling-shape tests of the real implementation.

The paper's discussion hinges on two linearities (Section 4.4, Table VI):
run time linear in the permutation count and linear in the dataset size.
These tests confirm the *real* Python kernel exhibits both on this machine
(coarse bounds).  They time this process's CPU, with BLAS on one thread,
so load from other processes on a shared box cannot stretch a measurement.
"""

from __future__ import annotations

import time

import pytest

from repro import mt_maxT
from repro.data import synthetic_expression, two_class_labels
from repro.mpi.blasctl import blas_thread_limit


def _best_time(fn, repeats=3):
    """Best CPU seconds of ``fn`` over ``repeats`` runs, BLAS on one thread."""
    best = float("inf")
    with blas_thread_limit(1):
        for _ in range(repeats):
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
    return best


@pytest.fixture(scope="module")
def labels():
    return two_class_labels(10, 10)


class TestLinearity:
    def test_linear_in_permutation_count(self, labels):
        """4x the permutations should cost ~4x, certainly 2.2x-8x."""
        X, _ = synthetic_expression(300, 20, n_class1=10, seed=801)
        t1 = _best_time(lambda: mt_maxT(X, labels, B=800, seed=1))
        t4 = _best_time(lambda: mt_maxT(X, labels, B=3_200, seed=1))
        ratio = t4 / t1
        assert 2.2 < ratio < 8.0, ratio

    def test_roughly_linear_in_rows(self, labels):
        """4x the genes should cost <~8x (BLAS may sublinearise it)."""
        Xs, _ = synthetic_expression(250, 20, n_class1=10, seed=802)
        Xl, _ = synthetic_expression(1_000, 20, n_class1=10, seed=803)
        ts = _best_time(lambda: mt_maxT(Xs, labels, B=600, seed=1))
        tl = _best_time(lambda: mt_maxT(Xl, labels, B=600, seed=1))
        ratio = tl / ts
        assert 1.5 < ratio < 10.0, ratio

    def test_throughput_reported(self, labels):
        """Sanity floor: the vectorized kernel must beat 1k perms/s on a
        300-gene matrix (the pure-Python version would be ~100x slower)."""
        X, _ = synthetic_expression(300, 20, n_class1=10, seed=804)
        B = 2_000
        elapsed = _best_time(lambda: mt_maxT(X, labels, B=B, seed=1),
                             repeats=2)
        assert B / elapsed > 1_000, f"{B / elapsed:.0f} perms/s"
