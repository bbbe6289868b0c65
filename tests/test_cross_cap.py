"""Answers do not depend on the BLAS thread count.

Every world caps its ranks' BLAS pools (``max(1, cores // ranks)`` by
default, see :mod:`repro.mpi.blasctl`), so the same analysis runs under
different caps on different paths: an uncapped serial call, a capped
in-process world, a capped persistent master.  These tests pin that the
cap never changes a bit:

* (a) the observed statistics of all six tests, at the paper's shapes;
* (b) ``pmaxT`` at a BLAS cap of one and of several threads on every
  backend;
* (c) ``pcor`` on a capped 2-rank world against an uncapped serial one;
* (d) a result-cache entry written uncapped, extended by a capped session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import pmaxT
from repro.corr import cor, pcor
from repro.data import (
    block_labels,
    inject_missing,
    multiclass_labels,
    paired_labels,
    synthetic_expression,
    two_class_labels,
)
from repro.mpi import open_session
from repro.mpi.blasctl import (
    blas_available,
    blas_thread_limit,
    effective_cpu_count,
    rank_cap,
)
from repro.stats import available_tests, make_statistic

pytestmark = pytest.mark.skipif(not blas_available(),
                                reason="no controllable BLAS in this build")

#: A threaded pool even on a 1-CPU host, so the threaded split runs.
WIDE = max(2, effective_cpu_count())


def _design(test: str, n: int):
    """Labels of ``test``'s design over ``n`` samples (``n % 4 == 0``)."""
    if test in ("t", "t.equalvar", "wilcoxon"):
        return two_class_labels(n // 2, n // 2)
    if test == "f":
        third = n // 3
        return multiclass_labels([n - 2 * third, third, third])
    if test == "pairt":
        return paired_labels(n // 2)
    return block_labels(n // 4, 4)


def _same_bits(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _same(a, b):
    _same_bits(a.teststat, b.teststat)
    _same_bits(a.rawp, b.rawp)
    _same_bits(a.adjp, b.adjp)
    assert np.array_equal(a.order, b.order)


@pytest.fixture(scope="module", params=[6102, 36612])
def paper_matrix(request):
    X, _ = synthetic_expression(request.param, 76, n_class1=38,
                                de_fraction=0.1, seed=request.param)
    return X


@pytest.mark.parametrize("test", available_tests())
def test_observed_is_cap_invariant(paper_matrix, test):
    """(a) One and many BLAS threads score the observed labelling alike."""
    stat = make_statistic(test, paper_matrix, _design(test, 76))
    with blas_thread_limit(1):
        capped = stat.observed()
    with blas_thread_limit(WIDE):
        wide = stat.observed()
    _same_bits(capped, wide)


@pytest.fixture(scope="module")
def small_matrix():
    X, _ = synthetic_expression(2000, 24, n_class1=12, de_fraction=0.1,
                                seed=8)
    return X


def _across_caps(X, labels, backend, ranks, monkeypatch, **kwargs):
    """``pmaxT`` at two caps: in-process worlds under an outer lease of 1
    and of ``WIDE`` threads, forked worlds at the default cap and lowered
    to 1 by ``OPENBLAS_NUM_THREADS`` (only when the default cap is above
    1, as lowering it to 1 would otherwise rerun the same world)."""
    def run():
        return pmaxT(X, labels, B=60, seed=3, backend=backend, ranks=ranks,
                     **kwargs)

    if backend in ("serial", "threads"):
        runs = []
        for cap in (1, WIDE):
            with blas_thread_limit(cap):
                runs.append(run())
    else:
        runs = [run()]
        if rank_cap(ranks) == 1:
            return runs[0]
        with monkeypatch.context() as env:
            env.setenv("OPENBLAS_NUM_THREADS", "1")
            runs.append(run())
    _same(runs[0], runs[1])
    return runs[0]


@pytest.mark.parametrize("na", [False, True], ids=["clean", "na"])
@pytest.mark.parametrize("side", ["abs", "upper", "lower"])
@pytest.mark.parametrize("test", available_tests())
def test_pmaxt_is_cap_invariant_in_process(small_matrix, monkeypatch, test,
                                           side, na):
    """(b) Full statistic x side x NA product on the in-process worlds."""
    X = inject_missing(small_matrix, 0.05, seed=9) if na else small_matrix
    labels = _design(test, X.shape[1])
    serial = _across_caps(X, labels, "serial", 1, monkeypatch, test=test,
                          side=side)
    threads = _across_caps(X, labels, "threads", 2, monkeypatch, test=test,
                           side=side)
    _same(serial, threads)


@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("test", ["t", "f"])
def test_pmaxt_is_cap_invariant_in_forked_worlds(small_matrix, monkeypatch,
                                                  test, ranks):
    """(b) Reduced set on the forked worlds: ``side="abs"``, with NA, each
    against serial ``pmaxT``.  A 1-rank world's default cap is every core,
    so its cap-lowering comparison runs on any multi-core host; a 2-rank
    world's needs 4+ cores."""
    X = inject_missing(small_matrix, 0.05, seed=9)
    labels = _design(test, X.shape[1])
    forked = _across_caps(X, labels, "shm", ranks, monkeypatch, test=test)
    with blas_thread_limit(WIDE):
        _same(forked, pmaxT(X, labels, B=60, seed=3, test=test))


def test_pcor_capped_world_matches_uncapped_serial():
    """(c) pcor on a (default-capped) 2-rank in-process world."""
    X, _ = synthetic_expression(3000, 76, n_class1=38, seed=12)
    with blas_thread_limit(WIDE):
        serial = cor(X)
    _same_bits(pcor(X, backend="threads", ranks=2), serial)


def test_uncapped_cache_entry_extends_through_capped_session(tmp_path):
    """(d) A serial entry extends to 2B on a 2-rank ``shm`` session."""
    X, _ = synthetic_expression(6102, 76, n_class1=38, de_fraction=0.1,
                                seed=6102)
    labels = two_class_labels(38, 38)
    cache_dir = str(tmp_path / "cache")
    with blas_thread_limit(WIDE):
        pmaxT(X, labels, B=50, seed=4, cache_dir=cache_dir)
        cold = pmaxT(X, labels, B=100, seed=4)
    with open_session("shm", 2, cache_dir=cache_dir) as session:
        extended = pmaxT(X, labels, B=100, seed=4, session=session)
        assert session.cache.extensions == 1
    _same(extended, cold)
