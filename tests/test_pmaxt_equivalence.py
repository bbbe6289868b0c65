"""The paper's headline correctness property: pmaxT ≡ mt.maxT.

"To be able to reproduce the same results as the serial version, the
permutations performed by each process need to be selected with caution"
(paper Section 3.2).  These tests verify bit-identical serial/parallel
results across every statistic, generator mode, storage mode, side and a
range of process counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mt_maxT, pmaxT
from repro.data import (
    block_labels,
    inject_missing,
    multiclass_labels,
    paired_labels,
    synthetic_blocked,
    synthetic_expression,
    synthetic_paired,
    two_class_labels,
)
from repro.mpi import SerialComm, run_spmd


def _parallel(X, labels, nprocs, **kwargs):
    def job(comm):
        return pmaxT(X, labels, comm=comm, **kwargs)

    results = run_spmd(job, nprocs)
    # only the master returns a result
    assert all(r is None for r in results[1:])
    return results[0]


def _assert_identical(serial, parallel, nprocs):
    assert parallel is not None
    assert parallel.nranks == nprocs
    assert parallel.nperm == serial.nperm
    np.testing.assert_array_equal(serial.teststat, parallel.teststat)
    np.testing.assert_array_equal(serial.rawp, parallel.rawp)
    np.testing.assert_array_equal(serial.adjp, parallel.adjp)
    np.testing.assert_array_equal(serial.order, parallel.order)


@pytest.fixture(scope="module")
def two_class():
    X, _ = synthetic_expression(60, 16, n_class1=8, de_fraction=0.1, seed=71)
    return X, two_class_labels(8, 8)


class TestProcessCounts:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5, 8])
    def test_welch_t(self, two_class, nprocs):
        X, labels = two_class
        serial = mt_maxT(X, labels, test="t", B=300, seed=17)
        parallel = _parallel(X, labels, nprocs, test="t", B=300, seed=17)
        _assert_identical(serial, parallel, nprocs)

    def test_more_ranks_than_permutations(self, two_class):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=5, seed=1)
        parallel = _parallel(X, labels, 8, B=5, seed=1)
        _assert_identical(serial, parallel, 8)


class TestAllStatistics:
    @pytest.mark.parametrize("test,data_fn", [
        ("t", lambda: (synthetic_expression(40, 12, n_class1=6, seed=1)[0],
                       two_class_labels(6, 6))),
        ("t.equalvar",
         lambda: (synthetic_expression(40, 12, n_class1=5, seed=2)[0],
                  two_class_labels(7, 5))),
        ("wilcoxon",
         lambda: (synthetic_expression(40, 12, n_class1=6, seed=3)[0],
                  two_class_labels(6, 6))),
        ("f", lambda: (synthetic_expression(40, 12, n_class1=4, seed=4)[0],
                       multiclass_labels([4, 4, 4]))),
        ("pairt", lambda: (synthetic_paired(40, 6, seed=5)[0],
                           paired_labels(6))),
        ("blockf", lambda: (synthetic_blocked(40, 4, 3, seed=6)[0],
                            block_labels(4, 3))),
    ])
    def test_statistic(self, test, data_fn):
        X, labels = data_fn()
        serial = mt_maxT(X, labels, test=test, B=150, seed=29)
        parallel = _parallel(X, labels, 3, test=test, B=150, seed=29)
        _assert_identical(serial, parallel, 3)


class TestGeneratorAndStorageModes:
    @pytest.mark.parametrize("fss", ["y", "n"])
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_sampling_modes(self, two_class, fss, nprocs):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=200, fixed_seed_sampling=fss, seed=31)
        parallel = _parallel(X, labels, nprocs, B=200,
                             fixed_seed_sampling=fss, seed=31)
        _assert_identical(serial, parallel, nprocs)

    @pytest.mark.parametrize("nprocs", [2, 3, 7])
    def test_complete_enumeration(self, nprocs):
        X, _ = synthetic_expression(20, 8, n_class1=4, seed=8)
        labels = two_class_labels(4, 4)
        serial = mt_maxT(X, labels, B=0)  # 70 complete permutations
        assert serial.complete
        parallel = _parallel(X, labels, nprocs, B=0)
        assert parallel.complete
        _assert_identical(serial, parallel, nprocs)

    def test_complete_pairt(self):
        X, _ = synthetic_paired(15, 6, seed=9)
        labels = paired_labels(6)
        serial = mt_maxT(X, labels, test="pairt", B=0)
        parallel = _parallel(X, labels, 4, test="pairt", B=0)
        _assert_identical(serial, parallel, 4)

    def test_complete_blockf(self):
        X, _ = synthetic_blocked(15, 3, 3, seed=10)
        labels = block_labels(3, 3)
        serial = mt_maxT(X, labels, test="blockf", B=0)  # 216 permutations
        parallel = _parallel(X, labels, 5, test="blockf", B=0)
        _assert_identical(serial, parallel, 5)


class TestSides:
    @pytest.mark.parametrize("side", ["abs", "upper", "lower"])
    def test_sides(self, two_class, side):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=200, side=side, seed=37)
        parallel = _parallel(X, labels, 3, B=200, side=side, seed=37)
        _assert_identical(serial, parallel, 3)


class TestEdgeData:
    def test_missing_values(self):
        X, _ = synthetic_expression(30, 12, n_class1=6, seed=11)
        X = inject_missing(X, 0.1, seed=12)
        labels = two_class_labels(6, 6)
        serial = mt_maxT(X, labels, B=150, seed=41)
        parallel = _parallel(X, labels, 4, B=150, seed=41)
        _assert_identical(serial, parallel, 4)

    def test_untestable_rows(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 10))
        X[4] = 3.0  # constant row
        labels = two_class_labels(5, 5)
        serial = mt_maxT(X, labels, B=100, seed=43)
        parallel = _parallel(X, labels, 3, B=100, seed=43)
        _assert_identical(serial, parallel, 3)

    def test_nonpara(self, two_class):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=150, nonpara="y", seed=47)
        parallel = _parallel(X, labels, 3, B=150, nonpara="y", seed=47)
        _assert_identical(serial, parallel, 3)

    def test_different_chunk_sizes_still_identical(self, two_class):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=200, seed=51, chunk_size=13)
        parallel = _parallel(X, labels, 3, B=200, seed=51, chunk_size=64)
        _assert_identical(serial, parallel, 3)

    def test_single_gene(self):
        X = np.random.default_rng(14).normal(size=(1, 12))
        labels = two_class_labels(6, 6)
        serial = mt_maxT(X, labels, B=100, seed=53)
        parallel = _parallel(X, labels, 2, B=100, seed=53)
        _assert_identical(serial, parallel, 2)
        # with one hypothesis, adjusted == raw
        np.testing.assert_array_equal(serial.rawp, serial.adjp)


class TestDriverBehaviour:
    def test_serialcomm_equals_default(self, two_class):
        X, labels = two_class
        a = pmaxT(X, labels, B=100, seed=3)
        b = pmaxT(X, labels, B=100, seed=3, comm=SerialComm())
        np.testing.assert_array_equal(a.rawp, b.rawp)

    def test_pmaxt_matches_mt_maxt_at_p1(self, two_class):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=100, seed=3)
        par = pmaxT(X, labels, B=100, seed=3)
        _assert_identical(serial, par, 1)

    def test_pmaxt_matches_mt_maxt_at_p1_float32(self, two_class):
        X, labels = two_class
        serial = mt_maxT(X, labels, B=400, seed=5, dtype="float32")
        par = pmaxT(X, labels, B=400, seed=5, dtype="float32")
        _assert_identical(serial, par, 1)

    def test_profile_populated(self, two_class):
        X, labels = two_class
        res = pmaxT(X, labels, B=100)
        assert res.profile is not None
        assert res.profile.main_kernel > 0
        assert res.profile.total() > 0

    def test_master_requires_data(self):
        from repro.errors import DataError

        with pytest.raises(DataError):
            pmaxT(None, None)

    def test_workers_receive_broadcast_data(self, two_class):
        """Workers pass X=None — the SPRINT master distributes the data."""
        X, labels = two_class
        serial = mt_maxT(X, labels, B=120, seed=61)

        def job(comm):
            if comm.is_master:
                return pmaxT(X, labels, B=120, seed=61, comm=comm)
            return pmaxT(None, None, B=120, seed=61, comm=comm)

        results = run_spmd(job, 3)
        _assert_identical(serial, results[0], 3)

    def test_permutation_accounting(self, two_class):
        """Sum of per-rank kernel permutations must equal B exactly."""
        X, labels = two_class
        counts = []

        def job(comm):
            res = pmaxT(X, labels, B=157, seed=5, comm=comm)
            from repro.core.partition import partition_permutations

            plan = partition_permutations(157, comm.size)
            counts.append(plan.chunk_for(comm.rank).count)
            return res

        run_spmd(job, 5)
        assert sum(counts) == 157
