"""Tests for the Welch and pooled-variance t statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as sps

from repro.data import inject_missing, two_class_labels
from repro.errors import DataError
from repro.stats import MT_NA_NUM, EqualVarT, WelchT

from reference import equalvar_t_row, welch_t_row


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(25, 14))
    return X, two_class_labels(7, 7)


class TestWelchAgainstScipy:
    def test_observed_matches_ttest_ind(self, data):
        X, labels = data
        stat = WelchT(X, labels)
        ours = stat.observed()
        ref = sps.ttest_ind(X[:, labels == 1], X[:, labels == 0], axis=1,
                            equal_var=False).statistic
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_permuted_matches_scipy(self, data):
        X, labels = data
        stat = WelchT(X, labels)
        rng = np.random.default_rng(5)
        for _ in range(5):
            perm = rng.permutation(labels)
            ours = stat.batch(perm)[:, 0]
            ref = sps.ttest_ind(X[:, perm == 1], X[:, perm == 0], axis=1,
                                equal_var=False).statistic
            np.testing.assert_allclose(ours, ref, rtol=1e-10)


class TestEqualVarAgainstScipy:
    def test_observed_matches_ttest_ind(self, data):
        X, labels = data
        stat = EqualVarT(X, labels)
        ref = sps.ttest_ind(X[:, labels == 1], X[:, labels == 0], axis=1,
                            equal_var=True).statistic
        np.testing.assert_allclose(stat.observed(), ref, rtol=1e-10)

    def test_unbalanced_classes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 13))
        labels = two_class_labels(9, 4)
        stat = EqualVarT(X, labels)
        ref = sps.ttest_ind(X[:, labels == 1], X[:, labels == 0], axis=1,
                            equal_var=True).statistic
        np.testing.assert_allclose(stat.observed(), ref, rtol=1e-10)


class TestMissingValues:
    @pytest.mark.parametrize("na", [False, True], ids=["clean", "na"])
    @pytest.mark.parametrize("cls,ref_fn", [(WelchT, welch_t_row),
                                            (EqualVarT, equalvar_t_row)])
    def test_nan_matches_bruteforce(self, cls, ref_fn, na):
        """Observed and permuted statistics equal the loop reference
        within 1e-12 max(|t|, 1), NaN where it is NaN: a constant row,
        and with missing cells a class left with one valid sample and one
        left with none.  Clean data scores through scalar class counts,
        missing cells through per-row counts."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 12))
        if na:
            X = inject_missing(X, 0.15, seed=10)
            X[4, 7:] = np.nan                # class 1 keeps one sample
            X[5, :6] = np.nan                # class 0 keeps none
        X[3] = 2.5                           # constant row
        labels = two_class_labels(6, 6)
        stat = cls(X, labels)
        perms = np.stack([rng.permutation(labels) for _ in range(6)])
        cases = [(labels, stat.observed())]
        cases += list(zip(perms, stat.batch(perms).T))
        for enc, ours in cases:
            ref = np.array([ref_fn(row, enc) for row in X])
            np.testing.assert_array_equal(np.isnan(ours), np.isnan(ref))
            ok = ~np.isnan(ref)
            err = np.abs(ours[ok] - ref[ok])
            assert (err <= 1e-12 * np.maximum(np.abs(ref[ok]), 1.0)).all()
        assert np.isnan(cases[0][1][3])
        if na:
            assert np.isnan(cases[0][1][[4, 5]]).all()

    def test_na_code_equivalent_to_nan(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(15, 10))
        labels = two_class_labels(5, 5)
        X_nan = inject_missing(X, 0.2, seed=12)
        X_code = np.where(np.isnan(X_nan), MT_NA_NUM, X_nan)
        a = WelchT(X_nan, labels).observed()
        b = WelchT(X_code, labels, na=MT_NA_NUM).observed()
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        np.testing.assert_allclose(a[~np.isnan(a)], b[~np.isnan(b)])

    def test_custom_na_code(self):
        X = np.array([[1.0, 2.0, -999.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
        labels = two_class_labels(4, 4)
        stat = WelchT(X, labels, na=-999.0)
        ref = welch_t_row([1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0, 8.0], labels)
        assert stat.observed()[0] == pytest.approx(ref, rel=1e-10)

    def test_class_emptied_by_nan_is_nan(self):
        X = np.ones((1, 8)) * np.arange(8)
        X[0, 4:] = np.nan  # all of class 1 missing
        stat = WelchT(X, two_class_labels(4, 4))
        assert np.isnan(stat.observed()[0])


class TestDegenerateRows:
    def test_constant_row_is_nan(self):
        X = np.vstack([np.ones(10), np.arange(10, dtype=float)])
        stat = WelchT(X, two_class_labels(5, 5))
        out = stat.observed()
        assert np.isnan(out[0]) and np.isfinite(out[1])

    def test_single_sample_class_is_nan(self):
        X = np.random.default_rng(1).normal(size=(3, 5))
        # valid labels need >= 2 per class for t; emulate via NaN
        X[:, 4] = np.nan
        labels = two_class_labels(3, 2)
        stat = WelchT(X, labels)
        assert np.isnan(stat.observed()).all()

    def test_equalvar_pooled_zero_variance_nan(self):
        X = np.array([[5.0, 5.0, 5.0, 7.0, 7.0, 7.0]])
        stat = EqualVarT(X, two_class_labels(3, 3))
        assert np.isnan(stat.observed()[0])


class TestBatchSemantics:
    def test_batch_columns_match_single_calls(self, data):
        X, labels = data
        stat = WelchT(X, labels)
        rng = np.random.default_rng(21)
        perms = np.stack([rng.permutation(labels) for _ in range(6)])
        together = stat.batch(perms)
        for j in range(6):
            alone = stat.batch(perms[j])[:, 0]
            np.testing.assert_allclose(together[:, j], alone, rtol=1e-12)

    def test_batch_validates_width(self, data):
        X, labels = data
        stat = WelchT(X, labels)
        with pytest.raises(DataError):
            stat.batch(np.zeros((2, 5), dtype=int))

    def test_empty_batch(self, data):
        X, labels = data
        stat = WelchT(X, labels)
        assert stat.batch(np.zeros((0, 14), dtype=int)).shape == (25, 0)


class TestDesignValidation:
    def test_rejects_three_classes(self):
        X = np.zeros((2, 6))
        with pytest.raises(DataError):
            WelchT(X, np.array([0, 0, 1, 1, 2, 2]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            WelchT(np.zeros((2, 6)), two_class_labels(3, 4))

    def test_rejects_1d_matrix(self):
        with pytest.raises(DataError):
            WelchT(np.zeros(6), two_class_labels(3, 3))

    def test_rejects_empty_matrix(self):
        with pytest.raises(DataError):
            WelchT(np.zeros((0, 6)), two_class_labels(3, 3))

    def test_rejects_bad_nonpara(self):
        with pytest.raises(DataError):
            WelchT(np.zeros((2, 6)), two_class_labels(3, 3), nonpara="x")


class TestSymmetryProperties:
    @given(arrays(np.float64, (4, 8),
                  elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_swapping_classes_negates_t(self, X):
        labels = two_class_labels(4, 4)
        flipped = 1 - labels
        a = WelchT(X, labels).observed()
        b = WelchT(X, flipped).observed()
        mask = np.isfinite(a) & np.isfinite(b)
        np.testing.assert_allclose(a[mask], -b[mask], rtol=1e-8, atol=1e-10)

    @given(st.floats(0.1, 50, allow_nan=False), st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 10))
        labels = two_class_labels(5, 5)
        a = WelchT(X, labels).observed()
        b = WelchT(X * scale + shift, labels).observed()
        np.testing.assert_allclose(a, b, rtol=1e-7)
