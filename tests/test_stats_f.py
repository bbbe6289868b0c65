"""Tests for the one-way ANOVA F statistic."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro.data import inject_missing, multiclass_labels, two_class_labels
from repro.errors import DataError
from repro.stats import FStat

from reference import f_row


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(55)
    X = rng.normal(size=(22, 15))
    return X, multiclass_labels([5, 5, 5])


class TestAgainstScipy:
    def test_matches_f_oneway(self, data):
        X, labels = data
        ours = FStat(X, labels).observed()
        for i in range(X.shape[0]):
            groups = [X[i, labels == j] for j in range(3)]
            ref = sps.f_oneway(*groups).statistic
            assert ours[i] == pytest.approx(ref, rel=1e-9), i

    def test_unbalanced_groups(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 12))
        labels = multiclass_labels([3, 4, 5])
        ours = FStat(X, labels).observed()
        for i in range(10):
            groups = [X[i, labels == j] for j in range(3)]
            ref = sps.f_oneway(*groups).statistic
            assert ours[i] == pytest.approx(ref, rel=1e-9), i

    def test_two_classes_equals_equalvar_t_squared(self):
        """With k=2, F == t^2 for the pooled-variance t."""
        from repro.stats import EqualVarT

        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 10))
        labels = two_class_labels(5, 5)
        F = FStat(X, labels).observed()
        t = EqualVarT(X, labels).observed()
        np.testing.assert_allclose(F, t**2, rtol=1e-9)

    def test_four_classes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 16))
        labels = multiclass_labels([4, 4, 4, 4])
        ours = FStat(X, labels).observed()
        for i in range(8):
            groups = [X[i, labels == j] for j in range(4)]
            ref = sps.f_oneway(*groups).statistic
            assert ours[i] == pytest.approx(ref, rel=1e-9), i


class TestMissing:
    def test_nan_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        X = inject_missing(rng.normal(size=(20, 12)), 0.12, seed=5)
        labels = multiclass_labels([4, 4, 4])
        ours = FStat(X, labels).observed()
        for i in range(20):
            ref = f_row(X[i], labels)
            if np.isnan(ref):
                assert np.isnan(ours[i]), i
            else:
                assert ours[i] == pytest.approx(ref, rel=1e-9), i

    def test_emptied_class_is_nan(self):
        X = np.arange(9, dtype=float)[None, :].copy()
        X[0, 0:3] = np.nan  # class 0 has no valid samples
        labels = multiclass_labels([3, 3, 3])
        assert np.isnan(FStat(X, labels).observed()[0])


class TestDegenerate:
    def test_constant_row_nan(self):
        X = np.full((1, 9), 2.0)
        labels = multiclass_labels([3, 3, 3])
        assert np.isnan(FStat(X, labels).observed()[0])

    def test_f_nonnegative(self, data):
        X, labels = data
        stat = FStat(X, labels)
        rng = np.random.default_rng(6)
        perms = np.stack([rng.permutation(labels) for _ in range(8)])
        values = stat.batch(perms)
        assert (values[np.isfinite(values)] >= 0).all()

    def test_rejects_single_class(self):
        with pytest.raises(DataError):
            FStat(np.zeros((2, 4)), np.zeros(4, dtype=int))

    def test_rejects_sparse_labels(self):
        with pytest.raises(DataError):
            FStat(np.zeros((2, 4)), np.array([0, 0, 3, 3]))


class TestBatch:
    def test_batch_matches_loop(self, data):
        X, labels = data
        stat = FStat(X, labels)
        rng = np.random.default_rng(9)
        perms = np.stack([rng.permutation(labels) for _ in range(6)])
        batch = stat.batch(perms)
        for j in range(6):
            np.testing.assert_allclose(batch[:, j], stat.batch(perms[j])[:, 0],
                                       rtol=1e-12)

    def test_permutation_of_constant_labels_irrelevant(self, data):
        """F is invariant to which label value names which group."""
        X, labels = data
        relabelled = (labels + 1) % 3  # bijective rename of group ids
        a = FStat(X, labels).observed()
        b = FStat(X, relabelled).observed()
        np.testing.assert_allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("batch_classes", [[0, 1], [0, 1, 2]],
                             ids=["all-lack-class-2", "one-lacks-class-2"])
    def test_empty_class_in_a_batch(self, data, batch_classes):
        """Class counts broadcast as a (1, 1) scalar when every encoding
        has the same class sizes, as a (1, nb) row otherwise: an encoding
        with an empty class scores NaN either way, and every column matches
        its one-encoding batch."""
        X, labels = data
        stat = FStat(X, labels)
        rng = np.random.default_rng(3)
        perms = np.stack([rng.permutation(labels) for _ in range(4)])
        perms[:2] = np.where(perms[:2] == 2, 1, perms[:2])
        if batch_classes == [0, 1]:
            perms = perms[:2]
        batch = stat.batch(perms)
        for j, enc in enumerate(perms):
            lacks = not (enc == 2).any()
            assert np.isnan(batch[:, j]).all() == lacks
            np.testing.assert_allclose(batch[:, j], stat.batch(enc)[:, 0],
                                       rtol=1e-12)
