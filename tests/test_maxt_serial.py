"""Serial mt_maxT against the brute-force reference, plus exactness checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro import mt_maxT
from repro.core.options import build_generator, build_statistic, validate_options
from repro.data import (
    block_labels,
    multiclass_labels,
    paired_labels,
    two_class_labels,
)

from reference import naive_maxt


def _explicit_stat_rows(X, labels, test, B, seed=3455660, **opts):
    """All per-permutation statistics, evaluated one at a time."""
    options = validate_options(labels, test=test, B=B, seed=seed, **opts)
    stat = build_statistic(options, X, labels)
    gen = build_generator(options, labels)
    rows = []
    for enc in gen.take():
        rows.append(stat.batch(enc)[:, 0])
    return np.array(rows), options


@pytest.mark.parametrize("test,labels_fn,ncols", [
    ("t", lambda: two_class_labels(5, 5), 10),
    ("t.equalvar", lambda: two_class_labels(4, 6), 10),
    ("wilcoxon", lambda: two_class_labels(5, 5), 10),
    ("f", lambda: multiclass_labels([3, 3, 3]), 9),
    ("pairt", lambda: paired_labels(5), 10),
    ("blockf", lambda: block_labels(3, 3), 9),
])
@pytest.mark.parametrize("side", ["abs", "upper", "lower"])
def test_matches_naive_reference(test, labels_fn, ncols, side):
    rng = np.random.default_rng(hash((test, side)) % 2**32)
    X = rng.normal(size=(12, ncols))
    labels = labels_fn()
    B = 80
    stat_rows, options = _explicit_stat_rows(X, labels, test, B)
    rawp_ref, adjp_ref = naive_maxt(stat_rows, side)

    res = mt_maxT(X, labels, test=test, side=side, B=B)
    assert res.nperm == options.nperm
    np.testing.assert_allclose(res.rawp, rawp_ref, atol=1e-12)
    np.testing.assert_allclose(res.adjp, adjp_ref, atol=1e-12)


@given(test=st.sampled_from(["t", "t.equalvar"]),
       chunk=st.sampled_from([1, 13, 64, 256, 300]),
       B=st.integers(2, 700),
       side=st.sampled_from(["abs", "upper", "lower"]),
       seed=st.integers(0, 2**31 - 1))
@example(test="t", chunk=256, B=513, side="abs", seed=1)
@example(test="t.equalvar", chunk=300, B=302, side="upper", seed=2)
@settings(max_examples=15, deadline=None)
def test_chunk_width_matches_naive_reference(test, chunk, B, side, seed):
    """Any batch width, with ``B`` crossing batch boundaries, gives the
    p-values of the naive maxT over one-at-a-time statistics."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(10, 12))
    X[rng.random(X.shape) < 0.05] = np.nan
    labels = two_class_labels(6, 6)
    stat_rows, _ = _explicit_stat_rows(X, labels, test, B, seed=seed)
    rawp_ref, adjp_ref = naive_maxt(stat_rows, side)
    res = mt_maxT(X, labels, test=test, side=side, B=B, seed=seed,
                  chunk_size=chunk)
    np.testing.assert_allclose(res.rawp, rawp_ref, atol=1e-12)
    np.testing.assert_allclose(res.adjp, adjp_ref, atol=1e-12)


class TestExactCompletePvalues:
    def test_pairt_complete_matches_exact_sign_test(self):
        """With complete enumeration the raw p-value is the exact
        randomization p-value, computable independently."""
        rng = np.random.default_rng(42)
        X = rng.normal(size=(6, 12)) + 0.8  # 6 pairs, shifted
        labels = paired_labels(6)
        res = mt_maxT(X, labels, test="pairt", B=0, side="abs")
        assert res.complete and res.nperm == 64

        # independent exact computation per row
        from itertools import product

        D = X[:, 1::2] - X[:, 0::2]
        for i in range(6):
            t_obs = sps.ttest_rel(X[i, 1::2], X[i, 0::2]).statistic
            count = 0
            for signs in product([1, -1], repeat=6):
                d = D[i] * np.array(signs)
                t = d.mean() / (d.std(ddof=1) / np.sqrt(6))
                if abs(t) >= abs(t_obs) - 1e-12:
                    count += 1
            assert res.rawp[i] == pytest.approx(count / 64, abs=1e-9), i

    def test_two_sample_complete_exact(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(4, 8))
        labels = two_class_labels(4, 4)
        res = mt_maxT(X, labels, test="t", B=0)
        assert res.complete and res.nperm == 70
        # exact check via explicit enumeration
        from itertools import combinations

        for i in range(4):
            t_obs = sps.ttest_ind(X[i, 4:], X[i, :4], equal_var=False).statistic
            count = 0
            for chosen in combinations(range(8), 4):
                mask = np.zeros(8, dtype=bool)
                mask[list(chosen)] = True
                t = sps.ttest_ind(X[i, mask], X[i, ~mask],
                                  equal_var=False).statistic
                if abs(t) >= abs(t_obs) - 1e-12:
                    count += 1
            assert res.rawp[i] == pytest.approx(count / 70, abs=1e-9), i

    def test_complete_invariant_to_seed(self):
        X = np.random.default_rng(44).normal(size=(5, 8))
        labels = two_class_labels(4, 4)
        a = mt_maxT(X, labels, B=0, seed=1)
        b = mt_maxT(X, labels, B=0, seed=999)
        np.testing.assert_array_equal(a.rawp, b.rawp)
        np.testing.assert_array_equal(a.adjp, b.adjp)


class TestResultInvariants:
    def test_adjp_at_least_rawp(self, medium_two_class):
        X, labels, _ = medium_two_class
        res = mt_maxT(X, labels, B=300)
        ok = ~np.isnan(res.rawp)
        assert (res.adjp[ok] >= res.rawp[ok] - 1e-12).all()

    def test_pvalues_in_unit_interval(self, medium_two_class):
        X, labels, _ = medium_two_class
        res = mt_maxT(X, labels, B=300)
        ok = ~np.isnan(res.rawp)
        assert ((res.rawp[ok] >= 1 / 300) & (res.rawp[ok] <= 1)).all()
        assert ((res.adjp[ok] >= 1 / 300) & (res.adjp[ok] <= 1)).all()

    def test_monotone_along_ordering(self, medium_two_class):
        X, labels, _ = medium_two_class
        res = mt_maxT(X, labels, B=300)
        adjp_ordered = res.adjp[res.order]
        ok = ~np.isnan(adjp_ordered)
        assert (np.diff(adjp_ordered[ok]) >= -1e-12).all()

    def test_de_genes_rank_high(self, medium_two_class):
        """Planted DE genes should dominate the top of the ordering."""
        X, labels, truth = medium_two_class
        res = mt_maxT(X, labels, B=500)
        top = set(res.order[:truth.n_de].tolist())
        overlap = len(top & set(truth.de_genes.tolist()))
        assert overlap >= truth.n_de * 0.6

    def test_stored_equals_fly_same_seed_counts(self, small_two_class):
        """Stored mode replays the stream generator; on-the-fly uses the
        counter generator — different sequences, but identical statistics
        (same null distribution, same B, same seed discipline)."""
        X, labels, _ = small_two_class
        a = mt_maxT(X, labels, B=200, fixed_seed_sampling="y", seed=7)
        b = mt_maxT(X, labels, B=200, fixed_seed_sampling="n", seed=7)
        assert a.nperm == b.nperm == 200
        # teststat identical (it's the data), p-values statistically close
        np.testing.assert_array_equal(a.teststat, b.teststat)
        assert np.nanmax(np.abs(a.rawp - b.rawp)) < 0.2

    def test_row_names_carried(self, small_two_class):
        X, labels, _ = small_two_class
        names = [f"g{i}" for i in range(X.shape[0])]
        res = mt_maxT(X, labels, B=50, row_names=names)
        assert "g0" in res.table() or "g" in res.table()

    def test_nan_rows_reported_nan(self):
        rng = np.random.default_rng(45)
        X = rng.normal(size=(5, 8))
        X[2] = 7.0  # constant row -> untestable
        res = mt_maxT(X, two_class_labels(4, 4), B=100)
        assert np.isnan(res.rawp[2]) and np.isnan(res.adjp[2])
        assert np.isnan(res.teststat[2])
        assert not np.isnan(res.rawp[[0, 1, 3, 4]]).any()

    def test_missing_values_run_end_to_end(self, missing_two_class):
        X, labels = missing_two_class
        res = mt_maxT(X, labels, B=150)
        assert res.m == X.shape[0]
        ok = ~np.isnan(res.rawp)
        assert ok.sum() > 0
        assert ((res.rawp[ok] > 0) & (res.rawp[ok] <= 1)).all()

    def test_upper_lower_sides_relate(self, small_two_class):
        """upper on X and lower on -X give identical p-values."""
        X, labels, _ = small_two_class
        up = mt_maxT(X, labels, B=200, side="upper", seed=3)
        lo = mt_maxT(-X, labels, B=200, side="lower", seed=3)
        np.testing.assert_allclose(up.teststat, -lo.teststat, rtol=1e-10)
        np.testing.assert_array_equal(up.rawp, lo.rawp)
        np.testing.assert_array_equal(up.adjp, lo.adjp)

    def test_significant_helper(self, medium_two_class):
        X, labels, _ = medium_two_class
        res = mt_maxT(X, labels, B=400)
        sig = res.significant(0.05)
        assert all(res.adjp[i] < 0.05 for i in sig)
        # returned in significance order
        assert list(sig) == [i for i in res.order if res.adjp[i] < 0.05
                             and not np.isnan(res.adjp[i])]
