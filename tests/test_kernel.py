"""Tests for the pmaxT computational kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import KernelCounts, compute_observed, run_kernel
from repro.core.options import build_generator, build_statistic, validate_options
from repro.data import two_class_labels
from repro.errors import PermutationError
from repro.stats.base import row_block

#: Rows per kernel block at a 64-permutation batch (the unit the
#: per-unit spans below use).
BLOCK = row_block(10**6, 64)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(200)
    X = rng.normal(size=(30, 12))
    labels = two_class_labels(6, 6)
    options = validate_options(labels, test="t", B=200, seed=5)
    stat = build_statistic(options, X, labels)
    gen = build_generator(options, labels)
    observed = compute_observed(stat, options.side)
    return options, stat, gen, observed


class TestKernelCounts:
    def test_zeros(self):
        c = KernelCounts.zeros(4)
        assert c.nperm == 0
        assert c.raw.sum() == 0 and c.adjusted.sum() == 0

    def test_iadd(self):
        a = KernelCounts.zeros(2)
        b = KernelCounts(raw=np.array([1, 2]), adjusted=np.array([3, 4]),
                         nperm=5)
        a += b
        assert a.nperm == 5
        np.testing.assert_array_equal(a.raw, [1, 2])

    def test_merged(self):
        a = KernelCounts(raw=np.array([1, 0]), adjusted=np.array([0, 1]),
                         nperm=1)
        b = KernelCounts(raw=np.array([2, 2]), adjusted=np.array([2, 2]),
                         nperm=2)
        merged = a.merged([b])
        assert merged.nperm == 3
        np.testing.assert_array_equal(merged.raw, [3, 2])
        # inputs untouched
        assert a.nperm == 1


class TestObserved:
    def test_observed_scores_and_order(self, problem):
        _, stat, _, observed = problem
        assert observed.m == 30
        # ordered scores are non-increasing
        assert (np.diff(observed.scores_ordered) <= 0).all()
        # the ordering is a permutation
        assert sorted(observed.order.tolist()) == list(range(30))

    def test_untestable_detection(self):
        X = np.vstack([np.ones(8), np.random.default_rng(1).normal(size=8)])
        labels = two_class_labels(4, 4)
        options = validate_options(labels, test="t", B=50)
        stat = build_statistic(options, X, labels)
        observed = compute_observed(stat, "abs")
        assert observed.untestable[0] and not observed.untestable[1]


class TestRunKernel:
    def test_full_run_counts_bounded(self, problem):
        options, stat, gen, observed = problem
        counts = run_kernel(stat, gen, observed, "abs", 0, options.nperm)
        assert counts.nperm == options.nperm
        assert (counts.raw >= 1).all() and (counts.raw <= options.nperm).all()
        assert (counts.adjusted >= 1).all()
        assert (counts.adjusted <= options.nperm).all()

    def test_chunks_sum_to_serial(self, problem):
        """The reduction property the parallel gather relies on."""
        options, stat, gen, observed = problem
        whole = run_kernel(stat, gen, observed, "abs", 0, options.nperm)
        partial = KernelCounts.zeros(observed.m)
        for start, count in [(0, 70), (70, 70), (140, 60)]:
            partial += run_kernel(stat, gen, observed, "abs", start, count)
        np.testing.assert_array_equal(whole.raw, partial.raw)
        np.testing.assert_array_equal(whole.adjusted, partial.adjusted)
        assert whole.nperm == partial.nperm

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3])
    @pytest.mark.parametrize("side", ["abs", "upper", "lower"])
    def test_chunks_sum_to_serial_across_row_blocks(self, m, side):
        """Per-unit calls (64-permutation poll units, as a steal master
        polls at ``chunk_size=64``) and uneven chunks sum to one whole run
        at every block edge."""
        rng = np.random.default_rng(m)
        X = rng.normal(size=(m, 12))
        if m > 2:
            X[m // 3] = 1.0                      # untestable row
            X[rng.random(X.shape) < 0.05] = np.nan
        labels = two_class_labels(6, 6)
        options = validate_options(labels, test="t", B=200, seed=5,
                                   side=side)
        stat = build_statistic(options, X, labels)
        gen = build_generator(options, labels)
        observed = compute_observed(stat, side)
        whole = run_kernel(stat, gen, observed, side, 0, options.nperm)
        assert (whole.raw >= 1).all() and (whole.adjusted >= 1).all()
        assert (whole.adjusted <= options.nperm).all()
        for spans in ([(s, min(64, 200 - s)) for s in range(0, 200, 64)],
                      [(0, 1), (1, 130), (131, 69)]):
            partial = KernelCounts.zeros(m)
            for start, count in spans:
                partial += run_kernel(stat, gen, observed, side, start,
                                      count)
            np.testing.assert_array_equal(whole.raw, partial.raw)
            np.testing.assert_array_equal(whole.adjusted, partial.adjusted)

    def test_chunk_size_does_not_change_counts(self, problem):
        options, stat, gen, observed = problem
        a = run_kernel(stat, gen, observed, "abs", 0, options.nperm,
                       chunk_size=7)
        b = run_kernel(stat, gen, observed, "abs", 0, options.nperm,
                       chunk_size=64)
        np.testing.assert_array_equal(a.raw, b.raw)
        np.testing.assert_array_equal(a.adjusted, b.adjusted)

    def test_observed_contributes_exactly_one(self, problem):
        _, stat, gen, observed = problem
        counts = run_kernel(stat, gen, observed, "abs", 0, 1)
        np.testing.assert_array_equal(counts.raw, np.ones(observed.m))
        np.testing.assert_array_equal(counts.adjusted, np.ones(observed.m))
        assert counts.nperm == 1

    def test_empty_chunk(self, problem):
        _, stat, gen, observed = problem
        counts = run_kernel(stat, gen, observed, "abs", 5, 0)
        assert counts.nperm == 0

    def test_chunk_past_end_raises(self, problem):
        options, stat, gen, observed = problem
        with pytest.raises(PermutationError):
            run_kernel(stat, gen, observed, "abs", 0, options.nperm + 1)

    def test_bad_chunk_size(self, problem):
        options, stat, gen, observed = problem
        with pytest.raises(PermutationError):
            run_kernel(stat, gen, observed, "abs", 0, 10, chunk_size=0)

    def test_untestable_rows_do_not_pollute_maxima(self):
        """A constant row can never drive other genes' adjusted counts."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 10))
        Xbad = X.copy()
        Xbad[0] = 1.0  # untestable row
        labels = two_class_labels(5, 5)
        options = validate_options(labels, test="t", B=100, seed=3)

        def counts_for(data):
            stat = build_statistic(options, data, labels)
            gen = build_generator(options, labels)
            obs = compute_observed(stat, "abs")
            return run_kernel(stat, gen, obs, "abs", 0, options.nperm), obs

        good, obs_good = counts_for(X)
        bad, obs_bad = counts_for(Xbad)
        # rows 1..9 have the same data and the same null maxima, because the
        # untestable row is masked out of the maxima; counts may shift only
        # through the ordering, which the shared rows preserve here.
        keep = slice(1, 10)
        np.testing.assert_array_equal(good.raw[keep], bad.raw[keep])

    def test_first_is_observed_override(self, problem):
        """Stored-slice semantics: local index 0 is NOT the observed perm."""
        options, stat, gen, observed = problem
        plain = run_kernel(stat, gen, observed, "abs", 10, 20)
        forced = run_kernel(stat, gen, observed, "abs", 10, 20,
                            first_is_observed=False)
        np.testing.assert_array_equal(plain.raw, forced.raw)
