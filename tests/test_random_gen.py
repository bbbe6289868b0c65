"""Tests for the Monte-Carlo permutation generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import build_generator, validate_options
from repro.data import block_labels, two_class_labels
from repro.errors import PermutationError
from repro.permute import keystream
from repro.permute.random_gen import (
    RandomBlockShuffle,
    RandomLabelShuffle,
    RandomSigns,
)


def _collect(gen, count=None):
    return [tuple(enc) for enc in gen.take(count)]


class TestCommonBehaviour:
    @pytest.mark.parametrize("fixed", [True, False])
    def test_index_zero_is_observed(self, fixed):
        labels = two_class_labels(3, 4)
        gen = RandomLabelShuffle(labels, 10, seed=1, fixed_seed=fixed)
        first = next(gen.take(1))
        assert np.array_equal(first, labels)

    @pytest.mark.parametrize("fixed", [True, False])
    def test_skip_equals_take_and_drop(self, fixed):
        labels = two_class_labels(4, 4)
        a = RandomLabelShuffle(labels, 20, seed=3, fixed_seed=fixed)
        full = _collect(a)
        for skip in (0, 1, 5, 13, 19):
            b = RandomLabelShuffle(labels, 20, seed=3, fixed_seed=fixed)
            b.skip(skip)
            assert _collect(b) == full[skip:], f"skip={skip}"

    @pytest.mark.parametrize("fixed", [True, False])
    def test_partition_reproduces_serial_sequence(self, fixed):
        """The Figure-2 property: chunked generation == serial generation."""
        labels = two_class_labels(5, 5)
        serial = _collect(RandomLabelShuffle(labels, 23, seed=9,
                                             fixed_seed=fixed))
        pieces = []
        for start, count in [(0, 8), (8, 8), (16, 7)]:
            g = RandomLabelShuffle(labels, 23, seed=9, fixed_seed=fixed)
            g.skip(start)
            pieces.extend(_collect(g, count))
        assert pieces == serial

    def test_reset_restarts_stream(self):
        labels = two_class_labels(3, 3)
        gen = RandomLabelShuffle(labels, 10, seed=4, fixed_seed=False)
        first = _collect(gen, 5)
        gen.reset()
        assert _collect(gen, 5) == first

    def test_different_seeds_differ(self):
        labels = two_class_labels(6, 6)
        a = _collect(RandomLabelShuffle(labels, 10, seed=1))
        b = _collect(RandomLabelShuffle(labels, 10, seed=2))
        assert a[0] == b[0]  # observed identical
        assert a[1:] != b[1:]

    def test_sequential_stream_has_no_random_access(self):
        gen = RandomLabelShuffle(two_class_labels(3, 3), 10, fixed_seed=False)
        with pytest.raises(PermutationError):
            gen.at(3)

    def test_fixed_seed_random_access_matches_stream(self):
        gen = RandomLabelShuffle(two_class_labels(4, 4), 15, seed=5)
        seq = _collect(gen)
        for i in (0, 3, 14):
            assert tuple(gen.at(i)) == seq[i]

    def test_skip_past_end_raises(self):
        gen = RandomLabelShuffle(two_class_labels(3, 3), 5)
        with pytest.raises(PermutationError):
            gen.skip(6)

    def test_take_past_end_raises(self):
        gen = RandomLabelShuffle(two_class_labels(3, 3), 5)
        with pytest.raises(PermutationError):
            list(gen.take(6))

    def test_take_batch_shape(self):
        gen = RandomLabelShuffle(two_class_labels(3, 3), 10)
        batch = gen.take_batch(4)
        assert batch.shape == (4, 6)
        assert batch.dtype == np.int64
        assert gen.position == 4

    def test_empty_batch(self):
        gen = RandomLabelShuffle(two_class_labels(3, 3), 10)
        assert gen.take_batch(0).shape == (0, 6)

    def test_len_and_iter(self):
        gen = RandomLabelShuffle(two_class_labels(2, 2), 7)
        assert len(gen) == 7
        assert len(list(gen)) == 7


class TestLabelShuffle:
    def test_preserves_class_counts(self):
        labels = two_class_labels(7, 5)
        gen = RandomLabelShuffle(labels, 50, seed=2)
        for enc in gen:
            assert enc.sum() == 5
            assert len(enc) == 12

    def test_resamples_vary(self):
        gen = RandomLabelShuffle(two_class_labels(8, 8), 30, seed=1)
        encs = {tuple(e) for e in gen}
        assert len(encs) > 10  # overwhelmingly likely

    def test_rejects_2d_labels(self):
        with pytest.raises(PermutationError):
            RandomLabelShuffle(np.zeros((2, 2), dtype=int), 5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_multiset_invariant_property(self, seed):
        labels = two_class_labels(4, 7)
        gen = RandomLabelShuffle(labels, 8, seed=seed)
        expected = np.bincount(labels)
        for enc in gen:
            assert np.array_equal(np.bincount(enc, minlength=2), expected)


class TestSigns:
    def test_observed_all_plus_one(self):
        gen = RandomSigns(6, 10, seed=3)
        assert np.array_equal(next(gen.take(1)), np.ones(6, dtype=np.int64))

    def test_entries_are_signs(self):
        gen = RandomSigns(5, 40, seed=3)
        for enc in gen:
            assert set(np.unique(enc)).issubset({-1, 1})

    def test_both_signs_appear(self):
        gen = RandomSigns(8, 50, seed=4)
        gen.skip(1)
        flat = np.concatenate(list(gen.take()))
        assert (flat == 1).any() and (flat == -1).any()


class TestBlockShuffle:
    def test_observed_is_input(self):
        labels = block_labels(4, 3, seed=7)
        gen = RandomBlockShuffle(labels, 3, 10, seed=1)
        assert np.array_equal(next(gen.take(1)), labels)

    def test_each_block_stays_a_permutation(self):
        labels = block_labels(5, 3)
        gen = RandomBlockShuffle(labels, 3, 30, seed=2)
        for enc in gen:
            blocks = enc.reshape(5, 3)
            assert (np.sort(blocks, axis=1) == np.arange(3)).all()

    def test_rejects_indivisible_n(self):
        with pytest.raises(PermutationError):
            RandomBlockShuffle(np.array([0, 1, 2, 0]), 3, 5)

    def test_blocks_shuffled_independently(self):
        labels = block_labels(6, 3)
        gen = RandomBlockShuffle(labels, 3, 40, seed=5)
        gen.skip(1)
        # across resamples, different blocks should take different orders
        seen_per_block = [set() for _ in range(6)]
        for enc in gen.take():
            for b, block in enumerate(enc.reshape(6, 3)):
                seen_per_block[b].add(tuple(block))
        assert all(len(s) >= 2 for s in seen_per_block)


# -- the packed fill against the keystream reference --------------------------


def _reference_rows(test, labels, seed, start, count):
    """The reference keystream construction for indices [start, start+count)."""
    if test == "pairt":
        return keystream.sign_vectors(seed, start, count, labels.size // 2)
    if test == "blockf":
        return keystream.block_permutations(seed, start, count,
                                            labels.reshape(-1, 3))
    return keystream.label_permutations(seed, start, count, labels)


class TestEncodingBitIdentity:
    """Generator batches equal the reference keystream rows, bit for bit."""

    @pytest.mark.parametrize("test,labels", [
        ("t", np.array([0] * 9 + [1] * 8)),
        ("pairt", np.array([0, 1] * 14)),
        ("blockf", np.tile(np.arange(3), 5)),
    ])
    def test_streams_match_reference(self, test, labels):
        options = validate_options(labels, test=test, B=700, seed=17)
        gen = build_generator(options, labels)
        # Windows straddle the 64-row batch size and end on an odd
        # remainder; the first is the observed labelling alone.
        start = 0
        for count in (1, 63, 64, 170, 402):
            got = gen.take_batch(count).copy()
            if start == 0:
                np.testing.assert_array_equal(got[0], gen.at(0))
                got, start, count = got[1:], 1, count - 1
            if count:
                np.testing.assert_array_equal(
                    got, _reference_rows(test, labels, 17, start, count))
            start += count


def _colliding_raw_keys(real, first, second, low, every=97):
    """``raw_keys`` where, in every ``every``-th index, the keys of columns
    ``first`` and ``second`` share their top bits: ``first`` gets all
    ``low`` bits set and ``second`` none, so the full-key order puts
    ``second`` first while the packed order follows the labels."""
    def raw_keys(seed, start, count, words):
        keys = real(seed, start, count, words).copy()
        rows = np.flatnonzero((start + np.arange(count)) % every == 0)
        top = keys[rows, first] & ~np.uint64(low)
        keys[rows, first] = top | np.uint64(low)
        keys[rows, second] = top
        return keys
    return raw_keys


class TestPackedSortRescue:
    """A top-bit key collision makes the packed order wrong; the exact
    rescue must recompute the chunk through the reference argsort."""

    @pytest.mark.parametrize("layout,first,second", [
        # Labels: column 0 is class 0, the last column class 1 (1 bit).
        (np.array([[0] * 7 + [1] * 6]), 0, 12),
        # Blocks of 3 treatments (2 bits): columns 0 and 1 of block 0.
        (np.tile(np.arange(3), 4).reshape(4, 3), 0, 1),
    ], ids=["labels", "blocks"])
    def test_collisions_match_reference(self, layout, first, second,
                                        monkeypatch):
        nbits = int(layout.max()).bit_length()
        monkeypatch.setattr(keystream, "raw_keys", _colliding_raw_keys(
            keystream.raw_keys, first, second, (1 << nbits) - 1))
        rescued = []
        real_arrange = keystream._arrange
        monkeypatch.setattr(keystream, "_arrange", lambda keys, lay: (
            rescued.append(keys.shape[0]) or real_arrange(keys, lay)))
        fill = keystream.LayoutFill(layout)
        assert fill.packed
        # 700 indices span two 512-row chunks; both hold collisions.
        got = np.empty((700, layout.size), dtype=np.int64)
        fill.fill(5, 1, 700, got)
        assert rescued == [512, 188]
        if layout.shape[0] == 1:
            want = keystream.label_permutations(5, 1, 700, layout[0])
        else:
            want = keystream.block_permutations(5, 1, 700, layout)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("labels", [
        np.array([0, 70000, 0, 70000, 1, 70000]),    # over 16 bits
        np.array([4]),                               # width 1
    ], ids=["wide-values", "width-1"])
    def test_unpackable_labels_take_reference_path(self, labels):
        assert not keystream.LayoutFill(labels.reshape(1, -1)).packed
        gen = RandomLabelShuffle(labels, 120, seed=8)
        got = gen.take_batch(120)
        np.testing.assert_array_equal(got[0], labels)
        np.testing.assert_array_equal(
            got[1:], keystream.label_permutations(8, 1, 119, labels))

    def test_unpackable_blocks_take_reference_path(self):
        labels = np.tile(np.array([0, 1, 70000]), 4)
        assert not keystream.LayoutFill(labels.reshape(4, 3)).packed
        gen = RandomBlockShuffle(labels, 3, 90, seed=2)
        got = gen.take_batch(90)
        np.testing.assert_array_equal(
            got[1:], keystream.block_permutations(2, 1, 89,
                                                  labels.reshape(4, 3)))
