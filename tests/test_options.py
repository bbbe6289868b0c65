"""Tests for R-style option validation and problem assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import (
    build_generator,
    build_statistic,
    validate_options,
)
from repro.data import block_labels, paired_labels, two_class_labels
from repro.errors import CompletePermutationOverflow, OptionError
from repro.permute import (
    CompleteSigns,
    CompleteTwoSample,
    RandomBlockShuffle,
    RandomLabelShuffle,
    RandomSigns,
    StoredPermutations,
)


class TestValidation:
    def test_defaults(self):
        o = validate_options(two_class_labels(10, 10))
        assert o.test == "t" and o.side == "abs" and o.B == 10_000
        assert o.nperm == 10_000 and not o.complete and not o.store

    def test_unknown_test(self):
        with pytest.raises(OptionError, match="unknown test"):
            validate_options(two_class_labels(3, 3), test="anova")

    def test_unknown_side(self):
        with pytest.raises(OptionError, match="side"):
            validate_options(two_class_labels(3, 3), side="two")

    def test_bad_fss(self):
        with pytest.raises(OptionError):
            validate_options(two_class_labels(3, 3), fixed_seed_sampling="x")

    def test_bad_nonpara(self):
        with pytest.raises(OptionError):
            validate_options(two_class_labels(3, 3), nonpara="q")

    def test_negative_b(self):
        with pytest.raises(OptionError):
            validate_options(two_class_labels(3, 3), B=-5)

    def test_non_integer_b(self):
        with pytest.raises(OptionError):
            validate_options(two_class_labels(3, 3), B=2.5)

    def test_bool_b_rejected(self):
        with pytest.raises(OptionError):
            validate_options(two_class_labels(3, 3), B=True)

    def test_bad_chunk_size(self):
        with pytest.raises(OptionError):
            validate_options(two_class_labels(3, 3), chunk_size=0)

    def test_b_zero_resolves_complete(self):
        o = validate_options(two_class_labels(4, 4), B=0)
        assert o.complete and o.nperm == 70 and not o.store

    def test_b_zero_overflow_propagates(self):
        with pytest.raises(CompletePermutationOverflow):
            validate_options(two_class_labels(38, 38), B=0)

    def test_store_decision(self):
        o = validate_options(two_class_labels(10, 10),
                             fixed_seed_sampling="n", B=100)
        assert o.store
        o2 = validate_options(two_class_labels(10, 10),
                              fixed_seed_sampling="y", B=100)
        assert not o2.store

    def test_blockf_never_stores(self):
        o = validate_options(block_labels(10, 3), test="blockf",
                             fixed_seed_sampling="n", B=100)
        assert not o.store

    def test_describe(self):
        o = validate_options(two_class_labels(5, 5), B=50)
        text = o.describe()
        assert "test=t" in text and "B=50" in text

    def test_numpy_integer_b_accepted(self):
        o = validate_options(two_class_labels(5, 5), B=np.int64(123))
        assert o.nperm == 123


class TestBuildStatistic:
    def test_builds_requested_class(self):
        X = np.random.default_rng(0).normal(size=(4, 8))
        o = validate_options(two_class_labels(4, 4), test="wilcoxon", B=10)
        stat = build_statistic(o, X, two_class_labels(4, 4))
        assert stat.name == "wilcoxon"


class TestBuildGenerator:
    def test_random_label_shuffle(self):
        labels = two_class_labels(10, 10)
        o = validate_options(labels, B=100)
        gen = build_generator(o, labels)
        assert isinstance(gen, RandomLabelShuffle) and gen.fixed_seed

    def test_random_stream_when_stored(self):
        labels = two_class_labels(10, 10)
        o = validate_options(labels, B=100, fixed_seed_sampling="n")
        gen = build_generator(o, labels)
        assert isinstance(gen, StoredPermutations)
        assert gen.nperm == 100

    def test_complete_two_sample(self):
        labels = two_class_labels(4, 4)
        o = validate_options(labels, B=0)
        gen = build_generator(o, labels)
        assert isinstance(gen, CompleteTwoSample) and gen.nperm == 70

    def test_complete_pairt(self):
        labels = paired_labels(5)
        o = validate_options(labels, test="pairt", B=0)
        gen = build_generator(o, labels)
        assert isinstance(gen, CompleteSigns) and gen.nperm == 32

    def test_random_pairt(self):
        labels = paired_labels(20)
        o = validate_options(labels, test="pairt", B=500)
        gen = build_generator(o, labels)
        assert isinstance(gen, RandomSigns) and gen.width == 20

    def test_blockf_random_forced_fixed_seed(self):
        labels = block_labels(10, 3)
        o = validate_options(labels, test="blockf", B=100,
                             fixed_seed_sampling="n")
        gen = build_generator(o, labels)
        assert isinstance(gen, RandomBlockShuffle)
        assert gen.fixed_seed  # forced despite fss='n'

    def test_generators_respect_seed(self):
        labels = two_class_labels(8, 8)
        o1 = validate_options(labels, B=50, seed=1)
        o2 = validate_options(labels, B=50, seed=2)
        a = build_generator(o1, labels).take_batch(5)
        b = build_generator(o2, labels).take_batch(5)
        assert not np.array_equal(a[1:], b[1:])


class TestPackedOptions:
    """The Step-2 scalar encoding used by the broadcast."""

    def test_roundtrip(self):
        from repro.core.pmaxt import _pack_options, _unpack_options

        for test, labels in [
            ("t", two_class_labels(6, 6)),
            ("pairt", paired_labels(5)),
            ("blockf", block_labels(4, 3)),
        ]:
            o = validate_options(labels, test=test, B=64, side="upper",
                                 fixed_seed_sampling="n", nonpara="y",
                                 seed=99, chunk_size=17)
            assert _unpack_options(_pack_options(o)) == o

    def test_packed_is_flat_scalars(self):
        from repro.core.pmaxt import _pack_options

        o = validate_options(two_class_labels(5, 5), B=10)
        packed = _pack_options(o)
        assert all(isinstance(v, (int, float, bool)) for v in packed)
