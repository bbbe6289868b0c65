"""The fixed-seed fills against the keystream reference constructions.

``keystream.LayoutFill`` (the value-packed sort) is the only fixed-seed
generation path for label and block shuffles: every ``take_batch``
caller, ``pmaxT`` included, runs it.  It must write the rows of
``label_permutations`` / ``block_permutations`` bit for bit, for any
label layout, any index window and any chunking, and the kernel counts
of a whole job must not depend on which of the two constructions filled
the encodings.  Sign vectors are filled by the reference
``sign_vectors`` itself, so the ``pairt`` parity case pins only that the
kernel reads them the same way either route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import compute_observed, run_kernel
from repro.core.options import build_generator, build_statistic, validate_options
from repro.data import (
    block_labels,
    multiclass_labels,
    paired_labels,
    synthetic_blocked,
    synthetic_expression,
    synthetic_paired,
    two_class_labels,
)
from repro.permute import keystream
from repro.permute.random_gen import RandomSigns

#: Label layouts, ``(nblocks, k)``: one block is a label shuffle.
LAYOUTS = {
    "two-class": np.array([[0] * 9 + [1] * 8]),
    "multiclass": np.repeat(np.arange(5), [3, 4, 2, 5, 3]).reshape(1, -1),
    "16-bit": np.array([[0, 65535, 7, 65535, 0, 1, 300]]),
    "wide-row": np.array([[0] * 38 + [1] * 38]),
    "blocks-of-2": np.tile(np.arange(2), 10).reshape(10, 2),
    "blocks-of-4": np.tile(np.arange(4), 6).reshape(6, 4),
}

#: ``(start, count)`` index windows: a single row, one whole chunk, one
#: chunk plus a row, and three chunks far into the index space.
WINDOWS = [(0, 1), (1, keystream.SORT_CHUNK_ROWS),
           (7, keystream.SORT_CHUNK_ROWS + 1), (123_456_789, 1100)]
WINDOW_IDS = ["single", "one-chunk", "chunk-plus-one", "far-three-chunks"]


def _reference(layout, seed, start, count):
    if layout.shape[0] == 1:
        return keystream.label_permutations(seed, start, count, layout[0])
    return keystream.block_permutations(seed, start, count, layout)


class TestLayoutFill:
    @pytest.mark.parametrize("name", list(LAYOUTS))
    @pytest.mark.parametrize("start,count", WINDOWS, ids=WINDOW_IDS)
    def test_fill_matches_reference(self, name, start, count):
        layout = LAYOUTS[name]
        fill = keystream.LayoutFill(layout)
        assert fill.packed
        out = np.full((count, layout.size), -1, dtype=np.int64)
        fill.fill(31, start, count, out)
        np.testing.assert_array_equal(out, _reference(layout, 31, start,
                                                      count))

    def test_scratch_reused_across_window_sizes(self):
        """One fill serves windows that shrink and grow its chunk scratch
        and writes into strided views of a larger buffer."""
        layout = LAYOUTS["multiclass"]
        fill = keystream.LayoutFill(layout)
        buf = np.full((900, 2 * layout.size), -1, dtype=np.int64)
        start = 0
        for count in (3, 700, 40, 900):
            out = buf[:count, ::2]
            fill.fill(4, start, count, out)
            np.testing.assert_array_equal(out, _reference(layout, 4, start,
                                                          count))
            assert (buf[:count, 1::2] == -1).all()
            start += count


# -- kernel counts under either construction ---------------------------------


_DESIGNS = ("t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf")


def _design(test):
    """Data and labels large enough that every design samples at random."""
    if test in ("t", "t.equalvar", "wilcoxon"):
        X, _ = synthetic_expression(40, 16, n_class1=8, de_fraction=0.2,
                                    seed=11)
        return X, two_class_labels(8, 8)
    if test == "f":
        X, _ = synthetic_expression(45, 12, n_class1=4, de_fraction=0.1,
                                    seed=31)
        return X, multiclass_labels([4, 4, 4])
    if test == "pairt":
        X, _ = synthetic_paired(30, 12, de_fraction=0.2, seed=41)
        return X, paired_labels(12)
    X, _ = synthetic_blocked(25, 5, 3, de_fraction=0.2, seed=51)
    return X, block_labels(5, 3)


def _reference_generator(options, labels):
    """The production generator with its fill swapped for the reference
    ``argsort`` construction (signs already use the reference)."""
    gen = build_generator(options, labels)
    layout = None if isinstance(gen, RandomSigns) else gen._layout.layout

    def fill(start, count, out):
        if layout is None:
            out[...] = keystream.sign_vectors(gen.seed, start, count,
                                              out.shape[1])
        else:
            out[...] = _reference(layout, gen.seed, start, count)

    gen._fill_indexed = fill
    return gen


class TestKernelParity:
    @pytest.mark.parametrize("test", _DESIGNS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_counts_are_exact(self, test, dtype):
        X, labels = _design(test)
        options = validate_options(labels, test=test, B=700, seed=9,
                                   dtype=dtype)
        assert not options.complete
        stat = build_statistic(options, X, labels)
        observed = compute_observed(stat, options.side)
        got = run_kernel(stat, build_generator(options, labels), observed,
                         options.side, start=0, count=700, chunk_size=64)
        ref = run_kernel(stat, _reference_generator(options, labels),
                         observed, options.side, start=0, count=700,
                         chunk_size=64)
        np.testing.assert_array_equal(got.raw, ref.raw)
        np.testing.assert_array_equal(got.adjusted, ref.adjusted)
        assert got.nperm == ref.nperm == 700
