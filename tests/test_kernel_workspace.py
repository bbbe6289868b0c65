"""Workspace kernel: bit-identical counts, buffer reuse, float32 mode.

The ISSUE-2 acceptance bar for the zero-allocation rewrite: the pooled
batch loop must produce **bit-identical** kernel counts to the allocating
formulation (the pre-rewrite inner loop, reproduced verbatim in
``_reference_counts`` below), for every statistic, every side, and any
chunking.  The float32 tests pin the opt-in fast mode against float64
within tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mt_maxT
from repro.core import kernel as kernel_module
from repro.core.adjust import side_adjust, successive_maxima
from repro.core.kernel import (
    DEFAULT_CHUNK,
    TIE_TOLERANCE,
    KernelCounts,
    KernelWorkspace,
    ObservedScores,
    compute_observed,
    run_kernel,
    tie_tolerance,
)
from repro.core.options import build_generator, build_statistic, validate_options
from repro.data import synthetic_expression
from repro.permute.base import PermutationGenerator
from repro.stats import base as stats_base
from repro.stats.base import WorkBuffers, row_block

#: Rows per block at the default batch size (the kernel's row tiling).
BLOCK = row_block(10**6, DEFAULT_CHUNK)


def _null_heavy_row(test, labels):
    """A row whose observed statistic is 0 but whose permutations score
    high: every class alternates +10/-10 (class 1 only for pairt, whose
    pair differences then alternate in sign).  It sits low in the
    significance ordering and drives the maxima of every row above it."""
    row = np.zeros(len(labels))
    for j in ([1] if test == "pairt" else np.unique(labels)):
        members = np.flatnonzero(labels == j)
        row[members] = np.where(np.arange(members.size) % 2 == 0, 10.0, -10.0)
    return row


def _layout_matrix(test, labels, layout, rng):
    """The data of one row-block boundary case (see ``LAYOUTS``): the
    strongest row mid-matrix, a null-heavy row and a masked row near the
    top of the input (they land wherever the ordering puts them), and
    constant rows at the end."""
    m, na, untestable = LAYOUTS[layout]
    X = rng.normal(size=(m, len(labels)))
    if m >= 3:
        X[m // 2] = labels * 5.0 + 0.1 * rng.normal(size=len(labels))
        X[1] = _null_heavy_row(test, labels)
        # Undefined under the observed labels (class 1 all missing) but
        # finite under most permutations: only the kernel's untestable
        # mask keeps it out of the maxima.
        X[2, labels == 1] = np.nan
    X[m - untestable:] = 1.25            # constant rows: untestable
    if na:
        X[rng.random(X.shape) < 0.06] = np.nan
    return X


#: ``layout -> (m, missing cells, untestable rows)``.  Untestable rows
#: sort to the bottom of the significance ordering, so ``BLOCK + 40`` of
#: them in ``2 * BLOCK + 3`` rows straddle the bottom block's top edge.
LAYOUTS = {
    f"{name}{'-na' if na else ''}": (m, na, untestable)
    for name, m, untestable in [
        ("m1", 1, 0),
        ("block-1", BLOCK - 1, 2),
        ("block", BLOCK, 2),
        ("block+1", BLOCK + 1, 2),
        ("2block+3", 2 * BLOCK + 3, BLOCK + 40),
    ]
    for na in (False, True)
}


def _problem(test, labels, m=80, seed=5, B=150, dtype="float64", side="abs",
             layout=None):
    rng = np.random.default_rng(seed)
    if layout is None:
        X = rng.normal(size=(m, len(labels)))
        X[3, 0] = np.nan                 # missing cell
        X[7, :] = 1.25                   # constant (zero-variance) row
    else:
        X = _layout_matrix(test, labels, layout, rng)
    options = validate_options(labels, test=test, B=B, dtype=dtype)
    stat = build_statistic(options, X, labels)
    generator = build_generator(options, labels)
    observed = compute_observed(stat, side)
    return options, stat, generator, observed


def _reference_counts(stat, generator, observed, side, count,
                      chunk_size=DEFAULT_CHUNK):
    """The pre-workspace kernel loop: allocating, stack-batched, verbatim."""
    m = observed.m
    counts = KernelCounts.zeros(m)
    counts.raw += 1
    counts.adjusted += 1
    counts.nperm += 1
    generator.reset()
    generator.skip(1)
    order = observed.order
    untestable = observed.untestable
    rel = tie_tolerance(stat.compute_dtype)
    with np.errstate(invalid="ignore"):
        tol = rel * np.maximum(np.abs(observed.scores), 1.0)
        tol[~np.isfinite(tol)] = 0.0
    threshold = (observed.scores - tol)[:, None].astype(stat.compute_dtype,
                                                        copy=False)
    threshold_ordered = threshold[order]
    remaining = count - 1
    while remaining > 0:
        nb = min(chunk_size, remaining)
        enc = np.stack(list(generator.take(nb))).astype(np.int64, copy=False)
        perm_stats = stat.batch(enc)               # allocating path
        scores = side_adjust(perm_stats, side)
        if untestable.any():
            scores[untestable, :] = -np.inf
        counts.raw += (scores >= threshold).sum(axis=1)
        u = successive_maxima(scores[order])
        counts.adjusted += (u >= threshold_ordered).sum(axis=1)
        counts.nperm += nb
        remaining -= nb
    return counts


CASES = [
    ("t", np.array([0] * 6 + [1] * 6)),
    ("t.equalvar", np.array([0] * 6 + [1] * 6)),
    ("wilcoxon", np.array([0] * 6 + [1] * 6)),
    ("f", np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])),
    ("pairt", np.array([0, 1] * 6)),
    ("blockf", np.array([0, 1, 2] * 4)),
]


#: Row-block boundary cases: every statistic on every layout.  pairt
#: gets 8 pairs so its 150 permutations are sampled, not enumerated
#: (6 pairs enumerate only 2**6 = 64, one 63-wide batch).
BOUNDARY_CASES = [
    (test, np.array([0, 1] * 8) if test == "pairt" else labels, layout)
    for test, labels in CASES for layout in LAYOUTS
]
REFERENCE_CASES = [(test, labels, None) for test, labels in CASES] \
    + BOUNDARY_CASES
REFERENCE_IDS = [c[0] if c[2] is None else f"{c[0]}-{c[2]}"
                 for c in REFERENCE_CASES]


class TestWorkspaceBitIdentity:
    @pytest.mark.parametrize("test,labels,layout", REFERENCE_CASES,
                             ids=REFERENCE_IDS)
    @pytest.mark.parametrize("side", ["abs", "upper", "lower"])
    def test_counts_match_allocating_reference(self, test, labels, layout,
                                               side):
        options, stat, generator, observed = _problem(
            test, labels, side=side, layout=layout)
        count = options.nperm  # pairt resolves to its complete 2**6 = 64
        got = run_kernel(stat, generator, observed, side, start=0,
                         count=count)
        ref = _reference_counts(stat, generator, observed, side, count)
        np.testing.assert_array_equal(got.raw, ref.raw)
        np.testing.assert_array_equal(got.adjusted, ref.adjusted)
        assert got.nperm == ref.nperm == count

    @pytest.mark.parametrize("test,labels", CASES, ids=[c[0] for c in CASES])
    def test_stat_batch_pooled_equals_unpooled(self, test, labels):
        _, stat, generator, _ = _problem(test, labels)
        pool = WorkBuffers()
        generator.reset()
        for _ in range(3):
            enc = generator.take_batch(17)
            a = stat.batch(enc)
            b = stat.batch(enc, work=pool)
            np.testing.assert_array_equal(a, b)

    def test_chunk_size_does_not_change_counts(self):
        _, stat, generator, observed = _problem("t", CASES[0][1])
        base = run_kernel(stat, generator, observed, "abs", 0, 150,
                          chunk_size=64)
        for chunk in (1, 7, 150):
            again = run_kernel(stat, generator, observed, "abs", 0, 150,
                               chunk_size=chunk)
            np.testing.assert_array_equal(base.raw, again.raw)
            np.testing.assert_array_equal(base.adjusted, again.adjusted)


class TestWorkspaceReuse:
    def test_explicit_workspace_reused_across_calls(self):
        _, stat, generator, observed = _problem("t", CASES[0][1])
        ws = KernelWorkspace.for_stat(stat, DEFAULT_CHUNK)
        warm = None
        for _ in range(2):
            counts = run_kernel(stat, generator, observed, "abs", 0, 150,
                                workspace=ws)
            if warm is None:
                warm = ws.nbytes()
            else:
                assert ws.nbytes() == warm  # no growth after warmup
        fresh = run_kernel(stat, generator, observed, "abs", 0, 150)
        np.testing.assert_array_equal(counts.raw, fresh.raw)

    def test_incompatible_workspace_is_replaced_not_trusted(self):
        _, stat, generator, observed = _problem("t", CASES[0][1])
        wrong = KernelWorkspace(stat.m + 5, stat.width, DEFAULT_CHUNK)
        counts = run_kernel(stat, generator, observed, "abs", 0, 150,
                            workspace=wrong)
        fresh = run_kernel(stat, generator, observed, "abs", 0, 150)
        np.testing.assert_array_equal(counts.raw, fresh.raw)

    def test_workbuffers_smaller_shapes_are_contiguous(self):
        pool = WorkBuffers()
        full = pool.take("a", (10, 8))
        for shape in [(10, 3), (4, 8), (7, 5), (1, 1), (80,)]:
            view = pool.take("a", shape)
            assert view.shape == shape
            assert view.flags.c_contiguous
            assert np.shares_memory(view, full)
        # a row block of a tail batch is the leading run of the storage
        view = pool.take("a", (3, 5))
        view[...] = np.arange(15).reshape(3, 5)
        np.testing.assert_array_equal(full.reshape(-1)[:15], np.arange(15))
        assert pool.take("a", (3, 5)) is view           # cut once, reused
        grown = pool.take("a", (9, 10))                  # 90 > 80 elements
        assert grown.shape == (9, 10) and not np.shares_memory(grown, full)
        assert pool.take("a", (10, 8)).base is grown

    def test_workspace_holds_no_m_sized_buffers(self):
        _, stat, generator, observed = _problem("t", CASES[0][1],
                                                m=16 * BLOCK)
        ws = KernelWorkspace.for_stat(stat, DEFAULT_CHUNK)
        run_kernel(stat, generator, observed, "abs", 0, 150, workspace=ws)
        # less than a single whole (m, chunk) score matrix, all buffers in
        whole = stat.m * DEFAULT_CHUNK * 8
        assert ws.nbytes() < whole

    def test_kernel_orders_operands_once(self):
        labels = CASES[0][1]
        X = _layout_matrix("t", labels, "block+1", np.random.default_rng(2))
        options = validate_options(labels, test="t", B=150)
        stat = build_statistic(options, X, labels)
        observed = compute_observed(stat, "abs")
        generator = build_generator(options, labels)
        enc = generator.take_batch(5)
        before = stat.batch(enc).copy()
        run_kernel(stat, generator, observed, "abs", 0, 70)
        assert stat.order_rows(observed.order) is False  # already in order
        # batch() still answers in original row order
        np.testing.assert_allclose(stat.batch(enc), before, rtol=1e-12)

    def test_workbuffers_views(self):
        pool = WorkBuffers()
        full = pool.take("a", (10, 8))
        assert full.shape == (10, 8)
        tail = pool.take("a", (10, 3))
        assert tail.base is full and tail.shape == (10, 3)
        regrown = pool.take("a", (10, 12))
        assert regrown.shape == (10, 12)
        assert pool.take("b", (4,), np.int64).dtype == np.int64
        assert pool.nbytes() > 0


class TestFloat32Mode:
    def test_mt_maxt_float32_matches_float64_within_tolerance(self):
        X, _ = synthetic_expression(120, 16, n_class1=8, de_fraction=0.15,
                                    seed=21)
        labels = np.array([0] * 8 + [1] * 8)
        r64 = mt_maxT(X, labels, test="t", B=400, seed=9)
        r32 = mt_maxT(X, labels, test="t", B=400, seed=9, dtype="float32")
        assert r32.teststat.dtype == np.float32
        np.testing.assert_allclose(r32.teststat, r64.teststat, rtol=2e-4,
                                   atol=1e-4)
        # p-values are counts/B: identical permutations, so they may differ
        # only where a comparison sits within the tie band.
        np.testing.assert_allclose(r32.rawp, r64.rawp, atol=5 / 400)
        np.testing.assert_allclose(r32.adjp, r64.adjp, atol=5 / 400)

    def test_float32_threads_world_matches_serial(self):
        from repro import pmaxT

        X, _ = synthetic_expression(60, 12, n_class1=6, de_fraction=0.2,
                                    seed=4)
        labels = np.array([0] * 6 + [1] * 6)
        serial = mt_maxT(X, labels, B=120, dtype="float32")
        parallel = pmaxT(X, labels, B=120, dtype="float32",
                         backend="threads", ranks=3)
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)
        np.testing.assert_array_equal(serial.teststat, parallel.teststat)

    def test_bad_dtype_rejected(self):
        from repro.errors import OptionError

        X = np.ones((4, 4))
        with pytest.raises(OptionError, match="dtype"):
            mt_maxT(X, [0, 0, 1, 1], B=10, dtype="float16")

    def test_tie_tolerance_widens_for_float32(self):
        assert tie_tolerance(np.float32) > tie_tolerance(np.float64)


def _count_scans(monkeypatch):
    """Count the kernel's successive-maxima scans: a row block that skips
    the scan (saturated) does not call it."""
    calls = []
    scan = kernel_module._suffix_maxima

    def counted(block, scratch):
        calls.append(len(block))
        scan(block, scratch)

    monkeypatch.setattr(kernel_module, "_suffix_maxima", counted)
    return calls


def _blocks(m, count, chunk_size=DEFAULT_CHUNK):
    """Row blocks the kernel walks for ``count`` permutations after the
    observed one."""
    widths = [chunk_size] * ((count - 1) // chunk_size)
    widths += [(count - 1) % chunk_size] if (count - 1) % chunk_size else []
    return sum(-(-m // row_block(m, nb)) for nb in widths)


def _saturation_problem(test, labels, na, dtype, side, m=90, B=150):
    """Null data (plus one constant row) whose lower rows' permuted
    maxima exceed the thresholds of the rows above them."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(m, len(labels)))
    X[4] = 1.25
    if na:
        X[rng.random(X.shape) < 0.05] = np.nan
    options = validate_options(labels, test=test, B=B, dtype=dtype)
    stat = build_statistic(options, X, labels)
    generator = build_generator(options, labels)
    return stat, generator, compute_observed(stat, side)


class TestSaturatedBlocks:
    """A row block whose carried maxima already meet its largest threshold
    skips the scan and counts every permutation; the counts must still
    equal the whole-matrix reference."""

    # 16 rows per 64-wide block, so the 90-row problems span 6 blocks
    # (tier-1 matrices are otherwise smaller than one default block).
    # The batches are 64 wide: at 256 columns pairt's 8 pairs never
    # saturate a block, so the premise "some blocks skip" would not hold.
    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(stats_base, "ROW_BLOCK_ELEMENTS", 1024)

    @pytest.mark.parametrize("test,labels", [
        (test, np.array([0, 1] * 8) if test == "pairt" else labels)
        for test, labels in CASES], ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("side", ["abs", "upper", "lower"])
    @pytest.mark.parametrize("na", [False, True], ids=["clean", "na"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_counts_match_reference(self, test, labels, side, na, dtype,
                                    monkeypatch):
        stat, generator, observed = _saturation_problem(test, labels, na,
                                                        dtype, side)
        assert row_block(stat.m, 64) * 3 <= stat.m
        scans = _count_scans(monkeypatch)
        got = run_kernel(stat, generator, observed, side, start=0, count=150,
                         chunk_size=64)
        assert len(scans) < _blocks(stat.m, 150, 64)  # some blocks skipped
        ref = _reference_counts(stat, generator, observed, side, 150)
        np.testing.assert_array_equal(got.raw, ref.raw)
        np.testing.assert_array_equal(got.adjusted, ref.adjusted)

    def test_default_width_saturates(self, monkeypatch):
        """One full ``DEFAULT_CHUNK``-wide batch of Welch t: blocks still
        saturate (4 rows per block here) and the counts still equal the
        reference."""
        B = DEFAULT_CHUNK + 1
        stat, generator, observed = _saturation_problem(
            "t", CASES[0][1], False, "float64", "abs", B=B)
        scans = _count_scans(monkeypatch)
        got = run_kernel(stat, generator, observed, "abs", 0, B)
        assert len(scans) < _blocks(stat.m, B)
        ref = _reference_counts(stat, generator, observed, "abs", B)
        np.testing.assert_array_equal(got.raw, ref.raw)
        np.testing.assert_array_equal(got.adjusted, ref.adjusted)

    @pytest.mark.parametrize("saturated", [False, True],
                             ids=["carry-below-top", "carry-at-top"])
    def test_one_column_near_the_top_threshold(self, saturated,
                                               monkeypatch):
        """12 rows in three 4-row blocks, 4 permutations.  The middle
        block's carry meets its top threshold in columns 0-2; column 3's
        carry sits 1 ulp below it or exactly on it (and above the block's
        bottom threshold)."""
        monkeypatch.setattr(stats_base, "ROW_BLOCK_ELEMENTS", 16)
        scores = np.arange(10.0, -2.0, -1.0)
        thr = scores - TIE_TOLERANCE * np.maximum(np.abs(scores), 1.0)
        top = thr[4]
        table = np.full((12, 4), -5.0)
        table[8, :3] = 20.0
        table[8, 3] = top if saturated else np.nextafter(top, -np.inf)
        stat, generator = _TableStat(table), _IndexGenerator(5)
        observed = ObservedScores(
            stats=scores, scores=scores, order=np.arange(12),
            scores_ordered=scores, untestable=np.zeros(12, dtype=bool))
        scans = _count_scans(monkeypatch)
        got = run_kernel(stat, generator, observed, "upper", 0, 5,
                         chunk_size=4)
        # bottom and top blocks scan; the middle one only if unsaturated
        assert len(scans) == (2 if saturated else 3)
        u = successive_maxima(table)
        np.testing.assert_array_equal(
            got.adjusted, 1 + (u >= thr[:, None]).sum(axis=1))
        np.testing.assert_array_equal(
            got.raw, 1 + (table >= thr[:, None]).sum(axis=1))
        assert got.adjusted[4] == (5 if saturated else 4)

    def test_wide_batches_count_exactly(self):
        """At ``chunk_size=300`` a row's count per batch can pass 255: the
        counts must equal a 64-wide run's."""
        _, stat, generator, observed = _problem("t", CASES[0][1], B=601)
        narrow = run_kernel(stat, generator, observed, "abs", 0, 601,
                            chunk_size=64)
        wide = run_kernel(stat, generator, observed, "abs", 0, 601,
                          chunk_size=300)
        assert narrow.raw.max() > 256 and narrow.adjusted.max() > 256
        np.testing.assert_array_equal(narrow.raw, wide.raw)
        np.testing.assert_array_equal(narrow.adjusted, wide.adjusted)


class _TableStat:
    """A statistic stub: permutation ``k`` scores column ``k - 1`` of a
    fixed table (significance order already)."""

    compute_dtype = np.dtype(np.float64)
    width = 1

    def __init__(self, table):
        self.table = table
        self.m = table.shape[0]

    def order_rows(self, order, work=None):
        assert np.array_equal(order, np.arange(self.m))
        return False

    def batch_operands(self, encodings, work):
        return encodings[:, 0] - 1

    def score_rows(self, columns, lo, hi, work):
        out = work.take("table", (hi - lo, columns.size))
        out[...] = self.table[lo:hi][:, columns]
        return out


class _IndexGenerator(PermutationGenerator):
    """Encodes permutation ``k`` as ``[k]``."""

    def __init__(self, nperm):
        super().__init__(nperm, 1)

    def _encode(self, index):
        return np.array([index], dtype=np.int64)


class TestPaperShapeOracle:
    """The paper's 6102x76 shape, where most row blocks saturate: the
    kernel's counts must equal the whole-matrix reference."""

    @pytest.fixture(scope="class")
    def data(self):
        X, _ = synthetic_expression(6102, 76, n_class1=38, seed=18)
        return X, np.array([0] * 38 + [1] * 38)

    @pytest.mark.parametrize("side", ["abs", "upper", "lower"])
    def test_counts_match_reference(self, data, side, monkeypatch):
        X, labels = data
        options = validate_options(labels, test="t", side=side, B=300,
                                   seed=7)
        stat = build_statistic(options, X, labels)
        generator = build_generator(options, labels)
        observed = compute_observed(stat, side)
        scans = _count_scans(monkeypatch)
        got = run_kernel(stat, generator, observed, side, 0, 300)
        blocks = _blocks(stat.m, 300)
        assert len(scans) < 0.2 * blocks
        ref = _reference_counts(stat, generator, observed, side, 300)
        np.testing.assert_array_equal(got.raw, ref.raw)
        np.testing.assert_array_equal(got.adjusted, ref.adjusted)
