"""The pmaxT computational kernel.

This is the code the paper's "Main kernel" column times: given a statistic
bound to the dataset, a permutation generator forwarded to a chunk
``[start, start + count)``, and the observed significance ordering, it
accumulates the two count vectors the maxT p-values are built from.

The counts are plain sums over permutations, so per-rank results combine by
elementwise addition — the reduction the master performs in Step 5 of the
paper's parallel algorithm.

Permutations are processed in batches (default 256): the generator writes
a ``(nb, width)`` encoding block into the workspace (fixed-seed generators
through the value-packed sort of :mod:`repro.permute.keystream`), the
statistic scores it with a handful of GEMMs, and side adjustment,
successive maxima and counting are vectorized NumPy.  Batching is the
main optimization over the paper's one-permutation-at-a-time C loop and
is what lets a NumPy implementation approach compiled speed.

Row-tiled loop
--------------

At kernel scale the batch's cost is memory traffic, not the GEMMs: the
statistic arithmetic, side adjustment, successive maxima and the two
counts are about 25 elementwise passes per batch.  Streamed over whole
``(m, nb)`` matrices they miss cache on every pass.  So each batch is
walked in **row blocks of the significance-ordered problem**, from the
bottom block up, each block small enough to stay cache-resident
(:func:`~repro.stats.base.row_block`: ~32K elements, i.e. 128 rows at
``nb = 256``).  Per block the kernel

1. scores the block (:meth:`~repro.stats.base.TestStatistic.score_rows`);
2. side-adjusts it in place and forces untestable rows to ``-inf``;
3. counts raw exceedances;
4. if the block is *saturated* — the ``(nb,)`` maximum carried from the
   block below meets the block's largest threshold in every column —
   adds ``nb`` to every row's adjusted count and folds the block's column
   maxima into the carry.  Exact: ``u[i, b] >= carry[b] >= thr[i]``, and
   maxima round nothing, so the carry is what the scan would leave in the
   block's top row.  Most blocks saturate (at 6102x76, B=2001: 92% with
   256-wide batches, 83% with 64-wide ones);
5. otherwise takes successive maxima bottom-up (a doubling scan), seeded
   with the carry, and counts adjusted exceedances.

Counts sum comparison bytes in the narrowest type that holds
``chunk_size`` (exact: a count never exceeds the batch width).

The statistic's per-row operands are permuted into significance order
once per job (:meth:`~repro.stats.base.TestStatistic.order_rows`; a repeat
call with the same order is a no-op), so a block is a contiguous row
range of every operand and no per-batch gather is needed.  Raw counts
are accumulated in significance order and scattered back once per call.

Workspace discipline
--------------------

A :class:`KernelWorkspace` owns the encoding buffer and a pooled set of
named scratch buffers (:class:`~repro.stats.base.WorkBuffers`), all
block-sized.  After the first batch warms the pool the loop performs no
floating-point allocations at all: every GEMM runs with ``out=``, side
adjustment and successive maxima happen in place, and the comparisons
land in a reused boolean block.

Workspace lifetime rules:

* one workspace serves one ``(stat, chunk_size)`` problem shape; it may be
  reused across any number of :func:`run_kernel` calls with the same shape
  (the checkpointing driver does exactly that, and a rank running under a
  persistent :class:`~repro.mpi.session.BackendSession` keeps one resident
  across whole ``pmaxT`` calls via
  :func:`~repro.mpi.session.resident_cache` — the session/backend layer
  owns its lifetime there);
* the pooled buffers are valid **only until the next block** touches the
  pool — the kernel consumes them immediately;
* a workspace is single-threaded state: give each rank/thread its own;
* ``run_kernel(workspace=None)`` builds a private one per call, so casual
  callers get the fast path automatically.

Bit-identity: every element of a block goes through the same
floating-point operations as the whole-matrix batch, and maxima are
exact, so the counts do not depend on the block split or the chunking
(pinned by the test suite against a whole-matrix reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PermutationError
from ..permute.base import PermutationGenerator
from ..stats.base import TestStatistic, WorkBuffers, row_block
from .adjust import side_adjust, significance_order

__all__ = ["KernelCounts", "KernelWorkspace", "ObservedScores",
           "compute_observed", "run_kernel", "DEFAULT_CHUNK",
           "TIE_TOLERANCE", "TIE_TOLERANCE_F32", "tie_tolerance"]

#: Default permutation batch size for the vectorized kernel.  Row blocks
#: keep the working set cache-resident whatever the batch size (a block
#: holds about :data:`~repro.stats.base.ROW_BLOCK_ELEMENTS` scores), so a
#: wider batch costs no cache misses: it widens the GEMMs and spreads the
#: per-batch work (encoding fill, class counts and their reciprocals) over
#: more permutations.  On a 2-core host, in process (Welch t, side abs,
#: BLAS cap 1, median of 4 rounds), the kernel took 0.485/0.442/0.408/
#: 0.404 s at 64/128/256/512 on 6102x76 (B=2001) and 0.693/0.634/0.563/
#: 0.574 s on 36612x76 (B=501).  End to end, 256 with the reciprocal
#: two-sample scoring raised perfbench ``paper_warm`` from 9,284 to 10,806
#: perms/s and ``oneshot_bigdata`` from 884 to 1,034 (medians of 10
#: alternating 20 s pairs on the same host, 9 and 10 of 10 won).
DEFAULT_CHUNK: int = 256

#: Relative tolerance for the ``permuted >= observed`` counting comparison.
#:
#: Permutations that tie the observed statistic *exactly* in real arithmetic
#: (the re-drawn identity labelling, class-swapped labellings under
#: ``side="abs"``, all-flipped sign vectors, ...) evaluate to values that can
#: differ from the observed score by an ulp or two, and — unlike multtest's
#: scalar C loop — the batched BLAS arithmetic here is not bit-identical
#: across batch shapes, so a strict ``>=`` would make counts depend on how
#: the permutation sequence is chunked.  Counting ``s* >= s - tol`` with
#: ``tol = TIE_TOLERANCE * max(1, |s|)`` makes exact ties count reliably and
#: the counts invariant to chunking/partitioning: BLAS noise is ~1e-12
#: relative, three orders of magnitude below the margin, while genuinely
#: distinct statistics differ by far more than 1e-9 on continuous data.
TIE_TOLERANCE: float = 1e-9

#: The float32 compute mode's counterpart: single-precision GEMM noise is
#: ~1e-6 relative, so the tie margin widens accordingly (still far below
#: the gap between genuinely distinct statistics on continuous data).
TIE_TOLERANCE_F32: float = 1e-4


def tie_tolerance(dtype) -> float:
    """The counting tie tolerance for a compute dtype."""
    return TIE_TOLERANCE_F32 if np.dtype(dtype) == np.float32 \
        else TIE_TOLERANCE


@dataclass
class KernelCounts:
    """Additive per-rank kernel output.

    Attributes
    ----------
    raw:
        ``#{b in chunk : s*_i,b >= s_i}`` per row, original row order.
    adjusted:
        ``#{b in chunk : u_(i),b >= s_(i)}`` per row, significance order.
    nperm:
        Number of permutations this accumulator has seen.
    """

    raw: np.ndarray
    adjusted: np.ndarray
    nperm: int = 0

    @classmethod
    def zeros(cls, m: int) -> "KernelCounts":
        return cls(raw=np.zeros(m, dtype=np.int64),
                   adjusted=np.zeros(m, dtype=np.int64), nperm=0)

    def __iadd__(self, other: "KernelCounts") -> "KernelCounts":
        self.raw += other.raw
        self.adjusted += other.adjusted
        self.nperm += other.nperm
        return self

    def merged(self, others) -> "KernelCounts":
        """A new accumulator equal to ``self`` plus every element of ``others``."""
        out = KernelCounts(raw=self.raw.copy(), adjusted=self.adjusted.copy(),
                           nperm=self.nperm)
        for o in others:
            out += o
        return out


class KernelWorkspace:
    """Reusable buffers for the batched kernel (see the module docstring).

    Parameters
    ----------
    m, width:
        Problem shape: hypothesis rows and encoding width.
    chunk_size:
        Maximum batch size the workspace will serve; smaller tail batches
        are served as leading-slice views.
    dtype:
        Compute dtype of the statistic this workspace will partner.
    """

    def __init__(self, m: int, width: int, chunk_size: int, dtype=np.float64):
        if chunk_size <= 0:
            raise PermutationError(
                f"chunk_size must be positive, got {chunk_size}")
        self.m = int(m)
        self.width = int(width)
        self.chunk_size = int(chunk_size)
        self.dtype = np.dtype(dtype)
        #: Encoding buffer handed to ``generator.take_batch(out=...)``.
        self.enc = np.empty((self.chunk_size, self.width), dtype=np.int64)
        #: Named scratch pool threaded through the row blocks.
        self.pool = WorkBuffers()

    @classmethod
    def for_stat(cls, stat: TestStatistic, chunk_size: int = DEFAULT_CHUNK,
                 engine=None) -> "KernelWorkspace":
        """A workspace matching one bound statistic's problem shape.

        ``engine`` is ignored; it is kept only for ``perfbench/replay.py``.
        """
        return cls(stat.m, stat.width, chunk_size, stat.compute_dtype)

    def compatible_with(self, stat: TestStatistic, chunk_size: int) -> bool:
        """Whether this workspace can serve ``stat`` at ``chunk_size``."""
        return (self.m == stat.m and self.width == stat.width
                and self.chunk_size >= chunk_size
                and self.dtype == stat.compute_dtype)

    def ordered(self, nb: int) -> np.ndarray:
        """A fresh ``(m, nb)`` matrix for whole-matrix staged replays.

        The kernel itself holds nothing ``m``-sized; this is allocated per
        call and not part of :meth:`nbytes`.
        """
        return np.empty((self.m, nb), dtype=self.dtype)

    def nbytes(self) -> int:
        """Current footprint (encoding buffer + warm pool)."""
        return self.enc.nbytes + self.pool.nbytes()


@dataclass
class ObservedScores:
    """Observed statistics and the derived significance ordering.

    Every rank computes this locally from the broadcast dataset (one extra
    permutation's worth of work) so the kernel can compare its chunk's
    permuted scores against the same thresholds the master uses.
    """

    #: Raw observed statistics, original row order (NaN = untestable).
    stats: np.ndarray
    #: Side-adjusted observed scores, original row order (``-inf`` = untestable).
    scores: np.ndarray
    #: Significance ordering: original row index at each ordered position.
    order: np.ndarray
    #: Side-adjusted scores in significance order.
    scores_ordered: np.ndarray
    #: Untestable-row mask, original row order.
    untestable: np.ndarray = field(repr=False, default=None)

    @property
    def m(self) -> int:
        return int(self.stats.size)


def compute_observed(stat: TestStatistic, side: str) -> ObservedScores:
    """Score the observed labelling and derive the significance ordering."""
    observed = stat.observed()
    scores = side_adjust(observed, side)
    order = significance_order(scores)
    return ObservedScores(
        stats=observed,
        scores=scores,
        order=order,
        scores_ordered=scores[order],
        untestable=~np.isfinite(scores),
    )


def _suffix_maxima(block: np.ndarray, scratch: np.ndarray) -> None:
    """Successive maxima of a row block in place: row ``i`` becomes the
    maximum of rows ``i, i+1, ...``
    (:func:`~repro.core.adjust.successive_maxima` on a block).

    A doubling scan — after the pass of stride ``k`` each row holds the
    maximum of the next ``2k`` rows — takes ``log2(rows)`` vectorized
    passes over contiguous rows, where ``np.maximum.accumulate`` along
    axis 0 walks each column as one dependent chain (1.6-1.8x slower on
    a 256-512 row block).  Maxima round nothing, so the values are
    identical.
    """
    n = block.shape[0]
    src, dst = block, scratch
    k = 1
    while k < n:
        np.maximum(src[:n - k], src[k:], out=dst[:n - k])
        dst[n - k:] = src[n - k:]
        src, dst = dst, src
        k *= 2
    if src is not block:
        block[...] = src


def run_kernel(
    stat: TestStatistic,
    generator: PermutationGenerator,
    observed: ObservedScores,
    side: str,
    start: int,
    count: int,
    chunk_size: int = DEFAULT_CHUNK,
    first_is_observed: bool | None = None,
    workspace: KernelWorkspace | None = None,
    engine=None,
) -> KernelCounts:
    """Accumulate maxT counts over permutations ``[start, start + count)``.

    The generator is reset and *forwarded* (``skip``) to ``start`` — the
    operation the paper added to the serial generators' interface — and then
    consumed in batches.

    Untestable rows (observed statistic undefined) are excluded from the
    null maxima: their permuted scores are forced to ``-inf`` so a broken
    row cannot inflate the adjusted p-values of testable rows.

    The observed permutation (index 0) is accounted for *analytically*: under
    the observed labelling ``s* = s`` exactly, so it contributes 1 to every
    raw count and — because the successive maxima along a non-increasing
    ordering reproduce the ordered scores — 1 to every adjusted count.
    Scoring it numerically instead would make the counts hostage to
    last-ulp BLAS differences between batch shapes; the analytic treatment
    is both exact and the direct translation of the paper's "the first
    permutation only needs to be taken into account once by the master".

    ``workspace`` is an optional :class:`KernelWorkspace` (reused across
    calls by the checkpoint driver); with ``None`` a private one is built,
    so every caller gets the allocation-free batch loop.  Counts are
    bit-identical either way.

    ``engine`` is ignored; it is kept only for ``perfbench/replay.py``.
    """
    if chunk_size <= 0:
        raise PermutationError(f"chunk_size must be positive, got {chunk_size}")
    m = observed.m
    counts = KernelCounts.zeros(m)
    if count == 0:
        return counts
    if start + count > generator.nperm:
        raise PermutationError(
            f"chunk [{start}, {start + count}) exceeds the generator's "
            f"nperm={generator.nperm}"
        )
    if first_is_observed is None:
        # The default covers on-the-fly generators addressed by global
        # index; stored per-rank slices must say explicitly whether their
        # first row is the observed labelling.
        first_is_observed = start == 0
    if first_is_observed:
        counts.raw += 1
        counts.adjusted += 1
        counts.nperm += 1
        start, count = start + 1, count - 1
        if count == 0:
            return counts
    generator.reset()
    generator.skip(start)

    if workspace is None or not workspace.compatible_with(stat, chunk_size):
        workspace = KernelWorkspace.for_stat(stat, chunk_size)

    pool = workspace.pool
    order = observed.order
    stat.order_rows(order)
    # Tie-tolerant thresholds (see TIE_TOLERANCE / TIE_TOLERANCE_F32).
    # -inf stays -inf.
    rel = tie_tolerance(stat.compute_dtype)
    with np.errstate(invalid="ignore"):
        tol = rel * np.maximum(np.abs(observed.scores), 1.0)
        tol[~np.isfinite(tol)] = 0.0
    threshold = (observed.scores - tol)[:, None]            # original order
    threshold = threshold.astype(stat.compute_dtype, copy=False)
    threshold_ordered = threshold[order]                    # significance order
    # top[lo]: the largest threshold of a block starting at row lo.
    top = np.maximum.accumulate(threshold_ordered[::-1, 0])[::-1]
    untestable = observed.untestable[order]
    if not untestable.any():
        untestable = None
    raw = np.zeros(m, dtype=np.int64)                       # significance order
    adjusted = counts.adjusted
    carry = pool.take("carry", (chunk_size,), stat.compute_dtype)
    count_dtype = np.min_scalar_type(chunk_size)

    remaining = count
    with np.errstate(invalid="ignore", divide="ignore"):
        while remaining > 0:
            nb = min(chunk_size, remaining)
            enc = generator.take_batch(nb, out=workspace.enc)
            operands = stat.batch_operands(enc, pool)
            rows = row_block(m, nb)
            below = carry[:nb]
            hi = m
            while hi > 0:
                lo = max(0, hi - rows)
                block = stat.score_rows(operands, lo, hi, pool)
                side_adjust(block, side, out=block)
                if untestable is not None:
                    dead = untestable[lo:hi]
                    if dead.any():
                        block[dead] = -np.inf
                thr = threshold_ordered[lo:hi]
                ge = np.greater_equal(block, thr,
                                      out=pool.take("ge", block.shape, bool))
                raw[lo:hi] += np.add.reduce(ge.view(np.uint8), axis=1,
                                            dtype=count_dtype)
                saturated = hi < m and below.min() >= top[lo]
                if hi < m:
                    np.maximum(block[-1], below, out=block[-1])
                if saturated:                # see "Row-tiled loop", step 4
                    adjusted[lo:hi] += nb
                    np.maximum.reduce(block, axis=0, out=below)
                else:
                    _suffix_maxima(block, pool.take("smax", block.shape,
                                                    stat.compute_dtype))
                    np.greater_equal(block, thr, out=ge)
                    adjusted[lo:hi] += np.add.reduce(
                        ge.view(np.uint8), axis=1, dtype=count_dtype)
                    np.copyto(below, block[0])
                hi = lo
            counts.nperm += nb
            remaining -= nb
    counts.raw[order] += raw
    return counts
