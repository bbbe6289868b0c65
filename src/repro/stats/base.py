"""Test-statistic protocol and shared vectorized machinery.

Every statistic is an object bound to one dataset.  Construction performs
the per-dataset work once (NA conversion, masking, optional rank transform,
design validation); evaluation then happens through a single entry point:

``batch(encodings, work=None) -> (m, nb) float``
    compute the statistic for all ``m`` rows under each of the ``nb``
    permutation encodings.  The encodings come straight from a
    :class:`~repro.permute.base.PermutationGenerator` — label vectors for
    the label-permuting families, sign vectors for the paired family.

The observed statistic runs the same scoring path as a batch (see
:meth:`TestStatistic.observed`), so the observed labelling and the
resamples are scored identically (the property the maxT counting relies on).

Vectorization strategy (the "main kernel" the paper spends 99% of its time
in): the data matrix is zero-filled at missing cells and accompanied by a
0/1 validity mask; per-class sums, counts and sums of squares then become
dense GEMMs ``(m x n) @ (n x nb)`` over a whole batch of permutations, so the
per-permutation cost is dominated by BLAS.  Degenerate rows (too few valid
samples, zero variance) produce NaN, which the maxT kernel treats as "never
significant" — matching multtest's NA propagation.  All of it is plain NumPy
on host memory.

Allocation discipline: at kernel scale the elementwise temporaries — a
dozen ``(m, nb)`` matrices per batch — cost more than the GEMMs themselves.
Evaluation is therefore split in two: :meth:`TestStatistic.batch_operands`
turns one encoding batch into the GEMM right-hand sides (plus the
``(1, nb)`` class counts on fully-valid data), and
:meth:`TestStatistic.score_rows` evaluates one row block ``[lo, hi)``
against them.  Every GEMM runs with ``out=`` and every elementwise step
reuses a named :class:`WorkBuffers` buffer of the block's shape, so a
small row block keeps the whole pipeline cache-resident and the hot loop
allocates nothing.  A row of the result depends only on that
row's operands, so the values are the same whatever the block split.

Row order: the kernel walks the problem in significance order, so
:meth:`TestStatistic.order_rows` permutes the per-row operands in place
once per job (they are private copies — construction always copies the
input).  :meth:`TestStatistic.batch` always answers in original row order.

Compute dtype: statistics default to float64; ``dtype="float32"`` is an
opt-in mode that halves memory traffic and roughly doubles BLAS throughput
at ~1e-5 relative accuracy (the maxT counting compensates with a wider tie
tolerance — see :mod:`repro.core.kernel`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ..errors import DataError, OptionError
from .na import MT_NA_NUM, row_ranks, to_nan, valid_mask

__all__ = ["TestStatistic", "TwoSampleMoments", "WorkBuffers",
           "COMPUTE_DTYPES", "ROW_BLOCK_ELEMENTS", "class_member_counts",
           "gemm_operand", "mask_undefined", "row_block", "two_class_counts",
           "two_class_operands"]

#: The supported compute dtypes for the statistic kernels.
COMPUTE_DTYPES: tuple[str, ...] = ("float64", "float32")

#: Element budget of one row block (``rows * nb``).  Each of the dozen
#: buffers a statistic touches is then 256 KiB in float64.  Measured on a
#: 2-core host (2 MiB L2 per core, 105 MiB L3, two ranks running): 32K
#: beat 16K by ~10% on 6102x76 and matched it on 36612x76 — fewer Python
#: calls per batch outweigh the spill from L2 into L3 — and 48K gained
#: nothing more.  At 256-wide batches (128-row blocks) the in-process
#: kernel took 0.357 s against 0.392 s at 16K and 0.359 s at 64K on
#: 6102x76 (B=2001), and 0.338 s against 0.366/0.342 s on 36612x76
#: (B=301), median of 5 interleaved rounds at BLAS cap 1.
ROW_BLOCK_ELEMENTS: int = 32768


def row_block(m: int, nb: int) -> int:
    """Rows per block for an ``nb``-column batch over ``m`` rows: about
    :data:`ROW_BLOCK_ELEMENTS` elements per block."""
    return max(1, min(m, ROW_BLOCK_ELEMENTS // max(nb, 1)))


def class_member_counts(V, G, work: "WorkBuffers", key: str, dtype):
    """Per-encoding member counts for a 0/1 class-indicator block ``G``.

    With a validity mask ``V`` the counts are the GEMM ``V @ G`` — an
    ``(m, nb)`` matrix.  Pass ``V=None`` for fully-valid data: every mask
    row is all ones, so the counts collapse to the column sums of ``G``,
    one broadcastable ``(1, nb)`` row.  Both forms sum the same exact
    small integers in float, so the shortcut is bit-transparent while
    removing a whole GEMM from the batch.  When every encoding of the
    batch has the same count (label shuffles keep the class sizes), the
    row's ``(1, 1)`` leading view is returned instead: the
    arithmetic then broadcasts one scalar, the same IEEE operation on
    the same operand.  ``dtype`` is the compute dtype.
    """
    if V is None:
        out = work.take(key, (1, G.shape[1]), dtype)
        np.sum(G, axis=0, dtype=dtype, out=out[0])
        if out.min() == out.max():
            return out[:, :1]
        return out
    return np.matmul(V, G, out=work.take(key, (V.shape[0], G.shape[1]),
                                         dtype))


def gemm_operand(encodings, work: "WorkBuffers", dtype):
    """The float ``(width, nb)`` right-hand side for the batch GEMMs."""
    G = work.take("G", (encodings.shape[1], encodings.shape[0]), dtype)
    np.copyto(G, encodings.T, casting="unsafe")
    return G


def two_class_operands(encodings, work: "WorkBuffers", dtype,
                       all_valid: bool):
    """``(G, N1, N0)`` for a batch of 0/1 label vectors.

    ``G`` is the float ``(n, nb)`` label block.  On fully-valid data the
    class member counts are the same for every row, so they are formed
    here once per batch as ``(1, nb)`` rows, or ``(1, 1)`` scalars when
    every encoding has the same class sizes (see
    :func:`class_member_counts`); otherwise they are ``None`` and
    :func:`two_class_counts` forms them per row block.
    """
    dtype = np.dtype(dtype)
    G = gemm_operand(encodings, work, dtype)
    if not all_valid:
        return G, None, None
    N1 = class_member_counts(None, G, work, "N1", dtype)
    # Every row's valid count is exactly n, so the (1, nb) subtraction
    # yields the same values an (m, nb) one would.
    N0 = np.subtract(dtype.type(encodings.shape[1]), N1,
                     out=work.take("N0", N1.shape, dtype))
    return G, N1, N0


def two_class_counts(operands, mask, n_valid, lo: int, hi: int,
                     work: "WorkBuffers", dtype):
    """Both classes' member counts ``(N1, N0)`` for rows ``[lo, hi)``:
    the batch's ``(1, nb)`` rows or ``(1, 1)`` scalars on fully-valid
    data, else the mask GEMM ``mask @ G`` and ``n_valid - N1`` over the
    block."""
    G, N1, N0 = operands
    if N1 is None:
        N1 = class_member_counts(mask[lo:hi], G, work, "N1", dtype)
        N0 = np.subtract(n_valid[lo:hi, None], N1,
                         out=work.take("N0", N1.shape, dtype))
    return N1, N0


def mask_undefined(values, scale, N1, N0, least: int, work: "WorkBuffers"):
    """Set ``values`` to NaN where ``scale`` is zero or either class has
    fewer than ``least`` members; returns ``values``.  A broadcast count
    row or scalar with no small class is not OR-ed into the block mask."""
    small = np.less(N1, least, out=work.take("bad1", N1.shape, bool))
    np.logical_or(small, np.less(N0, least, out=work.take(
        "bad2", N0.shape, bool)), out=small)
    bad = np.equal(scale, 0.0, out=work.take("bad3", values.shape, bool))
    if small.shape == bad.shape or small.any():
        np.logical_or(bad, small, out=bad)
    np.copyto(values, np.nan, where=bad)
    return values


class WorkBuffers:
    """A pool of named, lazily grown scratch arrays.

    ``take(key, shape, dtype)`` returns a C-contiguous buffer of exactly
    ``shape``: the first request allocates it, later requests reuse the
    allocation — a smaller request (the top row block, a tail batch) is a
    reshaped leading run of the same storage, never a strided slice.
    Nothing is zeroed: callers own the full contents of what they take.
    """

    def __init__(self):
        self._bufs: dict[str, Any] = {}
        self._dtypes: dict[str, np.dtype] = {}
        self._sizes: dict[str, int] = {}
        #: Shaped views already cut, by ``(key, shape, dtype)``: the hot
        #: loop asks for the same few shapes on every block.  Capped (see
        #: :meth:`take`) so a stream of one-off shapes cannot grow it.
        self._views: dict[tuple, Any] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64):
        view = self._views.get((key, shape, dtype))
        if view is not None:
            return view
        want = np.dtype(dtype)
        dims = tuple(int(s) for s in shape)
        size = math.prod(dims)
        buf = self._bufs.get(key)
        if buf is None or self._dtypes[key] != want \
                or self._sizes[key] < size:
            buf = np.empty(dims, dtype=want)
            self._bufs[key] = buf
            self._dtypes[key] = want
            self._sizes[key] = size
            self._views = {k: v for k, v in self._views.items()
                           if k[0] != key}
        if tuple(buf.shape) != dims:
            buf = buf.reshape(-1)[:size].reshape(dims)
        if len(self._views) < 4096:
            self._views[(key, shape, dtype)] = buf
        return buf

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(int(b.nbytes) for b in self._bufs.values())


class TestStatistic(ABC):
    """A test statistic bound to one ``m x n`` dataset.

    Parameters
    ----------
    X:
        Data matrix, rows are features (genes), columns are samples.
    classlabel:
        Observed class labels, length ``n``.
    na:
        Numeric missing-value code (default: multtest's ``.mt.naNUM``);
        NaN cells are always treated as missing.
    nonpara:
        ``"y"`` applies a row-wise average-rank transform to the data before
        any statistic is computed (the R interface's non-parametric option);
        ``"n"`` leaves the data as is.
    dtype:
        Compute dtype for the batch kernels: ``"float64"`` (default) or
        ``"float32"`` (opt-in fast mode; see the module docstring).
    """

    #: R-interface name of the statistic (``test=`` value).
    name: str = ""
    #: Encoding family: ``"label"`` (label vectors) or ``"signs"``.
    family: str = "label"

    def __init__(self, X, classlabel, *, na: float | None = MT_NA_NUM,
                 nonpara: str = "n", dtype: str = "float64"):
        if nonpara not in ("y", "n"):
            raise DataError(f"nonpara must be 'y' or 'n', got {nonpara!r}")
        if str(dtype) not in COMPUTE_DTYPES:
            raise OptionError(
                f"dtype must be one of {COMPUTE_DTYPES}, got {dtype!r}")
        self.compute_dtype = np.dtype(str(dtype))
        X = to_nan(X, na)
        labels = np.asarray(classlabel, dtype=np.int64)
        if labels.ndim != 1 or labels.size != X.shape[1]:
            raise DataError(
                f"classlabel length {labels.size} does not match the "
                f"{X.shape[1]} columns of X"
            )
        if nonpara == "y" and self._rank_based:
            # Wilcoxon is already rank based; re-ranking is a no-op by
            # construction, so skip the duplicate transform.
            nonpara = "n"
        if nonpara == "y":
            X = np.where(valid_mask(X), row_ranks(X), np.nan)
        X = X.astype(self.compute_dtype, copy=False)
        self.m, self.n = X.shape
        self.nonpara = nonpara
        self.observed_labels = labels.copy()
        self.observed_labels.flags.writeable = False
        self._validate_design(labels)
        self._prepare(X, labels)
        #: Original row index held at each operand row (``None`` while the
        #: operands are still in original order); see :meth:`order_rows`.
        self._row_order: np.ndarray | None = None

    #: Set by rank-based statistics so ``nonpara`` does not double-transform.
    _rank_based: bool = False

    #: Width of the permutation encodings this statistic consumes.
    @property
    def width(self) -> int:
        return self.n

    # -- hooks ---------------------------------------------------------------

    @abstractmethod
    def _validate_design(self, labels: np.ndarray) -> None:
        """Raise :class:`DataError` if the labels don't fit the design."""

    @abstractmethod
    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        """Cache the per-dataset arrays the batch kernel needs."""

    @abstractmethod
    def _row_arrays(self) -> tuple[np.ndarray, ...]:
        """The distinct per-row operands (first axis ``m``) to reorder."""

    @abstractmethod
    def batch_operands(self, encodings, work: WorkBuffers) -> Any:
        """Per-batch operands for :meth:`score_rows` from validated encodings.

        The float GEMM right-hand sides, plus whatever depends on the
        encodings alone (the ``(1, nb)`` class counts on fully-valid
        data).  Pooled: valid until the next batch touches ``work``.
        """

    @abstractmethod
    def score_rows(self, operands, lo: int, hi: int,
                   work: WorkBuffers) -> Any:
        """The ``(hi - lo, nb)`` statistics of operand rows ``[lo, hi)``.

        Rows are in the current operand order (see :meth:`order_rows`).
        Every intermediate routes through ``work`` (``out=`` GEMMs,
        in-place elementwise steps); the returned matrix is itself a
        pooled buffer, valid until the next call with the same pool.
        Callers run it under ``errstate(invalid="ignore",
        divide="ignore")``.
        """

    # -- shared batch helpers --------------------------------------------------

    def _class_indicator(self, encodings, j: int,
                         work: WorkBuffers):
        """The ``(width, nb)`` float indicator of class-``j`` membership."""
        n, nb = encodings.shape[1], encodings.shape[0]
        eq = np.equal(encodings.T, j, out=work.take("eqT", (n, nb), bool))
        Gj = work.take(f"G{j}", (n, nb), self.compute_dtype)
        np.copyto(Gj, eq, casting="unsafe")
        return Gj

    # -- row order -------------------------------------------------------------

    def order_rows(self, order: np.ndarray) -> bool:
        """Permute the per-row operands in place so row ``i`` is ``order[i]``.

        ``order`` lists original row indices (the kernel passes the
        significance ordering).  Each operand is permuted through one
        transient copy; nothing second stays resident.  A repeat call with
        the current order is an O(m) no-op.  Returns whether anything
        moved.
        """
        order = np.asarray(order, dtype=np.intp)
        current = self._row_order
        if current is None:
            if np.array_equal(order, np.arange(self.m)):
                return False
            src = order
        else:
            if np.array_equal(order, current):
                return False
            position = np.empty(self.m, dtype=np.intp)
            position[current] = np.arange(self.m)
            src = position[order]
        for arr in self._row_arrays():
            arr[...] = arr[src]
        self._row_order = order.copy()
        return True

    # -- public evaluation -----------------------------------------------------

    def batch(self, encodings, work: WorkBuffers | None = None) -> np.ndarray:
        """Statistics for a batch of permutation encodings.

        Parameters
        ----------
        encodings:
            ``(nb, width)`` integer matrix (or a single ``(width,)`` vector,
            treated as a batch of one).
        work:
            Optional :class:`WorkBuffers` pool; when given, the returned
            matrix may be a pooled buffer that stays valid only until the
            next ``batch`` call with the same pool.

        Returns
        -------
        numpy.ndarray
            ``(m, nb)`` matrix in the compute dtype, original row order;
            NaN marks undefined statistics.
        """
        enc = np.asarray(encodings, dtype=np.int64)
        if enc.ndim == 1:
            enc = enc[None, :]
        if enc.ndim != 2 or enc.shape[1] != self.width:
            raise DataError(
                f"encodings must be (nb, {self.width}), got {enc.shape}"
            )
        if enc.shape[0] == 0:
            return np.empty((self.m, 0), dtype=self.compute_dtype)
        if work is None:
            work = WorkBuffers()
        return self._evaluate(enc, work, row_block(self.m, enc.shape[0]))

    def _evaluate(self, enc, work: WorkBuffers, rows: int):
        """Score ``enc`` in blocks of ``rows``; original row order."""
        m, nb = self.m, enc.shape[0]
        order = self._row_order
        with np.errstate(invalid="ignore", divide="ignore"):
            operands = self.batch_operands(enc, work)
            if rows >= m and order is None:
                return self.score_rows(operands, 0, m, work)
            out = np.empty((m, nb), dtype=self.compute_dtype)
            for lo in range(0, m, rows):
                hi = min(lo + rows, m)
                rows_out = slice(lo, hi) if order is None else order[lo:hi]
                out[rows_out] = self.score_rows(operands, lo, hi, work)
        return out

    def observed(self) -> np.ndarray:
        """Statistic under the observed labelling (length ``m``).

        The encoding is scored twice over, as a 2-column GEMM in
        4096-row blocks (the fastest of 1024-8192 at 36612x76 on a 2-core
        host), and column 0 is kept.  A 1-column product is a GEMV, whose
        threaded split rounds some rows differently in the last bit: at
        6102x76 and 36612x76, 1-4 rows of ``t``, ``t.equalvar``, ``f``
        and ``pairt`` differed between a 1- and a 2-thread BLAS pool.  The
        2-column form differed in none, so every rank reports the same
        bits whatever its BLAS cap.
        """
        work = WorkBuffers()
        encoding = self.observed_encoding()
        enc = np.stack([encoding, encoding])
        return self._evaluate(enc, work, 4096)[:, 0]

    def observed_encoding(self) -> np.ndarray:
        """Encoding of the observed labelling (identity permutation)."""
        return self.observed_labels.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(m={self.m}, n={self.n}, name={self.name!r})"


class TwoSampleMoments:
    """Masked first/second-moment engine shared by the two-sample statistics.

    Precomputes the row totals once, then for a batch of 0/1 label vectors
    returns per-class counts, means and sums of squared deviations via
    GEMMs over one row block.  Columns whose cell is missing for a given
    row simply contribute zero to every product, so missingness costs
    nothing per permutation.
    """

    def __init__(self, X: np.ndarray):
        V = valid_mask(X)
        self.Xz = np.where(V, X, X.dtype.type(0))
        self.Xz2 = self.Xz * self.Xz
        #: With no missing cells every row of the mask is all ones, so the
        #: class-1 count GEMM ``V @ G`` degenerates to the column sums of
        #: ``G`` — one ``(1, nb)`` row per batch instead of an ``(m, nb)``
        #: GEMM.  The values are identical (exact small integers in float),
        #: so the shortcut is bit-transparent; it removes one of the three
        #: GEMMs on clean data, the common case.  ``count_mask`` is what
        #: :func:`class_member_counts` consumes: the float mask when it
        #: matters, ``None`` when the column-sum shortcut applies.
        self.all_valid = bool(V.all())
        self.count_mask = None if self.all_valid else V.astype(X.dtype)
        # Row totals over all valid cells (class-0 moments follow by
        # subtraction, saving three GEMMs per batch).  Valid counts are
        # exact small integers, so summing the boolean mask gives the
        # float mask's row sums without building that mask on clean data.
        self.n_valid = V.sum(axis=1).astype(X.dtype)
        self.sum_all = self.Xz.sum(axis=1, dtype=X.dtype)
        self.sumsq_all = self.Xz2.sum(axis=1, dtype=X.dtype)

    def row_arrays(self) -> tuple[np.ndarray, ...]:
        """The per-row operands (see :meth:`TestStatistic.order_rows`)."""
        rows = (self.Xz, self.Xz2, self.n_valid, self.sum_all, self.sumsq_all)
        return rows if self.count_mask is None else rows + (self.count_mask,)

    def centred(self, operands, lo: int, hi: int, work: WorkBuffers):
        """Both classes' moments for rows ``[lo, hi)`` of the batch
        :func:`two_class_operands` prepared:
        ``(N1, N0, inv1, inv0, mean1, mean0, ss1, ss0)``.

        ``invj = 1 / Nj`` is formed once on the counts' shape — ``(1, 1)``
        or ``(1, nb)`` on fully-valid data, the block's shape with
        missing cells — so the means are products, not divides.  ``ssj``
        is the within-class sum of squared deviations ``Qj - Sj meanj``,
        clamped at zero: floating-point cancellation can leave a tiny
        negative on a constant row, and the zero-scale guard must fire
        there instead.  Every block-shaped result is a pooled buffer.
        """
        dt = self.Xz.dtype
        G = operands[0]
        shape = (hi - lo, G.shape[1])
        N1, N0 = two_class_counts(operands, self.count_mask, self.n_valid,
                                  lo, hi, work, dt)
        inv1 = np.divide(1.0, N1, out=work.take("inv1", N1.shape, dt))
        inv0 = np.divide(1.0, N0, out=work.take("inv0", N0.shape, dt))
        S1 = np.matmul(self.Xz[lo:hi], G, out=work.take("S1", shape, dt))
        Q1 = np.matmul(self.Xz2[lo:hi], G, out=work.take("Q1", shape, dt))
        S0 = np.subtract(self.sum_all[lo:hi, None], S1,
                         out=work.take("S0", shape, dt))
        Q0 = np.subtract(self.sumsq_all[lo:hi, None], Q1,
                         out=work.take("Q0", shape, dt))
        mean1 = np.multiply(S1, inv1, out=work.take("mean1", shape, dt))
        mean0 = np.multiply(S0, inv0, out=work.take("mean0", shape, dt))
        for S, Q, mean in ((S1, Q1, mean1), (S0, Q0, mean0)):
            np.multiply(S, mean, out=S)
            np.subtract(Q, S, out=Q)
            np.maximum(Q, 0.0, out=Q)
        return N1, N0, inv1, inv0, mean1, mean0, Q1, Q0
