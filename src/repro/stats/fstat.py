"""One-way ANOVA F-statistic (``test = "f"``).

Per row, with ``k`` classes over the valid samples::

    F = [ SS_between / (k - 1) ] / [ SS_within / (nv - k) ]

where ``SS_between = sum_j n_j (mean_j - mean)^2`` and ``SS_within`` is the
pooled within-class sum of squared deviations.  Classes with no valid sample
in a row make the statistic NaN (the design is broken for that row), as does
zero within-class variance.

Vectorization: per batch, one GEMM per class against the masked data, masked
squares and validity matrices (``3k`` GEMMs total) yields all class counts,
sums and sums of squares for all rows simultaneously.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import TestStatistic, class_member_counts
from .na import valid_mask

__all__ = ["FStat"]


class FStat(TestStatistic):
    name = "f"
    family = "label"

    def _validate_design(self, labels: np.ndarray) -> None:
        classes = np.unique(labels)
        self.k = int(classes.size)
        if self.k < 2:
            raise DataError("test='f' needs at least 2 classes")
        if not np.array_equal(classes, np.arange(self.k)):
            raise DataError(
                f"test='f' needs dense class labels 0..k-1, got {classes.tolist()}"
            )

    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        V = valid_mask(X)
        Vf = V.astype(X.dtype)
        # Clean data: per-class count GEMMs degenerate to encoding column
        # sums (class_member_counts with a None mask), halving the
        # per-batch GEMM count.
        self._count_mask = None if V.all() else Vf
        self._Xz = np.where(V, X, X.dtype.type(0))
        nv = Vf.sum(axis=1, dtype=X.dtype)
        grand_sum = self._Xz.sum(axis=1, dtype=X.dtype)
        sumsq_all = (self._Xz * self._Xz).sum(axis=1, dtype=X.dtype)
        # Permutation-invariant per-row terms, formed once.
        with np.errstate(invalid="ignore", divide="ignore"):
            self._gg = grand_sum * grand_sum / nv
            self._ss_total = sumsq_all - self._gg
        self._dof_w = nv - self.k
        self._few = self._dof_w < 1.0

    def _row_arrays(self):
        rows = (self._Xz, self._gg, self._ss_total, self._dof_w, self._few)
        return rows if self._count_mask is None \
            else rows + (self._count_mask,)

    def batch_operands(self, encodings, work):
        """Per-class indicator blocks and, on clean data, their counts."""
        dt = self.compute_dtype
        indicators = [self._class_indicator(encodings, j, work)
                      for j in range(self.k)]
        if self._count_mask is not None:
            return indicators, [None] * self.k
        return indicators, [class_member_counts(None, Gj, work, f"N{j}", dt)
                            for j, Gj in enumerate(indicators)]

    def score_rows(self, operands, lo, hi, work) -> np.ndarray:
        indicators, class_counts = operands
        shape = (hi - lo, indicators[0].shape[1])
        dt = self.compute_dtype
        Xz = self._Xz[lo:hi]
        mask = None if self._count_mask is None else self._count_mask[lo:hi]
        # Accumulate sum_j S_j^2 / n_j and detect empty classes.
        between_raw = work.take("between", shape, dt)
        between_raw[...] = 0
        broken = work.take("broken", shape, bool)
        broken[...] = False
        for Gj, Nj in zip(indicators, class_counts):
            if Nj is None:
                Nj = class_member_counts(mask, Gj, work, "Nj", dt)
            Sj = np.matmul(Xz, Gj, out=work.take("Sj", shape, dt))
            empty = np.equal(Nj, 0.0, out=work.take("empty", Nj.shape, bool))
            with np.errstate(invalid="ignore", divide="ignore"):
                np.multiply(Sj, Sj, out=Sj)
                contrib = np.divide(Sj, Nj, out=Sj)
            if empty.shape == contrib.shape:
                np.logical_or(broken, empty, out=broken)
                contrib[empty] = 0.0
            elif empty.any():   # (1, nb) row or (1, 1) scalar: mask columns
                np.logical_or(broken, empty, out=broken)
                contrib[:, slice(None) if empty.size == 1 else empty[0]] = 0.0
            between_raw += contrib
        gg = self._gg[lo:hi, None]
        ss_between = np.subtract(between_raw, gg, out=between_raw)
        ss_within = np.subtract(self._ss_total[lo:hi, None], ss_between,
                                out=work.take("within", shape, dt))
        np.maximum(ss_within, 0.0, out=ss_within)
        np.maximum(ss_between, 0.0, out=ss_between)
        dof_b = self.k - 1.0
        dof_w = self._dof_w[lo:hi, None]
        # Capture the zero-variance mask before ss_within is divided away.
        zero = np.equal(ss_within, 0.0, out=work.take("empty", shape, bool))
        np.logical_or(broken, self._few[lo:hi, None], out=broken)
        np.logical_or(broken, zero, out=broken)
        np.divide(ss_between, dof_b, out=ss_between)
        np.divide(ss_within, dof_w, out=ss_within)
        F = np.divide(ss_between, ss_within, out=ss_between)
        F[broken] = np.nan
        return F
