"""Standardized rank-sum Wilcoxon statistic (``test = "wilcoxon"``).

Per row, the data are replaced by average ranks over the valid samples and
the statistic is the standardized class-1 rank sum::

    W  = sum of class-1 ranks
    E  = n1 * (nv + 1) / 2
    sd = sqrt(n0 * n1 * (nv + 1) / 12)
    z  = (W - E) / sd

with ``nv = n0 + n1`` the row's valid sample count.  Like multtest, no tie
correction is applied to the variance (average ranks are used for ties, so
tied data are handled, just with a slightly conservative scale).  The ranks
depend only on the data, never on the labels, so they are computed once at
construction and every permutation costs two GEMMs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import (TestStatistic, mask_undefined, two_class_counts,
                   two_class_operands)
from .na import row_ranks, valid_mask

__all__ = ["Wilcoxon"]


class Wilcoxon(TestStatistic):
    name = "wilcoxon"
    family = "label"
    _rank_based = True

    def _validate_design(self, labels: np.ndarray) -> None:
        classes = np.unique(labels)
        if not np.array_equal(classes, [0, 1]):
            raise DataError(
                f"test='wilcoxon' needs class labels {{0, 1}}, "
                f"got classes {classes.tolist()}"
            )

    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        V = valid_mask(X)
        Vf = V.astype(X.dtype)
        # With no missing cells the count GEMM degenerates to column sums
        # of the encoding block (class_member_counts with a None mask),
        # halving the per-batch GEMM work; see TwoSampleMoments.all_valid.
        self._all_valid = bool(V.all())
        self._count_mask = None if self._all_valid else Vf
        # 0 at missing cells -> inert in the GEMM
        self._R = row_ranks(X).astype(X.dtype, copy=False)
        self._n_valid = Vf.sum(axis=1, dtype=X.dtype)
        self._nvp = self._n_valid + 1.0

    def _row_arrays(self):
        rows = (self._R, self._n_valid, self._nvp)
        return rows if self._count_mask is None \
            else rows + (self._count_mask,)

    def batch_operands(self, encodings, work):
        return two_class_operands(encodings, work, self.compute_dtype,
                                  self._all_valid)

    def score_rows(self, operands, lo, hi, work) -> np.ndarray:
        # z = (W - N1 (nv+1)/2) / sqrt(N0 N1 (nv+1)/12) through pooled
        # buffers; N1/N0 are (1, nb) rows or (1, 1) scalars on fully-valid
        # data.  E and SD take the counts' width: with scalar counts they
        # are one column per row, broadcast into W.
        G = operands[0]
        shape, dt = (hi - lo, G.shape[1]), self.compute_dtype
        N1, N0 = two_class_counts(operands, self._count_mask, self._n_valid,
                                  lo, hi, work, dt)
        W = np.matmul(self._R[lo:hi], G,
                      out=work.take("W", shape, dt))
        nvp = self._nvp[lo:hi, None]
        per_count = (hi - lo, N1.shape[1])
        expected = np.multiply(N1, nvp, out=work.take("E", per_count, dt))
        np.divide(expected, 2.0, out=expected)
        prod = np.multiply(N0, N1, out=work.take("NN", N1.shape, dt))
        sd = np.multiply(prod, nvp, out=work.take("SD", per_count, dt))
        np.divide(sd, 12.0, out=sd)
        np.sqrt(sd, out=sd)
        np.subtract(W, expected, out=W)
        z = np.divide(W, sd, out=W)
        return mask_undefined(z, sd, N1, N0, 1, work)
