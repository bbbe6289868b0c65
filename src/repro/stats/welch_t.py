"""Two-sample Welch t-statistic (``test = "t"``).

The default ``mt.maxT`` statistic: a two-sample t allowing unequal variances
(Welch), computed per row as::

    t = (mean1 - mean0) / sqrt(var1 / n1 + var0 / n0)

with ``var`` the unbiased sample variance over the row's non-missing samples
in each class.  Rows where either class has fewer than two valid samples, or
where the pooled standard error is zero, yield NaN.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import (TestStatistic, TwoSampleMoments, mask_undefined,
                   two_class_operands)

__all__ = ["WelchT"]


class WelchT(TestStatistic):
    name = "t"
    family = "label"

    def _validate_design(self, labels: np.ndarray) -> None:
        classes = np.unique(labels)
        if not np.array_equal(classes, [0, 1]):
            raise DataError(
                f"test='t' needs class labels {{0, 1}}, got classes {classes.tolist()}"
            )

    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        self._moments = TwoSampleMoments(X)

    def _row_arrays(self):
        return self._moments.row_arrays()

    def batch_operands(self, encodings, work):
        return two_class_operands(encodings, work, self.compute_dtype,
                                  self._moments.all_valid)

    def score_rows(self, operands, lo, hi, work) -> np.ndarray:
        # mean_j = S_j / N_j; var_j = (Q_j - S_j mean_j) / (N_j - 1);
        # t = (mean1 - mean0) / sqrt(var1/N1 + var0/N0), routed through
        # pooled buffers (S_j is consumed by the variance product, Q_j
        # becomes the variance in place).  N1/N0 may be (1, nb) rows or
        # (1, 1) scalars on fully-valid data; their derived scratch
        # broadcasts.
        xp = work.xp
        N1, S1, Q1, N0, S0, Q0 = self._moments.split(operands, lo, hi,
                                                      work)
        shape, dt = S1.shape, self.compute_dtype
        mean1 = xp.divide(S1, N1, out=work.take("mean1", shape, dt))
        mean0 = xp.divide(S0, N0, out=work.take("mean0", shape, dt))
        xp.multiply(S1, mean1, out=S1)
        xp.subtract(Q1, S1, out=Q1)
        dof1 = xp.subtract(N1, 1.0, out=work.take("dof1", N1.shape, dt))
        var1 = xp.divide(Q1, dof1, out=Q1)
        xp.multiply(S0, mean0, out=S0)
        xp.subtract(Q0, S0, out=Q0)
        dof0 = xp.subtract(N0, 1.0, out=work.take("dof0", N0.shape, dt))
        var0 = xp.divide(Q0, dof0, out=Q0)
        # Floating-point cancellation can leave tiny negative variances on
        # constant rows; clamp so the zero-variance guard below fires instead.
        xp.maximum(var1, 0.0, out=var1)
        xp.maximum(var0, 0.0, out=var0)
        xp.divide(var1, N1, out=var1)
        xp.divide(var0, N0, out=var0)
        xp.add(var1, var0, out=var1)
        se = xp.sqrt(var1, out=var1)
        xp.subtract(mean1, mean0, out=mean1)
        t = xp.divide(mean1, se, out=mean1)
        return mask_undefined(t, se, N1, N0, 2, work)
