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
        # t = (mean1 - mean0) / sqrt(ss1 c1 + ss0 c0), where
        # cj = 1 / ((Nj - 1) Nj) folds var_j = ssj / (Nj - 1) and its
        # / Nj into one multiply.  The c's take the counts' shape, so on
        # fully-valid data the block pays one divide (the last) and one
        # sqrt per element.
        N1, N0, _, _, mean1, mean0, ss1, ss0 = self._moments.centred(
            operands, lo, hi, work)
        dt = self.compute_dtype
        for key, N, ss in (("c1", N1, ss1), ("c0", N0, ss0)):
            c = np.subtract(N, 1.0, out=work.take(key, N.shape, dt))
            np.multiply(c, N, out=c)
            np.divide(1.0, c, out=c)
            np.multiply(ss, c, out=ss)
        np.add(ss1, ss0, out=ss1)
        se = np.sqrt(ss1, out=ss1)
        np.subtract(mean1, mean0, out=mean1)
        t = np.divide(mean1, se, out=mean1)
        return mask_undefined(t, se, N1, N0, 2, work)
