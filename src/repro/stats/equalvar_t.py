"""Two-sample pooled-variance t-statistic (``test = "t.equalvar"``).

The classical two-sample t assuming equal variances::

    sp2 = (SS1 + SS0) / (n1 + n0 - 2)
    t   = (mean1 - mean0) / sqrt(sp2 * (1/n1 + 1/n0))

where ``SSj`` is the within-class sum of squared deviations over the row's
valid samples.  Rows with fewer than two valid samples in a class (or with
zero pooled variance) yield NaN.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import (TestStatistic, TwoSampleMoments, mask_undefined,
                   two_class_operands)

__all__ = ["EqualVarT"]


class EqualVarT(TestStatistic):
    name = "t.equalvar"
    family = "label"

    def _validate_design(self, labels: np.ndarray) -> None:
        classes = np.unique(labels)
        if not np.array_equal(classes, [0, 1]):
            raise DataError(
                f"test='t.equalvar' needs class labels {{0, 1}}, "
                f"got classes {classes.tolist()}"
            )

    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        self._moments = TwoSampleMoments(X)

    def _row_arrays(self):
        return self._moments.row_arrays()

    def batch_operands(self, encodings, work):
        return two_class_operands(encodings, work, self.compute_dtype,
                                  self._moments.all_valid)

    def score_rows(self, operands, lo, hi, work) -> np.ndarray:
        # t = (mean1 - mean0) / sqrt((ss1 + ss0) k), where
        # k = (1/N1 + 1/N0) / (N1 + N0 - 2) takes the counts' shape, so
        # on fully-valid data the block pays one divide (the last) and
        # one sqrt per element.
        N1, N0, inv1, inv0, mean1, mean0, ss1, ss0 = self._moments.centred(
            operands, lo, hi, work)
        k = np.add(N1, N0, out=work.take("dof", N1.shape, self.compute_dtype))
        np.subtract(k, 2.0, out=k)
        np.divide(np.add(inv1, inv0, out=inv1), k, out=k)
        np.add(ss1, ss0, out=ss1)
        np.multiply(ss1, k, out=ss1)
        se = np.sqrt(ss1, out=ss1)
        np.subtract(mean1, mean0, out=mean1)
        t = np.divide(mean1, se, out=mean1)
        return mask_undefined(t, se, N1, N0, 2, work)
