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
        # sp2 = (ss1 + ss0) / (N1 + N0 - 2);
        # t = (mean1 - mean0) / sqrt(sp2 * (1/N1 + 1/N0)), through pooled
        # buffers (Q1 carries ss1 -> sp2 -> se; S1/S0 become scratch once
        # their products are folded in).  N1/N0 may be (1, nb) rows or
        # (1, 1) scalars on fully-valid data, so count-derived scratch
        # broadcasts.
        N1, S1, Q1, N0, S0, Q0 = self._moments.split(operands, lo, hi,
                                                      work)
        shape, dt = S1.shape, self.compute_dtype
        mean1 = np.divide(S1, N1, out=work.take("mean1", shape, dt))
        mean0 = np.divide(S0, N0, out=work.take("mean0", shape, dt))
        np.multiply(S1, mean1, out=S1)
        np.subtract(Q1, S1, out=Q1)        # ss1
        np.multiply(S0, mean0, out=S0)
        np.subtract(Q0, S0, out=Q0)        # ss0
        np.maximum(Q1, 0.0, out=Q1)
        np.maximum(Q0, 0.0, out=Q0)
        dof = np.add(N1, N0, out=work.take("dof", N1.shape, dt))
        np.subtract(dof, 2.0, out=dof)
        np.add(Q1, Q0, out=Q1)
        np.divide(Q1, dof, out=Q1)         # sp2
        inv1 = np.divide(1.0, N1, out=work.take("inv1", N1.shape, dt))
        inv0 = np.divide(1.0, N0, out=work.take("inv0", N0.shape, dt))
        np.add(inv1, inv0, out=inv1)
        np.multiply(Q1, inv1, out=Q1)
        se = np.sqrt(Q1, out=Q1)
        np.subtract(mean1, mean0, out=mean1)
        t = np.divide(mean1, se, out=mean1)
        return mask_undefined(t, se, N1, N0, 2, work)
