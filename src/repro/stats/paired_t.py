"""Paired t-statistic (``test = "pairt"``).

The layout follows multtest: ``n = 2 * npairs`` columns, the two members of
pair ``i`` in columns ``2i`` and ``2i + 1``, labelled 0 and 1 within each
pair.  The per-row differences ``d_i = x(class 1 member) - x(class 0
member)`` are formed once; a permutation is a vector of signs ``z in
{+1, -1}^npairs`` (swap a pair = flip its difference) and the statistic is::

    t = mean(z * d) / sqrt(var(z * d) / np_valid)

Pairs with either member missing are dropped from the row.  Two quantities
are sign-invariant — the valid-pair count and ``sum(d^2)`` — so per batch the
kernel needs a single GEMM ``D @ Z^T``.  Rows with fewer than two valid pairs
or zero variance yield NaN.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import TestStatistic, gemm_operand
from .na import valid_mask

__all__ = ["PairedT"]


class PairedT(TestStatistic):
    name = "pairt"
    family = "signs"

    @property
    def width(self) -> int:
        return self.npairs

    def _validate_design(self, labels: np.ndarray) -> None:
        if labels.size % 2 != 0:
            raise DataError(
                f"test='pairt' needs an even number of columns, got {labels.size}"
            )
        self.npairs = labels.size // 2
        pairs = labels.reshape(self.npairs, 2)
        if not (np.sort(pairs, axis=1) == np.array([0, 1])).all():
            raise DataError(
                "test='pairt' requires each adjacent column pair to carry "
                "labels {0, 1}"
            )

    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        pairs = labels.reshape(self.npairs, 2)
        cols = np.arange(self.n).reshape(self.npairs, 2)
        # Column of the class-1 member minus column of the class-0 member.
        one_is_second = pairs[:, 1] == 1
        col1 = np.where(one_is_second, cols[:, 1], cols[:, 0])
        col0 = np.where(one_is_second, cols[:, 0], cols[:, 1])
        D = X[:, col1] - X[:, col0]  # NaN when either member is missing
        Vp = valid_mask(D)
        self._Dz = np.where(Vp, D, X.dtype.type(0))
        self._np_valid = Vp.astype(X.dtype).sum(axis=1, dtype=X.dtype)
        self._np_valid_m1 = self._np_valid - 1.0
        self._few = self._np_valid < 2
        self._sumsq = (self._Dz * self._Dz).sum(axis=1, dtype=X.dtype)

    def observed_encoding(self) -> np.ndarray:
        return np.ones(self.npairs, dtype=np.int64)

    def _row_arrays(self):
        return (self._Dz, self._np_valid, self._np_valid_m1, self._few,
                self._sumsq)

    def batch_operands(self, encodings, work):
        """The float sign block."""
        if not np.isin(encodings, (-1, 1)).all():
            raise DataError("pairt encodings must be +/-1 sign vectors")
        return gemm_operand(encodings, work, self.compute_dtype)

    def score_rows(self, operands, lo, hi, work) -> np.ndarray:
        Z = operands
        npv = self._np_valid[lo:hi, None]
        shape, dt = (hi - lo, Z.shape[1]), self._Dz.dtype
        S = np.matmul(self._Dz[lo:hi], Z, out=work.take("S", shape, dt))
        mean = np.divide(S, npv, out=work.take("mean", shape, dt))
        np.multiply(S, mean, out=S)
        np.subtract(self._sumsq[lo:hi, None], S, out=S)
        var = np.divide(S, self._np_valid_m1[lo:hi, None], out=S)
        np.maximum(var, 0.0, out=var)
        np.divide(var, npv, out=var)
        se = np.sqrt(var, out=var)
        t = np.divide(mean, se, out=mean)
        bad = np.equal(se, 0.0, out=work.take("bad", shape, bool))
        np.logical_or(bad, self._few[lo:hi, None], out=bad)
        t[bad] = np.nan
        return t
