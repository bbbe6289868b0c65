"""Block-adjusted F-statistic (``test = "blockf"``).

Randomized complete block design: ``n = nblocks * k`` columns, block ``b``
occupying columns ``b*k .. (b+1)*k - 1`` with each of the ``k`` treatments
appearing exactly once per block.  The statistic is the two-way ANOVA F for
the treatment effect after removing the block effect::

    F = [ SS_treat / (k - 1) ] / [ SS_resid / ((bv - 1)(k - 1)) ]
    SS_resid = SS_total - SS_block - SS_treat

Permutations shuffle treatment labels *within* blocks, so block membership —
and therefore ``SS_block``, ``SS_total`` and the grand sum — are permutation
invariant and precomputed once.  Only ``SS_treat`` changes, costing one GEMM
per treatment per batch.

Missing values: a row drops every block that contains a missing cell (the
only NA policy that keeps the design balanced, so treatment sums remain
comparable across permutations).  ``bv`` is the per-row count of surviving
blocks; rows with fewer than two valid blocks yield NaN.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import TestStatistic

__all__ = ["BlockF"]


class BlockF(TestStatistic):
    name = "blockf"
    family = "label"

    def _validate_design(self, labels: np.ndarray) -> None:
        classes = np.unique(labels)
        self.k = int(classes.size)
        if self.k < 2:
            raise DataError("test='blockf' needs at least 2 treatments")
        if not np.array_equal(classes, np.arange(self.k)):
            raise DataError(
                f"test='blockf' needs dense treatment labels 0..k-1, "
                f"got {classes.tolist()}"
            )
        if labels.size % self.k != 0:
            raise DataError(
                f"test='blockf' with k={self.k} treatments needs n divisible "
                f"by k, got n={labels.size}"
            )
        self.nblocks = labels.size // self.k
        if self.nblocks < 2:
            raise DataError("test='blockf' needs at least 2 blocks")
        blocks = labels.reshape(self.nblocks, self.k)
        if not (np.sort(blocks, axis=1) == np.arange(self.k)).all():
            raise DataError(
                "test='blockf' requires each block of k adjacent columns to "
                "contain each treatment exactly once"
            )

    def _prepare(self, X: np.ndarray, labels: np.ndarray) -> None:
        # Per-row validity is per *block*: any NaN in a block kills the block.
        cells = X.reshape(self.m, self.nblocks, self.k)
        block_ok = ~np.isnan(cells).any(axis=2)  # (m, nblocks)
        # Expand block validity back to columns for the GEMM mask.
        col_ok = np.repeat(block_ok, self.k, axis=1)  # (m, n)
        self._Xz = np.where(col_ok, np.nan_to_num(X, nan=0.0),
                            X.dtype.type(0))
        bv = block_ok.sum(axis=1).astype(X.dtype)  # valid blocks/row

        # Permutation-invariant per-row terms, formed once.
        nv = bv * self.k  # valid cells per row
        grand = self._Xz.sum(axis=1)
        sumsq = (self._Xz * self._Xz).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ss_total = sumsq - grand * grand / nv
            block_sums = (self._Xz.reshape(self.m, self.nblocks, self.k)).sum(axis=2)
            ss_block = (
                (block_sums * block_sums).sum(axis=1) / self.k - grand * grand / nv
            )
            self._gg = grand * grand / nv
            self._resid_base = ss_total - ss_block
        self._bv = bv
        self._dof_r = (bv - 1.0) * (self.k - 1.0)
        self._few = bv < 2

    def _row_arrays(self):
        return (self._Xz, self._bv, self._gg, self._resid_base, self._dof_r,
                self._few)

    def batch_operands(self, encodings, work):
        """The per-treatment indicator blocks."""
        return [self._class_indicator(encodings, j, work)
                for j in range(self.k)]

    def score_rows(self, operands, lo, hi, work) -> np.ndarray:
        shape = (hi - lo, operands[0].shape[1])
        dt = self._Xz.dtype
        bv = self._bv[lo:hi, None]
        Xz = self._Xz[lo:hi]
        treat_raw = work.take("treat", shape, dt)
        treat_raw[...] = 0
        for Gj in operands:
            # treatment-j sum per row per permutation
            Sj = np.matmul(Xz, Gj, out=work.take("Sj", shape, dt))
            np.multiply(Sj, Sj, out=Sj)
            treat_raw += Sj
        np.divide(treat_raw, bv, out=treat_raw)
        ss_treat = np.subtract(treat_raw, self._gg[lo:hi, None], out=treat_raw)
        np.maximum(ss_treat, 0.0, out=ss_treat)
        ss_resid = np.subtract(self._resid_base[lo:hi, None], ss_treat,
                               out=work.take("resid", shape, dt))
        np.maximum(ss_resid, 0.0, out=ss_resid)
        dof_t = self.k - 1.0
        # Capture the degenerate mask before ss_resid is divided in place.
        bad = np.equal(ss_resid, 0.0, out=work.take("bad", shape, bool))
        np.logical_or(bad, self._few[lo:hi, None], out=bad)
        np.divide(ss_treat, dof_t, out=ss_treat)
        np.divide(ss_resid, self._dof_r[lo:hi, None], out=ss_resid)
        F = np.divide(ss_treat, ss_resid, out=ss_treat)
        F[bad] = np.nan
        return F
