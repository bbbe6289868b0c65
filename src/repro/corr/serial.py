"""Serial Pearson correlation of matrix rows (R's ``cor`` on ``t(X)``).

SPRINT's first parallel function — before ``pmaxT`` — was ``pcor``, a
parallel replacement for R's correlation function on microarray matrices
(Hill et al. 2008, cited as [2] in the paper).  This module provides the
serial reference: the ``m x m`` Pearson correlation matrix between the rows
of an ``m x n`` expression matrix (or the ``m x k`` cross-correlation
against a second matrix's rows).

Missing values are handled in the two standard modes:

``complete``
    any column containing a missing value in *either* row is dropped for
    **all** pairs (R's ``use = "complete.obs"``); implemented by deleting
    the offending columns once.
``pairwise``
    each pair of rows uses the columns where *both* are observed
    (R's ``use = "pairwise.complete.obs"``); implemented with masked GEMMs
    (six ``m x m`` products), so it stays BLAS-bound.

Degenerate pairs (fewer than two common observations, or zero variance on
the common support) yield NaN, as in R.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..stats.na import to_nan, valid_mask

__all__ = ["cor"]

_USES = ("everything", "complete", "pairwise")


def cor(X, Y=None, *, use: str = "everything",
        na: float | None = None) -> np.ndarray:
    """Pearson correlation between the rows of ``X`` (and optionally ``Y``).

    Parameters
    ----------
    X:
        ``m x n`` matrix; rows are the variables being correlated.
    Y:
        Optional ``k x n`` matrix; when given, the result is the ``m x k``
        cross-correlation between rows of ``X`` and rows of ``Y``.
    use:
        Missing-value policy: ``"everything"`` (NaN poisons its row's
        correlations, R's default), ``"complete"`` or ``"pairwise"``.
    na:
        Optional numeric missing-value code (as in the pmaxT interface).

    Returns
    -------
    numpy.ndarray
        ``m x m`` (or ``m x k``) float64 correlation matrix.
    """
    if use not in _USES:
        raise DataError(f"use must be one of {_USES}, got {use!r}")
    X = to_nan(X, na)
    symmetric = Y is None
    Y = X if symmetric else to_nan(Y, na)
    if Y.shape[1] != X.shape[1]:
        raise DataError(
            f"X and Y need the same column count, got {X.shape[1]} and "
            f"{Y.shape[1]}"
        )
    if X.shape[1] < 2:
        raise DataError("correlation needs at least 2 columns")

    if use == "complete":
        keep = valid_mask(X).all(axis=0) & valid_mask(Y).all(axis=0)
        if keep.sum() < 2:
            raise DataError(
                "fewer than 2 complete columns; use='pairwise' instead"
            )
        X = X[:, keep]
        Y = Y[:, keep] if not symmetric else X
        return _cor_dense(X, Y)
    if use == "everything":
        return _cor_dense(X, Y)
    return _cor_pairwise(X, Y)


def _cor_dense(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Correlation with no masking; NaN inputs propagate like R."""

    def standardize(M):
        mean = M.mean(axis=1, keepdims=True)
        centred = M - mean
        scale = np.sqrt((centred * centred).sum(axis=1, keepdims=True))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = centred / scale
        out[np.broadcast_to(scale == 0, out.shape)] = np.nan
        return out

    R = standardize(X) @ standardize(Y).T
    return np.clip(R, -1.0, 1.0, out=R)


def _cor_pairwise(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise-complete correlation via masked GEMMs."""
    Vx = valid_mask(X).astype(np.float64)
    Vy = valid_mask(Y).astype(np.float64)
    Xz = np.where(Vx > 0, X, 0.0)
    Yz = np.where(Vy > 0, Y, 0.0)

    N = Vx @ Vy.T                      # common observation counts
    Sx = Xz @ Vy.T                     # sum of x over common support
    Sy = Vx @ Yz.T                     # sum of y over common support
    Sxy = Xz @ Yz.T
    Sxx = (Xz * Xz) @ Vy.T
    Syy = Vx @ (Yz * Yz).T

    with np.errstate(invalid="ignore", divide="ignore"):
        cov = Sxy - Sx * Sy / N
        varx = Sxx - Sx * Sx / N
        vary = Syy - Sy * Sy / N
        np.maximum(varx, 0.0, out=varx)
        np.maximum(vary, 0.0, out=vary)
        R = cov / np.sqrt(varx * vary)
    R = np.where((N < 2) | (varx == 0) | (vary == 0), np.nan, R)
    return np.clip(R, -1.0, 1.0, out=R)
