"""Westfall–Young step-down maxT p-value computation.

The maxT procedure (Westfall & Young 1993; Ge, Dudoit et al. 2003) controls
the family-wise error rate.  With observed statistics ``t_i`` over ``m``
hypotheses and ``B`` permutations (the observed labelling included as
permutation 0):

1. **Side adjustment** — the rejection-region option maps each statistic to
   an "extremeness" score: ``abs -> |t|``, ``upper -> t``, ``lower -> -t``.
   Undefined statistics (NaN) map to ``-inf`` so they are never extreme.
2. **Ordering** — hypotheses are sorted by decreasing observed score
   (``s_(1) >= ... >= s_(m)``), ties kept in original row order.
3. **Successive maxima** — for each permutation ``b``, with permuted scores
   ``s*_(i),b`` in the observed ordering, ``u_(m),b = s*_(m),b`` and
   ``u_(i),b = max(u_(i+1),b, s*_(i),b)`` walking up the ordering.
4. **Counting** — ``adjcount_(i) = #{b : u_(i),b >= s_(i)}`` and
   ``rawcount_i = #{b : s*_i,b >= s_i}``.  The observed permutation
   contributes 1 to every count, so p-values are never zero.
5. **p-values** — ``rawp_i = rawcount_i / B``; ``adjp_(i) = adjcount_(i)/B``
   made monotone down the ordering:
   ``adjp_(i) = max(adjp_(i-1), adjp_(i))`` (step-down enforcement).

The counting in step 4 is a plain sum over permutations, which is what makes
the SPRINT decomposition work: each rank accumulates counts over its own
chunk and a single reduction on the master yields the serial totals.
"""

from __future__ import annotations

import numpy as np

from ..errors import OptionError

__all__ = [
    "SIDES",
    "side_adjust",
    "significance_order",
    "successive_maxima",
    "pvalues_from_counts",
]

#: The three rejection-region options of the R interface.
SIDES: tuple[str, ...] = ("abs", "upper", "lower")


def side_adjust(values: np.ndarray, side: str,
                out: np.ndarray | None = None) -> np.ndarray:
    """Map raw statistics to extremeness scores for the chosen ``side``.

    NaN (undefined statistic) becomes ``-inf``: it never beats any observed
    score, so untestable rows never count as extreme.

    ``out`` may alias ``values`` (the kernel adjusts statistics in place in
    their workspace buffer); the result values are identical either way.
    Floating inputs keep their dtype (the float32 compute mode flows
    through); everything else is computed in float64.
    """
    if side not in SIDES:
        raise OptionError(f"side must be one of {SIDES}, got {side!r}")
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(np.float64)
    if out is None:
        out = np.empty(values.shape, dtype=values.dtype)
    if side == "abs":
        np.abs(values, out=out)
    elif side == "upper":
        np.copyto(out, values)
    else:
        np.negative(values, out=out)
    # fmax returns the non-NaN operand: NaN -> -inf, everything else as
    # is, in place and without a mask.
    np.fmax(out, -np.inf, out=out)
    return out


def significance_order(scores: np.ndarray) -> np.ndarray:
    """Row indices sorted by decreasing observed score (stable on ties).

    ``scores`` are already side-adjusted.  The returned ``order`` satisfies
    ``scores[order]`` non-increasing; rows with equal scores keep their
    original relative order, matching a stable sort of the serial code.
    """
    return np.argsort(-scores, kind="stable")


def successive_maxima(scores_ordered: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Step-down successive maxima along the significance ordering.

    Parameters
    ----------
    scores_ordered:
        ``(m, nb)`` permuted scores already arranged in the observed
        significance ordering (most significant row first).

    Returns
    -------
    numpy.ndarray
        ``u`` of the same shape: ``u[i] = max(scores_ordered[i:], axis=0)``.

    Notes
    -----
    ``out`` may be ``scores_ordered`` itself: the accumulation walks the
    rows bottom-up in place, which is how the kernel workspace computes the
    step-down maxima without a scratch matrix.
    """
    if out is None:
        return np.maximum.accumulate(scores_ordered[::-1], axis=0)[::-1]
    np.maximum.accumulate(scores_ordered[::-1], axis=0, out=out[::-1])
    return out


def pvalues_from_counts(
    raw_counts: np.ndarray,
    adj_counts_ordered: np.ndarray,
    order: np.ndarray,
    nperm: int,
    untestable: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble raw and step-down adjusted p-values in original row order.

    Parameters
    ----------
    raw_counts:
        Per-row counts ``#{b : s*_i,b >= s_i}`` in **original** row order.
    adj_counts_ordered:
        Per-row counts ``#{b : u_(i),b >= s_(i)}`` in **significance**
        order.
    order:
        The significance ordering (original row index of ordered position i).
    nperm:
        Total permutations ``B`` (the denominator).
    untestable:
        Optional boolean mask (original order) of rows whose observed
        statistic is undefined; their p-values are reported as NaN, the way
        multtest reports NA.

    Returns
    -------
    (rawp, adjp)
        Both in original row order.
    """
    rawp = np.asarray(raw_counts, dtype=np.float64) / float(nperm)
    adjp_ordered = np.asarray(adj_counts_ordered, dtype=np.float64) / float(nperm)
    # Step-down monotonicity enforcement: walking down the ordering the
    # adjusted p-value can never decrease.
    adjp_ordered = np.maximum.accumulate(adjp_ordered)
    adjp = np.empty_like(adjp_ordered)
    adjp[order] = adjp_ordered
    if untestable is not None and untestable.any():
        rawp = np.where(untestable, np.nan, rawp)
        adjp = np.where(untestable, np.nan, adjp)
    return rawp, adjp
