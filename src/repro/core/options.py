"""Option validation and problem assembly (Step 1 of the parallel algorithm).

This module is the Python equivalent of ``pmaxT``'s R-level pre-processing
script plus the master's Step 1: check the input parameters, normalise them
into the compact form the compute code expects, and resolve the permutation
plan (effective ``B``, complete vs random enumeration, store vs on-the-fly).

The user-facing keyword names deliberately mirror the R signature::

    pmaxT(X, classlabel, test="t", side="abs", fixed.seed.sampling="y",
          B=10000, na=.mt.naNUM, nonpara="n")

with ``.`` replaced by ``_`` for Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import OptionError
from ..permute import (
    CompleteBlock,
    CompleteMulticlass,
    CompleteSigns,
    CompleteTwoSample,
    DEFAULT_COMPLETE_LIMIT,
    DEFAULT_SEED,
    RandomBlockShuffle,
    RandomLabelShuffle,
    RandomSigns,
    StoredPermutations,
    resolve_permutation_count,
    should_store,
)
from ..permute.base import PermutationGenerator
from ..stats import MT_NA_NUM, available_tests, make_statistic
from ..stats.base import COMPUTE_DTYPES, TestStatistic
from .adjust import SIDES
from .kernel import DEFAULT_CHUNK

__all__ = ["MaxTOptions", "validate_options", "build_statistic", "build_generator"]

_TWO_SAMPLE_LIKE = ("t", "t.equalvar", "wilcoxon")


@dataclass(frozen=True)
class MaxTOptions:
    """Validated, normalised pmaxT options.

    This is the object broadcast to the workers in Step 2 — everything a
    rank needs (beyond the data itself) to reproduce its share of the
    permutation sequence.
    """

    test: str = "t"
    side: str = "abs"
    fixed_seed_sampling: str = "y"
    #: The user's requested permutation count (0 = complete).
    B: int = 10_000
    na: float = MT_NA_NUM
    nonpara: str = "n"
    seed: int = DEFAULT_SEED
    chunk_size: int = DEFAULT_CHUNK
    complete_limit: int = DEFAULT_COMPLETE_LIMIT
    #: Compute dtype of the statistic kernels ("float64" default;
    #: "float32" is the opt-in fast mode).
    dtype: str = "float64"
    #: Compute engine name ("auto" picks the best this host can drive;
    #: see :mod:`repro.accel`).  Never enters result-cache keys or
    #: checkpoint fingerprints: permutation streams are bit-identical
    #: across engines and counts int64-exact.
    engine: str = "auto"
    #: Rows per engine super-batch (0 = the engine's own default).
    engine_batch: int = 0
    #: Resolved total permutation count including the observed labelling
    #: (filled in by :func:`validate_options`).
    nperm: int = 0
    #: Whether complete enumeration is in effect (filled in).
    complete: bool = False
    #: Whether sampled permutations are materialised in memory (filled in).
    store: bool = False

    def describe(self) -> str:
        """One-line human-readable summary (used by examples and logs)."""
        gen = "complete" if self.complete else (
            "random/fixed-seed" if self.fixed_seed_sampling == "y"
            else "random/stream")
        store = "stored" if self.store else "on-the-fly"
        return (f"test={self.test} side={self.side} B={self.nperm} "
                f"({gen}, {store}, engine={self.engine})")


def validate_options(
    classlabel,
    *,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    engine: str = "auto",
    engine_batch: int = 0,
) -> MaxTOptions:
    """Validate the R-style options and resolve the permutation plan.

    Raises
    ------
    OptionError
        For any malformed option value.
    DataError
        If ``classlabel`` does not fit the requested test's design.
    CompletePermutationOverflow
        If ``B = 0`` requests a complete enumeration larger than
        ``complete_limit``.
    """
    if test not in available_tests():
        raise OptionError(
            f"unknown test {test!r}; available: {', '.join(available_tests())}"
        )
    if side not in SIDES:
        raise OptionError(f"side must be one of {SIDES}, got {side!r}")
    if fixed_seed_sampling not in ("y", "n"):
        raise OptionError(
            f"fixed.seed.sampling must be 'y' or 'n', got {fixed_seed_sampling!r}"
        )
    if nonpara not in ("y", "n"):
        raise OptionError(f"nonpara must be 'y' or 'n', got {nonpara!r}")
    if not isinstance(B, (int, np.integer)) or isinstance(B, bool):
        raise OptionError(f"B must be an integer, got {B!r}")
    if B < 0:
        raise OptionError(f"B must be >= 0 (0 = complete permutations), got {B}")
    if chunk_size <= 0:
        raise OptionError(f"chunk_size must be positive, got {chunk_size}")
    if str(dtype) not in COMPUTE_DTYPES:
        raise OptionError(
            f"dtype must be one of {COMPUTE_DTYPES}, got {dtype!r}")
    # Validate the engine name against the registry (unknown -> OptionError)
    # and, for an explicit name, that its module imports on this host
    # (missing -> EngineUnavailableError) — the failure surfaces here, on
    # the master in Step 1, not inside a worker pool.
    from ..accel import resolve_engine

    resolve_engine(str(engine))
    if not isinstance(engine_batch, (int, np.integer)) \
            or isinstance(engine_batch, bool) or engine_batch < 0:
        raise OptionError(
            f"engine_batch must be a non-negative integer "
            f"(0 = engine default), got {engine_batch!r}")

    nperm, complete = resolve_permutation_count(
        test, classlabel, int(B), limit=complete_limit
    )
    store = should_store(fixed_seed_sampling, complete, test)
    return MaxTOptions(
        test=test,
        side=side,
        fixed_seed_sampling=fixed_seed_sampling,
        B=int(B),
        na=float(na),
        nonpara=nonpara,
        seed=int(seed),
        chunk_size=int(chunk_size),
        complete_limit=int(complete_limit),
        dtype=str(dtype),
        engine=str(engine),
        engine_batch=int(engine_batch),
        nperm=nperm,
        complete=complete,
        store=store,
    )


def build_statistic(options: MaxTOptions, X, classlabel,
                    pre_ranked: bool = False) -> TestStatistic:
    """Instantiate the statistic for a validated option set.

    ``pre_ranked=True`` declares that ``X`` already carries the
    ``nonpara="y"`` wire — NA codes NaN-ified and the row-wise rank
    transform applied (a published dataset's shared rank variant) — so
    the statistic must not rank again, and must not interpret any value
    as the NA code (none survive the transform).
    """
    return make_statistic(
        options.test, X, classlabel,
        na=None if pre_ranked else options.na,
        nonpara="n" if pre_ranked else options.nonpara,
        dtype=options.dtype,
    )


def build_generator(options: MaxTOptions, classlabel) -> PermutationGenerator:
    """Instantiate the permutation generator for a validated option set.

    Implements the paper's Section 3.1 decision table: complete enumeration
    and ``blockf`` always use the on-the-fly (fixed-seed) generator; random
    sampling honours ``fixed.seed.sampling``.  In stored mode all ``B``
    rows are materialised; ``pmaxT`` instead stores one block at a time
    from the unstored stream (``replace(options, store=False)``).
    """
    labels = np.asarray(classlabel, dtype=np.int64)
    test = options.test

    if options.complete:
        if test in _TWO_SAMPLE_LIKE:
            gen: PermutationGenerator = CompleteTwoSample(
                labels, limit=options.complete_limit)
        elif test == "f":
            gen = CompleteMulticlass(labels, limit=options.complete_limit)
        elif test == "pairt":
            gen = CompleteSigns.from_classlabel(labels,
                                                limit=options.complete_limit)
        else:  # blockf
            k = int(labels.max()) + 1
            gen = CompleteBlock(labels, k, limit=options.complete_limit)
        return gen

    # Random sampling.  blockf is always regenerated with the fixed-seed
    # on-the-fly generator regardless of the user's option (Section 3.1).
    fixed = options.fixed_seed_sampling == "y" or test == "blockf"
    if test in _TWO_SAMPLE_LIKE or test == "f":
        gen = RandomLabelShuffle(labels, options.nperm, seed=options.seed,
                                 fixed_seed=fixed)
    elif test == "pairt":
        gen = RandomSigns(labels.size // 2, options.nperm, seed=options.seed,
                          fixed_seed=fixed)
    else:  # blockf
        k = int(labels.max()) + 1
        gen = RandomBlockShuffle(labels, k, options.nperm, seed=options.seed,
                                 fixed_seed=True)

    if options.store:
        gen = StoredPermutations(gen)
    return gen
