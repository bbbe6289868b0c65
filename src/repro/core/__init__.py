"""Core maxT engine: the paper's primary contribution.

* :func:`~repro.core.maxt.mt_maxT` — serial reference (multtest's
  ``mt.maxT``),
* :func:`~repro.core.pmaxt.pmaxT` — the SPRINT parallel implementation,
* supporting pieces: option validation, the permutation partition plan
  (paper Figure 2), the vectorized kernel, the step-down p-value assembly
  and the five-section profile (the columns of Tables I–V).
"""

from .adjust import SIDES, pvalues_from_counts, side_adjust, significance_order, successive_maxima
from .checkpoint import CheckpointStore
from .kernel import DEFAULT_CHUNK, TIE_TOLERANCE, KernelCounts, ObservedScores, compute_observed, run_kernel
from .maxt import mt_maxT
from .options import MaxTOptions, build_generator, build_statistic, validate_options
from .partition import PartitionPlan, RankChunk, partition_permutations
from .pmaxt import pmaxT
from .profile import SECTION_NAMES, SectionProfile, SectionTimer
from .result import MaxTResult
from .transpose import transpose_copy, transpose_inplace

__all__ = [
    "CheckpointStore",
    "transpose_inplace",
    "transpose_copy",
    "TIE_TOLERANCE",
    "mt_maxT",
    "pmaxT",
    "MaxTResult",
    "MaxTOptions",
    "validate_options",
    "build_statistic",
    "build_generator",
    "PartitionPlan",
    "RankChunk",
    "partition_permutations",
    "KernelCounts",
    "ObservedScores",
    "compute_observed",
    "run_kernel",
    "DEFAULT_CHUNK",
    "SIDES",
    "side_adjust",
    "significance_order",
    "successive_maxima",
    "pvalues_from_counts",
    "SECTION_NAMES",
    "SectionProfile",
    "SectionTimer",
]
