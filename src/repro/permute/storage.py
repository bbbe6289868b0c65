"""Stored-permutation mode (``fixed.seed.sampling = "n"``).

The serial ``mt.maxT`` can materialise all sampled permutations in memory
before any statistics are computed.  The paper keeps this option in ``pmaxT``
but notes two exceptions where the code always falls back to the on-the-fly
generator: complete enumeration, and the block-F statistic (whose permutation
count is huge).  :func:`should_store` encodes exactly that decision table,
reducing the nominal 24 generator/method/store combinations to the 8 distinct
implementations described in Section 3.1.

:class:`StoredPermutations` wraps any source generator, materialises a chosen
index range ``[start, start + count)`` into a matrix, and then replays it as
a :class:`~repro.permute.base.PermutationGenerator`.  In the parallel setting
each rank stores only the block it is computing, slicing its own copy of the
stream; the stream forwards only across the gaps between that rank's blocks.
"""

from __future__ import annotations

import numpy as np

from ..errors import PermutationError
from .base import PermutationGenerator

__all__ = ["StoredPermutations", "should_store"]


def should_store(fixed_seed_sampling: str, complete: bool, test: str) -> bool:
    """Decide whether permutations are materialised in memory.

    Parameters
    ----------
    fixed_seed_sampling:
        The user's ``fixed.seed.sampling`` option: ``"y"`` (on the fly) or
        ``"n"`` (store).
    complete:
        Whether complete enumeration is in effect (``B = 0`` or ``B`` at
        least the complete count).
    test:
        The statistic name.

    Returns
    -------
    bool
        True only for random sampling with ``fixed.seed.sampling = "n"`` on
        a non-``blockf`` statistic — the paper's Section 3.1 rules.
    """
    if fixed_seed_sampling not in ("y", "n"):
        raise PermutationError(
            f"fixed.seed.sampling must be 'y' or 'n', got {fixed_seed_sampling!r}"
        )
    if complete:
        return False  # complete permutations are never stored
    if test == "blockf":
        return False  # block-F always regenerates on the fly
    return fixed_seed_sampling == "n"


class StoredPermutations(PermutationGenerator):
    """Materialised slice ``[start, start + count)`` of a source generator.

    The stored matrix replays with the same indexing contract as the source:
    ``at(i)`` of this generator equals ``at(start + i)`` of the source.  When
    ``start == 0`` the first stored row is therefore the observed labelling.
    """

    def __init__(self, source: PermutationGenerator, start: int = 0,
                 count: int | None = None):
        if count is None:
            count = source.nperm - start
        if start < 0 or count < 0 or start + count > source.nperm:
            raise PermutationError(
                f"stored slice [{start}, {start + count}) out of range for "
                f"source with nperm={source.nperm}"
            )
        super().__init__(max(count, 1), source.width)
        if count == 0:
            # Degenerate but legal: a rank assigned zero permutations.
            self.nperm = 0
            self._matrix = np.empty((0, source.width), dtype=np.int64)
            self.start = start
            return
        self.start = int(start)
        # Forward only across the gap from the source's current position,
        # so consecutive slices of one stream never replay it from 0.
        if source.position > start:
            source.reset()
        source.skip(start - source.position)
        self._matrix = source.take_batch(count)
        self._matrix.flags.writeable = False

    @property
    def matrix(self) -> np.ndarray:
        """The stored ``count x width`` encoding matrix (read-only)."""
        return self._matrix

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored permutations in bytes."""
        return int(self._matrix.nbytes)

    def _encode(self, index: int) -> np.ndarray:
        return self._matrix[index]

    def take_batch(self, count: int,
                   out: np.ndarray | None = None) -> np.ndarray:
        # Serve batches as zero-copy views of the stored matrix; a caller's
        # ``out`` buffer is deliberately ignored (copying into it would
        # defeat the point of having materialised the rows).
        if count < 0 or self._position + count > self.nperm:
            raise PermutationError(
                f"take_batch({count}) from position {self._position} passes "
                f"the end of the stored slice (nperm={self.nperm})"
            )
        out = self._matrix[self._position : self._position + count]
        self._position += count
        return out
