"""Permutation generator protocol.

A generator enumerates the ``B`` permutations of a permutation test as a
sequence of *label encodings* indexed ``0 .. B-1``:

* **index 0 is always the observed labelling** — the paper's "special first
  permutation" that only the master process accounts for (Figure 2);
* indices ``1 .. B-1`` are the null-distribution resamples.

Two encodings exist:

* a **label vector** of length ``n`` (two-sample, F and block-F families):
  entry ``j`` is the class/treatment assigned to column ``j``;
* a **sign vector** of length ``npairs`` (paired-t family): ``+1`` keeps a
  pair's order, ``-1`` swaps it.

The crucial operation for the SPRINT parallel decomposition is
:meth:`PermutationGenerator.skip`: rank ``r`` forwards its generator past the
permutations owned by ranks ``0 .. r-1`` so the union of all ranks' work is
exactly the serial permutation sequence.  Counter-based and unranking-based
generators skip in O(1); sequential-stream generators skip by drawing and
discarding, exactly like the forwarded C generators described in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import PermutationError

__all__ = ["PermutationGenerator"]


class PermutationGenerator(ABC):
    """Iterator over the ``B`` label encodings of a permutation test.

    Subclasses implement :meth:`_encode` (random-access) or override
    :meth:`_advance` (stream-based).  The public surface — :meth:`skip`,
    :meth:`take`, :meth:`take_batch`, :meth:`reset` — is shared.
    """

    #: Total number of permutations enumerated (including index 0).
    nperm: int
    #: Width of each encoding row (``n`` columns or ``npairs`` pairs).
    width: int
    #: Whether :meth:`at` / O(1) :meth:`skip` are supported.
    supports_random_access: bool = True

    def __init__(self, nperm: int, width: int):
        if nperm <= 0:
            raise PermutationError(f"nperm must be positive, got {nperm}")
        if width <= 0:
            raise PermutationError(f"encoding width must be positive, got {width}")
        self.nperm = int(nperm)
        self.width = int(width)
        self._position = 0

    # -- positioning --------------------------------------------------------

    @property
    def position(self) -> int:
        """Index of the next permutation :meth:`take` would return."""
        return self._position

    def reset(self) -> None:
        """Rewind to permutation index 0 (the observed labelling)."""
        self._position = 0

    def skip(self, count: int) -> None:
        """Forward past ``count`` permutations without returning them.

        This is the generator-interface extension the paper describes:
        "the generators need to be forwarded to the appropriate permutation"
        so each MPI process starts at its own chunk.
        """
        if count < 0:
            raise PermutationError(f"cannot skip a negative count ({count})")
        if self._position + count > self.nperm:
            raise PermutationError(
                f"skip({count}) from position {self._position} passes the end "
                f"of the enumeration (nperm={self.nperm})"
            )
        self._do_skip(count)
        self._position += count

    def _do_skip(self, count: int) -> None:
        """Hook for stream generators; random-access generators need nothing."""

    # -- element access ------------------------------------------------------

    def at(self, index: int) -> np.ndarray:
        """Return the encoding at ``index`` without moving the position."""
        if not self.supports_random_access:
            raise PermutationError(
                f"{type(self).__name__} is a sequential stream and does not "
                "support random access; use skip/take"
            )
        if not 0 <= index < self.nperm:
            raise PermutationError(
                f"permutation index {index} out of range [0, {self.nperm})"
            )
        return self._encode(index)

    def take(self, count: int | None = None):
        """Yield the next ``count`` encodings (default: all remaining)."""
        if count is None:
            count = self.nperm - self._position
        if count < 0:
            raise PermutationError(f"cannot take a negative count ({count})")
        if self._position + count > self.nperm:
            raise PermutationError(
                f"take({count}) from position {self._position} passes the end "
                f"of the enumeration (nperm={self.nperm})"
            )
        for _ in range(count):
            yield self._next()
            self._position += 1

    def take_batch(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Return the next ``count`` encodings as a ``(count, width)`` matrix.

        The batch form feeds the vectorized statistic kernels, which evaluate
        a whole chunk of permutations with one BLAS call.  Subclasses with a
        vectorized ``_fill_batch`` (all the random generators) produce the
        whole batch in a handful of array operations; the default fills a
        contiguous buffer row by row (no intermediate row list is built).

        Parameters
        ----------
        count:
            Number of encodings to emit (the position advances by this much).
        out:
            Optional reusable ``(>= count, width)`` int64 buffer — e.g. a
            :class:`~repro.core.kernel.KernelWorkspace` encoding buffer.
            When given, the batch is written into its first ``count`` rows
            and that view is returned; generators that already hold the rows
            contiguously (stored slices) may ignore it and return their own
            zero-copy view instead, so always use the *returned* array.
        """
        if count < 0:
            raise PermutationError(f"cannot take a negative count ({count})")
        if self._position + count > self.nperm:
            raise PermutationError(
                f"take_batch({count}) from position {self._position} passes "
                f"the end of the enumeration (nperm={self.nperm})"
            )
        if count == 0:
            return np.empty((0, self.width), dtype=np.int64)
        if out is not None:
            if (out.ndim != 2 or out.shape[0] < count
                    or out.shape[1] != self.width
                    or out.dtype != np.int64):
                raise PermutationError(
                    f"take_batch out= buffer must be (>= {count}, "
                    f"{self.width}) int64, got {out.shape} {out.dtype}")
            view = out[:count]
        else:
            view = np.empty((count, self.width), dtype=np.int64)
        batch = self._fill_batch(view, count)
        self._position += count
        return batch

    # -- subclass hooks -------------------------------------------------------

    def _fill_batch(self, out: np.ndarray, count: int) -> np.ndarray:
        """Write encodings ``[position, position + count)`` into ``out``.

        Must leave ``self._position`` unchanged (the caller advances it) and
        return the filled array.  The default drives :meth:`_next` row by
        row; random generators override it with vectorized batch draws.
        """
        pos = self._position
        try:
            for r in range(count):
                out[r] = self._next()
                self._position += 1
        finally:
            self._position = pos
        return out

    def _next(self) -> np.ndarray:
        """Produce the encoding at the current position (before advancing)."""
        return self._encode(self._position)

    @abstractmethod
    def _encode(self, index: int) -> np.ndarray:
        """Random-access encoding; stream subclasses may raise instead."""

    # -- conveniences ----------------------------------------------------------

    def __iter__(self):
        return self.take()

    def __len__(self) -> int:
        return self.nperm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nperm={self.nperm}, width={self.width}, "
            f"position={self._position})"
        )
