"""Random (Monte-Carlo) permutation generators.

``mt.maxT`` exposes the sampling mode through ``fixed.seed.sampling``:

``"y"`` — *fixed-seed, on-the-fly*:
    the permutation at index ``i`` is a pure function of ``(seed, i)``, so
    any process can reproduce any permutation without replaying a stream.
    This is what makes the paper's O(1) generator *forwarding* possible and
    is the default in both ``mt.maxT`` and ``pmaxT``.  The randomness is
    keyed by a counter-based bit generator (:mod:`repro.permute.keystream`):
    index ``i`` owns a fixed block of the counter space, so a batch of
    consecutive indices is generated with a handful of array operations and
    is bit-identical to generating its rows one at a time.  Batches are
    written straight into the caller's buffer by the keystream's
    value-packed sort.

``"n"`` — *sequential stream*:
    a single RNG stream produces permutations in order; forwarding a
    process's generator means drawing and discarding the permutations owned
    by lower ranks.  The serial implementation stores these permutations in
    memory before computing (see :mod:`repro.permute.storage`).  Batch
    generation consumes the stream exactly as repeated single draws would,
    so mixing ``take`` and ``take_batch`` cannot fork the sequence.

Both modes enumerate **index 0 as the observed labelling** and draw no
randomness for it, so for a fixed seed the sequence of permutations at
indices ``1..B-1`` is identical no matter how the index range is partitioned
across ranks, how it is chunked into batches, or which rank generates it —
the property the paper's Figure 2 relies on.

Three concrete generators cover the statistic families:

* :class:`RandomLabelShuffle` — two-sample and F tests (label vector),
* :class:`RandomSigns` — paired t (sign vector),
* :class:`RandomBlockShuffle` — block F (within-block label shuffles).
"""

from __future__ import annotations

import numpy as np

from ..errors import PermutationError
from . import keystream
from .base import PermutationGenerator

__all__ = [
    "RandomLabelShuffle",
    "RandomSigns",
    "RandomBlockShuffle",
    "DEFAULT_SEED",
]

#: Seed used when the caller does not provide one, mirroring the fixed
#: default seed the multtest C implementation uses for reproducible runs.
DEFAULT_SEED: int = 3455660

#: Stream-mode forwarding consumes discarded draws in batches of this many
#: permutations, bounding the scratch matrix a large ``skip`` materialises.
_SKIP_BATCH: int = 1024


class _RandomBase(PermutationGenerator):
    """Shared draw/skip plumbing for the three random generators.

    Subclasses provide four hooks: the observed encoding, a single draw
    from a stream RNG, a batched draw from a stream RNG (must consume the
    stream identically to repeated single draws), and a fixed-seed fill
    for a run of consecutive indices.
    """

    def __init__(self, nperm: int, width: int, seed: int, fixed_seed: bool):
        super().__init__(nperm, width)
        self.seed = int(seed)
        self.fixed_seed = bool(fixed_seed)
        self.supports_random_access = self.fixed_seed
        self._stream = None if self.fixed_seed else np.random.default_rng(self.seed)

    # -- family hooks ---------------------------------------------------------

    def _observed(self) -> np.ndarray:
        raise NotImplementedError

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        """One stream-mode resample (consumes the stream)."""
        raise NotImplementedError

    def _draw_stream_batch(self, rng: np.random.Generator,
                           count: int) -> np.ndarray:
        """``count`` stream-mode resamples in one vectorized call.

        Must consume exactly the randomness of ``count`` :meth:`_draw`
        calls and produce the same rows.
        """
        raise NotImplementedError

    def _fill_indexed(self, start: int, count: int, out: np.ndarray) -> None:
        """Write fixed-seed resamples for ``[start, start + count)`` to
        ``out``."""
        raise NotImplementedError

    # -- generator plumbing ---------------------------------------------------

    def reset(self) -> None:
        super().reset()
        if not self.fixed_seed:
            self._stream = np.random.default_rng(self.seed)

    def _encode(self, index: int) -> np.ndarray:
        if index == 0:
            return self._observed()
        if not self.fixed_seed:  # pragma: no cover - guarded by base class
            raise PermutationError("sequential stream has no random access")
        out = np.empty((1, self.width), dtype=np.int64)
        self._fill_indexed(index, 1, out)
        return out[0]

    def _next(self) -> np.ndarray:
        if self.fixed_seed:
            return self._encode(self._position)
        if self._position == 0:
            return self._observed()
        return self._draw(self._stream)

    def _fill_batch(self, out: np.ndarray, count: int) -> np.ndarray:
        pos = self._position
        filled = 0
        if pos == 0:
            out[0] = self._observed()
            filled = 1
        if count > filled:
            if self.fixed_seed:
                self._fill_indexed(pos + filled, count - filled,
                                   out[filled:count])
            else:
                out[filled:count] = self._draw_stream_batch(self._stream,
                                                            count - filled)
        return out

    def _do_skip(self, count: int) -> None:
        if self.fixed_seed:
            return
        # Index 0 consumes no randomness; every other skipped index is a
        # discarded draw — the literal "forward the generator" of the paper,
        # consumed in vectorized batches.
        draws = count - 1 if self._position == 0 else count
        while draws > 0:
            step = min(draws, _SKIP_BATCH)
            self._draw_stream_batch(self._stream, step)
            draws -= step


class RandomLabelShuffle(_RandomBase):
    """Uniformly random relabelling for two-sample and k-class F tests.

    Each resample is a uniformly random permutation of the observed class
    label vector (equivalently, of the column order), which is the null
    distribution ``mt.maxT`` samples for ``t``, ``t.equalvar``, ``wilcoxon``
    and ``f``.
    """

    def __init__(self, classlabel, nperm: int, *, seed: int = DEFAULT_SEED,
                 fixed_seed: bool = True):
        labels = np.asarray(classlabel, dtype=np.int64)
        if labels.ndim != 1:
            raise PermutationError("classlabel must be a 1-D vector")
        super().__init__(nperm, labels.size, seed, fixed_seed)
        self._labels = labels.copy()
        self._labels.flags.writeable = False
        self._layout = keystream.LayoutFill(self._labels.reshape(1, -1))

    def _observed(self) -> np.ndarray:
        return self._labels.copy()

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(self._labels)

    def _draw_stream_batch(self, rng: np.random.Generator,
                           count: int) -> np.ndarray:
        # Row-wise in-place shuffles of a tiled label matrix consume the
        # stream exactly like `count` successive rng.permutation calls.
        return rng.permuted(np.tile(self._labels, (count, 1)), axis=1)

    def _fill_indexed(self, start: int, count: int, out: np.ndarray) -> None:
        self._layout.fill(self.seed, start, count, out)


class RandomSigns(_RandomBase):
    """Uniformly random pair-swap signs for the paired-t test.

    Each resample assigns an independent fair ``+1``/``-1`` to every pair,
    sampling the ``2 ** npairs`` sign-flip group.
    """

    def __init__(self, npairs: int, nperm: int, *, seed: int = DEFAULT_SEED,
                 fixed_seed: bool = True):
        super().__init__(nperm, npairs, seed, fixed_seed)

    def _observed(self) -> np.ndarray:
        return np.ones(self.width, dtype=np.int64)

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2, size=self.width, dtype=np.int64) * 2 - 1

    def _draw_stream_batch(self, rng: np.random.Generator,
                           count: int) -> np.ndarray:
        # A (count, width) fill consumes the bounded-integer stream in the
        # same row-major order as `count` width-long draws.
        draws = rng.integers(0, 2, size=(count, self.width), dtype=np.int64)
        return draws * 2 - 1

    def _fill_indexed(self, start: int, count: int, out: np.ndarray) -> None:
        out[...] = keystream.sign_vectors(self.seed, start, count, self.width)


class RandomBlockShuffle(_RandomBase):
    """Independent within-block treatment shuffles for the block-F test.

    The block structure (which columns belong to which block) is fixed;
    each resample independently permutes the treatment labels inside every
    block, sampling the ``(k!) ** nblocks`` within-block permutation group.
    """

    def __init__(self, classlabel, k: int, nperm: int, *, seed: int = DEFAULT_SEED,
                 fixed_seed: bool = True):
        labels = np.asarray(classlabel, dtype=np.int64)
        if labels.ndim != 1:
            raise PermutationError("classlabel must be a 1-D vector")
        if k <= 0 or labels.size % k != 0:
            raise PermutationError(
                f"block design needs n divisible by k; n={labels.size}, k={k}"
            )
        super().__init__(nperm, labels.size, seed, fixed_seed)
        self.k = int(k)
        self.nblocks = labels.size // self.k
        self._blocks = labels.reshape(self.nblocks, self.k).copy()
        self._blocks.flags.writeable = False
        self._layout = keystream.LayoutFill(self._blocks)

    def _observed(self) -> np.ndarray:
        return self._blocks.reshape(-1).copy()

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        # One row-wise shuffle pass over the block layout replaces the old
        # per-block Python loop; the swap sequence (and therefore the
        # stream consumption) is identical to shuffling each block in turn.
        return rng.permuted(self._blocks, axis=1).reshape(-1)

    def _draw_stream_batch(self, rng: np.random.Generator,
                           count: int) -> np.ndarray:
        tiled = np.tile(self._blocks.reshape(1, self.nblocks, self.k),
                        (count, 1, 1)).reshape(count * self.nblocks, self.k)
        return rng.permuted(tiled, axis=1).reshape(count, -1)

    def _fill_indexed(self, start: int, count: int, out: np.ndarray) -> None:
        self._layout.fill(self.seed, start, count, out)
