"""Counter-based key streams for the fixed-seed random generators.

``fixed.seed.sampling = "y"`` promises that the permutation at index ``i``
is a pure function of ``(seed, i)`` — the property that makes the paper's
O(1) generator *forwarding* possible (any rank can reproduce any
permutation without replaying a stream).  The original implementation
honoured the contract by building a fresh seeded RNG per index, which costs
a full seeding hash plus a Python object per permutation and caps batch
generation at ~50k permutations/s.

This module keys the randomness the modern way: a **counter-based** bit
generator (Philox-4x64) whose 256-bit counter is an explicit function of
the permutation index.  Each index owns a fixed, disjoint block of the
counter space::

    blocks_per_index = ceil(words_needed / 4)          # 4 x u64 per block
    keys(i)          = raw64[ i*bpi*4 : i*bpi*4 + words_needed ]

so a *batch* of consecutive indices is one contiguous ``random_raw`` call —
a single C-loop emitting millions of words per second — while random access
to any single index is a counter jump.  Skipping is free, partitioning the
index range across ranks cannot change any permutation, and generating a
batch is bit-identical to generating its rows one at a time (the property
the generator test-suite pins).

From the raw 64-bit keys the three encoding families follow vectorized:

* label shuffles: ``argsort`` of each index's key row — a uniformly random
  permutation (the classic sort-of-random-keys construction; ties occur
  with probability ~2^-64 per pair and break deterministically);
* sign vectors: the low bit of each key;
* block shuffles: per-block ``argsort`` of key sub-rows.

Determinism: Philox output is fixed by specification (counter + key in,
words out; no seeding hash involved) and NumPy's introsort is deterministic
for a given input, so sequences are stable across platforms and NumPy
versions.

The functions above are the *reference* constructions.  Sign vectors are
filled with :func:`sign_vectors` itself.  Label and block shuffles are
filled through :class:`LayoutFill`, a **value-packed sort** that
produces the same rows bit for bit.  The reference is an indirect sort
plus a gather, both cache-hostile at batch sizes.  Instead, each 64-bit
key has its low ``nbits`` bits overwritten with the label value of its
column (``(key & HI) | label``), one in-place ``np.sort`` orders the
packed words, and the sorted low bits *are* the permuted labels —
extracted with one mask straight into the caller's buffer.  The packed
order equals the full-key order unless two keys of one row (or block)
share their top ``64 - nbits`` bits and carry different labels.  That is
detected exactly from the sorted words (an adjacent pair that differs
only below bit ``nbits``), and the chunk is then recomputed by the
reference ``argsort``.  A collision has probability ~``rows * width^2 /
2^(65 - nbits)`` per chunk, so the rescue never runs in practice, but it
makes the fill bit-identical by construction rather than with high
probability.  Layouts that cannot be packed (a negative or
wider-than-16-bit label, or fewer than two columns per block) always
take the reference path.

The fill runs in row chunks of :data:`SORT_CHUNK_ROWS`, with each
chunk's raw keys generated just before they are sorted, so the pack /
sort / check / extract passes stay in cache.  On a 2-core host (6102x76
Welch t, 4000 permutations, BLAS capped at 1) the packed sort ran the
whole kernel in 0.807 s against 0.845 s with the reference ``argsort``
(1.05x); ``benchmarks/bench_accel.py`` times the fills alone.
"""

from __future__ import annotations

import numpy as np

from ..errors import PermutationError

__all__ = [
    "WORDS_PER_BLOCK",
    "SORT_CHUNK_ROWS",
    "raw_keys",
    "label_permutations",
    "sign_vectors",
    "block_permutations",
    "LayoutFill",
]

#: 64-bit words produced per Philox-4x64 counter increment.
WORDS_PER_BLOCK = 4

#: Rows per fused key / pack / sort / extract chunk.  512 rows of a few
#: hundred uint64 columns keep a chunk's working set in L2 on common hosts.
SORT_CHUNK_ROWS = 512

#: Label values must fit in this many packed low bits; wider layouts take
#: the reference path.
MAX_PACK_BITS = 16

_M64 = (1 << 64) - 1


def _key_words(seed: int) -> np.ndarray:
    """The 128-bit Philox key for a user seed, as two little-endian words."""
    seed = int(seed)
    if seed < 0:
        raise PermutationError(f"seed must be non-negative, got {seed}")
    return np.array([seed & _M64, (seed >> 64) & _M64], dtype=np.uint64)


def _counter_words(counter: int) -> np.ndarray:
    """A block counter as the four little-endian uint64 words Philox takes."""
    return np.array(
        [(counter >> shift) & _M64 for shift in (0, 64, 128, 192)],
        dtype=np.uint64,
    )


def blocks_per_index(words: int) -> int:
    """Counter blocks reserved per permutation index for ``words`` keys."""
    if words <= 0:
        raise PermutationError(f"key width must be positive, got {words}")
    return -(-words // WORDS_PER_BLOCK)


def raw_keys(seed: int, start: int, count: int, words: int) -> np.ndarray:
    """Raw 64-bit keys for indices ``[start, start + count)``.

    Returns a ``(count, words)`` uint64 matrix; row ``r`` depends only on
    ``(seed, start + r)``, so any sub-range of indices yields the same rows.
    """
    if start < 0 or count < 0:
        raise PermutationError(
            f"invalid key range start={start}, count={count}")
    bpi = blocks_per_index(words)
    if count == 0:
        return np.empty((0, words), dtype=np.uint64)
    gen = np.random.Philox(key=_key_words(seed),
                           counter=_counter_words(start * bpi))
    raw = gen.random_raw(count * bpi * WORDS_PER_BLOCK)
    return raw.reshape(count, bpi * WORDS_PER_BLOCK)[:, :words]


def label_permutations(seed: int, start: int, count: int,
                       labels: np.ndarray) -> np.ndarray:
    """Uniform random arrangements of ``labels`` for a run of indices.

    Each row is ``labels`` reordered by the argsort of that index's key
    row — the vectorized equivalent of one uniform shuffle per index.
    """
    keys = raw_keys(seed, start, count, labels.size)
    sigma = np.argsort(keys, axis=1)
    return labels[sigma]


def sign_vectors(seed: int, start: int, count: int, npairs: int) -> np.ndarray:
    """Fair ``+1``/``-1`` vectors (one key word per sign; low bit decides)."""
    keys = raw_keys(seed, start, count, npairs)
    signs = (keys & np.uint64(1)).astype(np.int64)
    signs <<= 1
    signs -= 1
    return signs


def block_permutations(seed: int, start: int, count: int,
                       blocks: np.ndarray) -> np.ndarray:
    """Independent within-block shuffles of a ``(nblocks, k)`` label layout.

    Each index's key row is split into ``nblocks`` groups of ``k`` keys and
    every block's labels are reordered by its group's argsort; the rows are
    returned flattened to width ``nblocks * k``.
    """
    keys = raw_keys(seed, start, count, blocks.size)
    return _arrange(keys, blocks)


def _arrange(keys: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """``layout``'s blocks reordered by the argsort of each key group."""
    count = keys.shape[0]
    nblocks, k = layout.shape
    sigma = np.argsort(keys.reshape(count, nblocks, k), axis=2)
    tiled = np.broadcast_to(layout, (count, nblocks, k))
    return np.take_along_axis(tiled, sigma, axis=2).reshape(count, -1)


def _pack_bits(layout: np.ndarray) -> int:
    """Low bits needed to pack the label values, or 0 when they cannot be."""
    if layout.shape[1] < 2 or int(layout.min()) < 0:
        return 0
    nbits = max(1, int(layout.max()).bit_length())
    return nbits if nbits <= MAX_PACK_BITS else 0


class LayoutFill:
    """Writes within-block shuffles of one ``(nblocks, k)`` label layout.

    A label shuffle is the one-block layout ``labels.reshape(1, -1)``.
    :meth:`fill` writes the rows of :func:`block_permutations` (equal, for
    one block, to :func:`label_permutations`) through the value-packed
    sort when the layout packs (:attr:`packed`), else through the
    reference construction.  Holds reusable chunk scratch, so give each
    generator its own.
    """

    def __init__(self, layout: np.ndarray):
        self.layout = np.ascontiguousarray(layout, dtype=np.int64)
        nbits = _pack_bits(self.layout)
        #: Whether the value-packed sort serves this layout.
        self.packed = nbits > 0
        self._low = np.uint64((1 << nbits) - 1)
        self._high = ~self._low
        self._words = self.layout.reshape(-1).astype(np.uint64)
        self._comb: np.ndarray | None = None
        self._adj: np.ndarray | None = None

    def fill(self, seed: int, start: int, count: int,
             out: np.ndarray) -> None:
        """Write the rows for indices ``[start, start + count)`` into the
        ``(count, nblocks * k)`` int64 array ``out``."""
        if not self.packed:
            keys = raw_keys(seed, start, count, self.layout.size)
            out[...] = _arrange(keys, self.layout)
            return
        nblocks, k = self.layout.shape
        width = self.layout.size
        rows = min(count, SORT_CHUNK_ROWS)
        if self._comb is None or self._comb.shape[0] < rows:
            self._comb = np.empty((rows, width), dtype=np.uint64)
            self._adj = np.empty((rows, nblocks, k - 1), dtype=np.uint64)
        out_words = out.view(np.uint64)
        for s in range(0, count, SORT_CHUNK_ROWS):
            c = min(SORT_CHUNK_ROWS, count - s)
            keys = raw_keys(seed, start + s, c, width)
            comb = self._comb[:c]
            np.bitwise_and(keys, self._high, out=comb)
            np.bitwise_or(comb, self._words, out=comb)
            comb3 = comb.reshape(c, nblocks, k)
            comb3.sort(axis=2)
            # Adjacent sorted words that differ only in the packed bits
            # (xor - 1 below the label mask; equal words wrap to the top)
            # are keys colliding in their top bits under different labels.
            adj = self._adj[:c]
            np.bitwise_xor(comb3[:, :, 1:], comb3[:, :, :-1], out=adj)
            np.subtract(adj, np.uint64(1), out=adj)
            np.bitwise_and(comb, self._low, out=out_words[s:s + c])
            if adj.min() < self._low:
                out[s:s + c] = _arrange(keys, self.layout)
