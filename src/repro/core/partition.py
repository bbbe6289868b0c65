"""Permutation-count partitioning (paper Section 3.2, Figure 2).

``pmaxT`` parallelises by dividing the *permutation count* — not the data —
into equal chunks: every process holds the whole dataset and executes a
contiguous range of the serial permutation sequence.  The first permutation
(index 0) is the observed labelling and "is thus special": it is accounted
for only by the master process; every other rank *skips* it, and forwards
its generator to the start of its own chunk.

:func:`partition_permutations` reproduces that assignment exactly.  For
``B`` total permutations and ``P`` ranks the ``B - 1`` null permutations are
split as evenly as possible (earlier ranks take the remainder, matching the
usual MPI block distribution), and rank 0 additionally owns index 0:

>>> plan = partition_permutations(23, 3)      # the paper's Figure 2 numbers
>>> [(c.start, c.count) for c in plan.chunks]
[(0, 8), (8, 8), (16, 7)]

Rank 0's chunk ``[0, 8)`` is permutation 1 (observed) plus nulls 2..8 in the
paper's 1-based numbering; rank 1 covers 9..16 and rank 2 covers 17..23 —
the same drawing as Figure 2 (its serial row labels 1..23 are our indices
0..22).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PermutationError

__all__ = [
    "RankChunk",
    "PartitionPlan",
    "partition_permutations",
    "Block",
    "carve_blocks",
    "plan_initial_runs",
    "plan_ledger",
]


@dataclass(frozen=True)
class RankChunk:
    """The contiguous permutation-index range owned by one rank."""

    rank: int
    #: First permutation index this rank executes (0 = observed labelling).
    start: int
    #: Number of permutations this rank executes.
    count: int

    @property
    def stop(self) -> int:
        """One past the last permutation index (``start + count``)."""
        return self.start + self.count

    @property
    def includes_observed(self) -> bool:
        """True for the (master's) chunk that accounts for permutation 0."""
        return self.start == 0 and self.count > 0


@dataclass(frozen=True)
class PartitionPlan:
    """Full permutation-index assignment for a job."""

    nperm: int
    nranks: int
    chunks: tuple[RankChunk, ...]

    def chunk_for(self, rank: int) -> RankChunk:
        """The chunk owned by ``rank``."""
        if not 0 <= rank < self.nranks:
            raise PermutationError(
                f"rank {rank} out of range [0, {self.nranks})"
            )
        return self.chunks[rank]

    @property
    def max_count(self) -> int:
        """The largest per-rank permutation count (the load-balance bound)."""
        return max(c.count for c in self.chunks)

    def owner_of(self, index: int) -> int:
        """Which rank executes permutation ``index``."""
        if not 0 <= index < self.nperm:
            raise PermutationError(
                f"permutation index {index} out of range [0, {self.nperm})"
            )
        for c in self.chunks:
            if c.start <= index < c.stop:
                return c.rank
        raise PermutationError(  # pragma: no cover - plan is a cover by invariant
            f"index {index} not covered by the plan"
        )


def partition_permutations(nperm: int, nranks: int) -> PartitionPlan:
    """Assign permutation indices ``0 .. nperm-1`` to ``nranks`` processes.

    The full permutation count — observed labelling included — is divided
    into equal contiguous chunks, earlier ranks absorbing the remainder,
    exactly as the paper's Figure 2 draws it (1–8 / 9–16 / 17–23 for
    B = 23, P = 3).  Rank 0's chunk therefore starts at index 0 and is the
    only one containing the observed permutation; every other rank skips it
    and forwards its generator to its own start.  The chunks are disjoint
    and cover ``[0, nperm)`` — the invariant that makes the parallel run
    reproduce the serial permutation sequence exactly.
    """
    if nperm <= 0:
        raise PermutationError(f"nperm must be positive, got {nperm}")
    if nranks <= 0:
        raise PermutationError(f"nranks must be positive, got {nranks}")
    base, rem = divmod(nperm, nranks)
    chunks = []
    next_start = 0
    for rank in range(nranks):
        count = base + (1 if rank < rem else 0)
        chunks.append(RankChunk(rank=rank, start=next_start, count=count))
        next_start += count
    return PartitionPlan(nperm=nperm, nranks=nranks, chunks=tuple(chunks))


# -- block-granular carving (the Step-4/5 block ledger) --------------------------
#
# Every pmaxT run executes as a set of blocks tracked by the master's block
# ledger (:mod:`repro.core.steal`).  The static plan above is the degenerate
# assignment: one block per rank and nothing left to steal.  The steal
# schedule carves the same permutations into fixed-size blocks and hands
# most of them out dynamically.  Because the Philox keystream gives O(1)
# seek to any permutation index and the counts are associative per-block
# sums, *any* block-to-rank assignment reproduces the static result bit for
# bit — the blocks only decide who computes what, never what is computed.


@dataclass(frozen=True)
class Block:
    """One contiguous permutation-index block of a steal schedule."""

    #: Block index in carve order (0 = the block containing ``start``).
    bid: int
    #: First global permutation index of the block.
    start: int
    #: Number of permutation indices in the block.
    count: int

    @property
    def stop(self) -> int:
        """One past the last permutation index (``start + count``)."""
        return self.start + self.count


def carve_blocks(start: int, stop: int, block_size: int) -> tuple[Block, ...]:
    """Carve ``[start, stop)`` into contiguous blocks of ``block_size``.

    The final block absorbs the remainder (it may be short).  Blocks are
    disjoint, ordered, and exactly cover the range — the invariant the
    steal ledger re-checks at job end.
    """
    if stop <= start:
        raise PermutationError(f"empty permutation range [{start}, {stop})")
    if block_size <= 0:
        raise PermutationError(f"block_size must be positive, got {block_size}")
    blocks = []
    at = start
    while at < stop:
        count = min(block_size, stop - at)
        blocks.append(Block(bid=len(blocks), start=at, count=count))
        at += count
    return tuple(blocks)


def plan_initial_runs(nblocks: int, nranks: int) -> tuple[range, ...]:
    """Per-rank initial contiguous block runs; the rest form the steal pool.

    Each rank starts on a deterministic run of blocks it computes without
    asking the master — rank ``r`` owns ``runs[r]`` (a ``range`` of block
    ids).  Rank 0's run starts at block 0, keeping the observed labelling
    (permutation index 0) pinned to the master exactly as in the static
    plan.  Runs are kept short — about a quarter of an even share — so most
    blocks stay in the master's pool where stragglers shed them; with fewer
    blocks than ranks, trailing ranks get empty runs and steal from the
    start.
    """
    if nblocks <= 0:
        raise PermutationError(f"nblocks must be positive, got {nblocks}")
    if nranks <= 0:
        raise PermutationError(f"nranks must be positive, got {nranks}")
    run_len = max(1, nblocks // (4 * nranks))
    runs = []
    at = 0
    for _ in range(nranks):
        take = min(run_len, nblocks - at)
        runs.append(range(at, at + take))
        at += take
    return tuple(runs)


def plan_ledger(nperm: int, nranks: int, *, covered=(),
                block_size: int | None = None, max_block: int | None = None
                ) -> tuple[tuple[Block, ...], tuple[range, ...]]:
    """Blocks covering ``[0, nperm)`` minus ``covered``, and each rank's run.

    ``covered`` lists the disjoint ``(start, stop)`` ranges finished
    before the job (a checkpoint, a cached prefix); the blocks tile the
    gaps between them.

    ``block_size=None`` is the static Figure-2 plan: the pending
    permutations are split into one contiguous share per rank
    (:func:`partition_permutations`), each share is that rank's run, and
    the steal pool stays empty.  An integer carves every gap into blocks
    of that size and gives each rank a short initial run
    (:func:`plan_initial_runs`); the remaining blocks form the pool.
    ``max_block`` caps every block (the checkpoint interval), so progress
    reaches the master at that granularity.  Blocks come in ascending
    index order; rank ``r`` owns the block ids ``runs[r]``.
    """
    pending: list[tuple[int, int]] = []
    at = 0
    for a, b in sorted(covered):
        if a > at:
            pending.append((at, a))
        at = max(at, b)
    if at < nperm:
        pending.append((at, nperm))
    total = sum(b - a for a, b in pending)
    if total == 0:
        return (), tuple(range(0) for _ in range(nranks))
    blocks: list[Block] = []
    if block_size is not None:
        size = block_size if max_block is None else min(block_size, max_block)
        for a, b in pending:
            for piece in carve_blocks(a, b, size):
                blocks.append(Block(len(blocks), piece.start, piece.count))
        return tuple(blocks), plan_initial_runs(len(blocks), nranks)
    runs: list[range] = []
    gaps = iter(pending)
    at, stop = next(gaps)
    for chunk in partition_permutations(total, nranks).chunks:
        first, left = len(blocks), chunk.count
        while left > 0:
            if at == stop:
                at, stop = next(gaps)
            take = min(left, stop - at)
            for piece in carve_blocks(at, at + take, max_block or take):
                blocks.append(Block(len(blocks), piece.start, piece.count))
            at += take
            left -= take
        runs.append(range(first, len(blocks)))
    return tuple(blocks), tuple(runs)
