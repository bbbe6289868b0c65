"""The block ledger: the only Step-4/5 path of ``pmaxT``.

Every run — static or stealing, one rank or many, checkpointed, extending
a cached result, replaying stored permutations — executes as a set of
permutation :class:`~repro.core.partition.Block`\\ s that the master
tracks in a :class:`BlockLedger`.  A job is the blocks, each rank's
deterministic initial run of blocks (:func:`~repro.core.partition.plan_ledger`),
a steal pool holding the rest, and a *prior*: the permutation ranges
already covered before the job started (a checkpoint, a cached prefix)
with their summed counts.

* The paper's static Figure-2 partition is the degenerate assignment:
  one block per rank and an empty pool.
* The steal schedule carves fixed-size blocks and keeps most of them in
  the pool, so finished ranks take load off stragglers.

Determinism is preserved by construction rather than by locking:

* each block's permutation draws depend only on its permutation indices
  (the Philox keystream gives O(1) seek to any index), so a block computes
  the same contribution on any rank;
* the accumulated quantities are integer count vectors, and int64 addition
  is exactly associative and commutative, so *any* block-to-rank assignment
  and *any* accumulation order reproduce the static plan bit for bit.

The protocol is four message types on a per-job tag:

* worker → master ``("done", finished_bids, contribution)`` — report a
  block of the initial run (no reply), so its counts reach the master
  (and its checkpoint) before the run ends;
* worker → master ``("req", finished_bids, contribution)`` — report the
  blocks just completed (with their merged counts) and ask for more;
* master → worker ``("grant", bid)`` — compute block ``bid``;
* master → worker ``("stop",)`` — the pool is drained, exit.

Contributions ride these messages, so Step 5 needs no collective
reduction: when the ledger is complete the master already holds the world
totals.  The schedule never touches a rank's BLAS pool: every rank keeps
the cap its world's bootstrap set (:func:`repro.mpi.blasctl.apply_worker_cap`)
for the whole job, idle peers or not.

Fault granularity: when a worker dies mid-job the session's health watcher
raises :class:`~repro.errors.WorkerDeadError` inside the master's blocking
receive.  If the communicator exposes an ``_acknowledge_dead`` hook (the
persistent :class:`~repro.mpi.session.WorkerPoolSession` attaches one), the
master requeues exactly the dead rank's in-flight blocks and finishes with
the survivors — their warm ``resident_cache()`` workspaces and published
dataset attachments are untouched, and the session respawns only the dead
rank afterwards.  Without the hook (one-shot worlds) the error propagates
and the world tears down as before.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Sequence

from ..errors import PermutationError, WorkerDeadError
from .partition import Block

__all__ = [
    "STEAL_TAG_BASE",
    "DEFAULT_STEAL_BLOCK",
    "BlockLedger",
    "injected_delay",
    "run_steal_master",
    "run_steal_worker",
]

#: Base point-to-point tag for steal traffic.  Each job adds its own epoch
#: (agreed via the Step-2 parameter broadcast) so a frame from a rank that
#: died mid-job can never be mistaken for a message of a later job.
STEAL_TAG_BASE = 0x53_000000

#: Default permutations per block.  Small enough that a 4x straggler sheds
#: most of its share, large enough that the per-block request round-trip
#: (one pickled tuple each way) stays far below the block's GEMM time.
DEFAULT_STEAL_BLOCK = 256

#: Test/benchmark hook: ``REPRO_STEAL_TEST_DELAY="1:0.002,*:0.0005"`` makes
#: rank 1 sleep 2 ms per permutation and every other rank 0.5 ms — how the
#: straggler tests and ``bench_straggler.py`` induce skew on any host.
_DELAY_ENV_VAR = "REPRO_STEAL_TEST_DELAY"


def injected_delay(rank: int) -> float:
    """Per-permutation sleep (seconds) injected for ``rank``, usually 0.

    Parses :data:`_DELAY_ENV_VAR` (``rank:seconds`` pairs, comma-separated,
    ``*`` as wildcard); malformed entries are ignored so a stray value can
    never break a production run.
    """
    spec = os.environ.get(_DELAY_ENV_VAR)
    if not spec:
        return 0.0
    fallback = 0.0
    for entry in spec.split(","):
        key, _, value = entry.partition(":")
        try:
            seconds = float(value)
        except ValueError:
            continue
        key = key.strip()
        if key == "*":
            fallback = seconds
        elif key == str(rank):
            return seconds
    return fallback


class BlockLedger:
    """Master-side record of where every block is and whether it finished.

    The ledger is the determinism *audit*: the arithmetic is correct for
    any assignment, so the only thing that can go wrong is coverage — a
    block computed twice or not at all.  ``covered`` is the job's prior:
    permutation ranges finished before the job started (a checkpoint, a
    cached prefix).  :meth:`assert_exact_cover` proves that the prior plus
    the blocks tile the whole permutation range exactly once.
    """

    def __init__(self, blocks: Sequence[Block], covered=()):
        self._blocks = tuple(blocks)
        self._prior = tuple((int(a), int(b)) for a, b in covered)
        self._granted: dict[int, int] = {}
        self._done: dict[int, int] = {}

    def grant(self, bid: int, rank: int) -> None:
        if bid in self._done or bid in self._granted:
            raise PermutationError(f"block {bid} granted twice")
        self._granted[bid] = rank

    def mark_done(self, rank: int, bids: Sequence[int]) -> None:
        for bid in bids:
            owner = self._granted.pop(bid, None)
            if owner != rank:
                raise PermutationError(
                    f"rank {rank} reported block {bid} done, but it was "
                    f"granted to {owner}"
                )
            self._done[bid] = rank

    def requeue_rank(self, rank: int) -> list[int]:
        """Forget the grants of a dead rank; returns its in-flight bids."""
        lost = sorted(bid for bid, r in self._granted.items() if r == rank)
        for bid in lost:
            del self._granted[bid]
        return lost

    def in_flight(self, rank: int) -> list[int]:
        return sorted(bid for bid, r in self._granted.items() if r == rank)

    @property
    def complete(self) -> bool:
        return not self._granted and len(self._done) == len(self._blocks)

    def covered(self) -> list[tuple[int, int]]:
        """The prior plus every finished block, as merged ``(start, stop)``."""
        spans = sorted([*self._prior, *((self._blocks[bid].start,
                                         self._blocks[bid].stop)
                                        for bid in self._done)])
        merged: list[tuple[int, int]] = []
        for a, b in spans:
            if merged and merged[-1][1] == a:
                merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        return merged

    def assert_exact_cover(self, start: int, stop: int) -> None:
        """Every block done once; prior plus blocks tile ``[start, stop)``."""
        if self._granted:
            raise PermutationError(
                f"steal ledger has {len(self._granted)} blocks still in "
                f"flight at job end: {sorted(self._granted)}"
            )
        missing = [b.bid for b in self._blocks if b.bid not in self._done]
        if missing:
            raise PermutationError(
                f"steal ledger is missing blocks {missing} at job end"
            )
        at = start
        for a, b in sorted([*self._prior,
                            *((blk.start, blk.stop) for blk in self._blocks)]):
            if a != at:
                raise PermutationError(
                    f"ledger range [{a}, {b}) starts at {a}, expected {at}"
                )
            at = b
        if at != stop:
            raise PermutationError(
                f"ledger covers [{start}, {at}), expected [{start}, {stop})"
            )


def run_steal_master(
    comm: Any,
    blocks: Sequence[Block],
    runs: Sequence[range],
    compute_block: Callable[[Block], Any],
    merge: Callable[[Any, Any], Any],
    *,
    tag: int,
    poll_unit: int | None = None,
    covered=(),
    on_progress: Callable[[Any, BlockLedger], None] | None = None,
) -> tuple[Any, BlockLedger, dict[str, int]]:
    """Rank 0's side of the ledger protocol.

    Serves block requests, computes its own initial run and — between
    requests — pool blocks, handles worker deaths when the communicator
    allows it, and returns ``(accumulated, ledger, stats)``.  The
    accumulator folds contributions with ``merge(acc, contribution)``
    (``acc`` starts as ``None``); associativity of the underlying counts
    makes the fold order irrelevant to the bits of the result.

    ``covered`` is the job's prior (ranges finished before the job; their
    counts stay with the caller).  ``on_progress(acc, ledger)`` runs after
    every merge that finishes blocks, when ``acc`` holds exactly the
    counts of the ledger's finished blocks — the checkpoint hook.

    ``poll_unit`` bounds how long a straggler can wait for a refill
    while rank 0 is computing: the master's own blocks are computed in
    sub-block units of at most ``poll_unit`` permutations, and pending
    steal requests are serviced between units.  ``None`` keeps the
    whole-block granularity.  Sub-units tile the block's permutation
    indices exactly, so the contribution (an associative int64 count
    sum) is bit-identical to the whole-block compute.
    """
    ledger = BlockLedger(blocks, covered)
    my_blocks: deque[int] = deque(runs[0])
    taken = {bid for run in runs for bid in run}
    pool: deque[int] = deque(b.bid for b in blocks if b.bid not in taken)
    for rank, run in enumerate(runs):
        for bid in run:
            ledger.grant(bid, rank)
    active = set(range(1, comm.size))
    dead: set[int] = set()
    acc: Any = None
    stats = {
        "blocks_total": len(blocks),
        "blocks_stolen": 0,
        "deaths_handled": 0,
        "blocks_requeued": 0,
    }

    def finish(rank: int, bids: Sequence[int], contribution: Any) -> None:
        nonlocal acc
        ledger.mark_done(rank, bids)
        if contribution is not None:
            acc = merge(acc, contribution)
        if bids and on_progress is not None:
            on_progress(acc, ledger)

    def handle_request(src: int, payload: Any) -> None:
        if src in dead or src not in active:
            return  # a frame that outlived its sender; its blocks requeue
        kind, finished, contribution = payload
        if kind not in ("req", "done"):  # pragma: no cover - protocol invariant
            raise PermutationError(f"unexpected steal message {kind!r}")
        finish(src, finished, contribution)
        if kind == "done":
            return
        if pool:
            bid = pool.popleft()
            ledger.grant(bid, src)
            stats["blocks_stolen"] += 1
            comm.send(("grant", bid), src, tag)
        else:
            active.discard(src)
            comm.send(("stop",), src, tag)

    def serve_pending() -> None:
        # Only peers send on the tag; a world without active peers (one
        # rank, or every worker stopped) has nothing to poll for.
        while active:
            pending = comm.poll_any(tag)
            if pending is None:
                return
            handle_request(*pending)

    def handle_death(rank: int) -> None:
        requeued = ledger.requeue_rank(rank)
        pool.extendleft(reversed(requeued))
        active.discard(rank)
        dead.add(rank)
        stats["deaths_handled"] += 1
        stats["blocks_requeued"] += len(requeued)

    while True:
        serve_pending()
        if my_blocks:
            bid = my_blocks.popleft()
        elif pool:
            bid = pool.popleft()
            ledger.grant(bid, 0)
        elif active:
            try:
                src, payload = comm.recv_any(tag)
            except WorkerDeadError as exc:
                ack = getattr(comm, "_acknowledge_dead", None)
                if ack is None:
                    raise
                ack(exc.rank)
                handle_death(exc.rank)
                continue
            handle_request(src, payload)
            continue
        else:
            break
        block = blocks[bid]
        if poll_unit is None or poll_unit >= block.count:
            finish(0, [bid], compute_block(block))
            continue
        # Sub-block service units: drain pending steal requests between
        # units so a large block on the master cannot delay a straggler's
        # refill by a whole block's compute.
        part: Any = None
        at = block.start
        while at < block.stop:
            count = min(poll_unit, block.stop - at)
            part = merge(part, compute_block(
                Block(bid=block.bid, start=at, count=count)))
            at += count
            if at < block.stop:
                serve_pending()
        finish(0, [bid], part)
    return acc, ledger, stats


def run_steal_worker(
    comm: Any,
    blocks: Sequence[Block],
    run: range,
    compute_block: Callable[[Block], Any],
    merge: Callable[[Any, Any], Any],
    *,
    tag: int,
) -> None:
    """A worker rank's side of the ledger protocol.

    Computes the deterministic initial ``run`` without waiting on the
    master — every block but the last is reported as it finishes
    (``"done"``), the last rides the first request — then loops
    request → grant/stop.  After every send the local contribution is
    abandoned, never mutated — required for the threads backend, where
    ``send`` passes objects by reference.
    """
    acc: Any = None
    finished: list[int] = []
    for bid in run:
        if finished:
            comm.send(("done", finished, acc), 0, tag)
        acc = merge(None, compute_block(blocks[bid]))
        finished = [bid]
    while True:
        comm.send(("req", finished, acc), 0, tag)
        acc = None
        finished = []
        message = comm.recv(0, tag)
        if message[0] == "stop":
            return
        _, bid = message
        acc = merge(acc, compute_block(blocks[bid]))
        finished = [bid]
