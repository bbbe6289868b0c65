"""Process-based SPMD world (real OS processes, like MPI ranks).

SPRINT's ranks are OS processes, not threads.  :func:`run_spmd_processes`
reproduces that: it forks ``size`` worker processes, each executing the
same function against a :class:`ProcessComm`, and collects the rank-ordered
results.  Collectives are routed through per-rank queues with rank 0 acting
as the coordinator of a star topology — semantically equivalent to (if
slower than) MPI's trees, and entirely adequate for the control-plane
volumes pmaxT moves (options, the dataset broadcast, two count vectors).
The world is registered as the ``shm`` backend.

Trade-offs versus :class:`~repro.mpi.threads.ThreadComm`:

* true memory isolation for the control plane — a rank cannot scribble on
  another's arrays, so this backend catches sharing bugs the thread world
  can't;
* object payloads are pickled; numpy arrays above
  :data:`SHM_THRESHOLD_BYTES` travel through one
  ``multiprocessing.shared_memory`` segment instead (see
  :meth:`ProcessComm.bcast_array`), so the paper's "create data" broadcast
  costs one memcpy rather than one pickle-pipe-unpickle round per worker;
* requires the ``fork`` start method for closures to travel (the default
  on Linux).

Segment lifecycle: every array broadcast that takes the segment route ends
with a rendezvous after which the creator unlinks its segment at once —
workers keep their mappings for as long as the returned read-only views
live, since POSIX keeps a mapping valid after the name is gone.  No named
segment outlives the collective that created it, so even a rank killed by
the failure-path teardown cannot strand one.

Failure handling: a crashing rank ships its exception back through the
result queue; the parent terminates the survivors and re-raises.

This driver stands the world up and tears it down per call — the right
trade for a single run.  Callers that dispatch many jobs against the same
rank count should hold a persistent world instead:
:class:`~repro.mpi.session.WorkerPoolSession` keeps these workers (and
their queues, communicators and per-rank caches) resident across jobs.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import time
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from ..errors import CommunicatorError
from .comm import Communicator, ReduceOp, SUM

__all__ = ["ProcessComm", "run_spmd_processes", "SHM_THRESHOLD_BYTES"]

_DEFAULT_TIMEOUT = 300.0

#: Array payloads smaller than this ride the queue wire format instead: a
#: shared segment costs a few shm_open/mmap/unlink syscalls per rank plus a
#: rendezvous, which only pays for itself once the pickle-and-pipe cost it
#: replaces is bigger.  256 KiB is comfortably past the crossover measured
#: in ``benchmarks/bench_backend_broadcast.py``.
SHM_THRESHOLD_BYTES = 1 << 18


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Unregister an *attached* segment from the resource tracker.

    Attaching registers the name with ``multiprocessing.resource_tracker``
    exactly like creating does (fixed by ``track=False`` only in 3.13+), so
    without this every worker attachment would trigger a bogus
    "leaked shared_memory" unlink attempt at interpreter shutdown.  Only
    the creator should remain registered.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _unlink(segment: shared_memory.SharedMemory) -> None:
    """Unlink a segment this process created, without tracker noise.

    Forked ranks share their parent's resource tracker, and a peer's
    attach-then-:func:`_untrack` cycle removes the name from the tracker's
    set.  ``unlink()`` unregisters the name again, which would make the
    tracker print a ``KeyError`` traceback.  Re-registering first restores
    the balance: ``register`` is an idempotent set-add.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.register(segment._name, "shared_memory")
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


class ProcessComm(Communicator):
    """Per-rank communicator backed by multiprocessing queues.

    ``inboxes[r]`` carries every message addressed to rank ``r`` as
    ``(kind, source, tag, payload)`` tuples.  Collectives are star-shaped:
    non-root ranks exchange with the coordinator (rank 0 for barriers,
    the operation's ``root`` otherwise) using reserved kinds, so user
    point-to-point traffic and collective traffic cannot be confused.
    """

    #: Session hooks attached to the master-rank communicator by
    #: :class:`~repro.mpi.session.WorkerPoolSession`; the work-stealing
    #: scheduler reads them via ``getattr``.  ``None`` on worker ranks and
    #: in one-shot worlds.
    _acknowledge_dead: Callable[[int], None] | None = None
    _on_steal_stats: Callable[[dict], None] | None = None

    def __init__(self, rank: int, size: int, inboxes, timeout: float = _DEFAULT_TIMEOUT):
        self._rank = rank
        self._size = size
        self._inboxes = inboxes
        self._timeout = timeout
        self._stash: list[tuple] = []  # out-of-order messages
        #: Root-side tally of array-broadcast payload bytes shipped to
        #: workers (``nbytes`` x receivers per ``bcast_array``).  The
        #: dataset registry's acceptance test reads it to prove that a
        #: published matrix crosses the wire zero times per call.
        self.array_bytes = 0
        # Collective sequence number.  Every rank executes the same
        # collective sequence (SPMD), so numbering the operations keeps
        # back-to-back collectives of the same kind from racing: a fast
        # rank's gather #2 payload can arrive while the root is still
        # collecting gather #1, and must not be consumed by it.
        self._opseq = 0
        # Mappings of peers' broadcast segments, each with a weak
        # reference to the view that reads it.
        self._attached: list[tuple[shared_memory.SharedMemory, weakref.ref]] = []

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # -- plumbing ---------------------------------------------------------------

    def _put(self, dest: int, kind: str, tag: int, payload: Any) -> None:
        if not 0 <= dest < self._size:
            raise CommunicatorError(f"dest {dest} out of range [0, {self._size})")
        self._inboxes[dest].put((kind, self._rank, tag, payload))

    def _get(self, kind: str, source: int | None, tag: int) -> Any:
        """Receive the next matching message, stashing non-matching ones."""
        for i, msg in enumerate(self._stash):
            k, src, t, payload = msg
            if k == kind and t == tag and (source is None or src == source):
                del self._stash[i]
                return src, payload
        while True:
            try:
                msg = self._inboxes[self._rank].get(timeout=self._timeout)
            except queue_mod.Empty:
                raise CommunicatorError(
                    f"rank {self._rank} timed out waiting for {kind} "
                    f"(source={source}, tag={tag})"
                ) from None
            k, src, t, payload = msg
            if k == kind and t == tag and (source is None or src == source):
                return src, payload
            self._stash.append(msg)

    # -- collectives ---------------------------------------------------------------

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_root(root)
        seq = self._opseq
        self._opseq += 1
        if self._rank == root:
            if self._size > 1:
                # Pre-pickle once: each queue put then ships opaque bytes
                # (one serialisation instead of one per worker), and an
                # unpicklable payload raises *here* instead of failing
                # silently in the queue's feeder thread — which would
                # leave every worker blocked waiting for a broadcast that
                # never arrives.
                try:
                    wire = pickle.dumps(obj,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    raise CommunicatorError(
                        f"bcast payload is not picklable for the process "
                        f"world: {exc!r} (module-level functions travel; "
                        "lambdas and local closures do not)") from exc
                for dest in range(self._size):
                    if dest != root:
                        self._put(dest, "bcast", seq, wire)
            return obj
        _, payload = self._get("bcast", root, seq)
        return pickle.loads(payload)

    def gather(self, obj: Any, root: int = 0):
        self._check_root(root)
        seq = self._opseq
        self._opseq += 1
        if self._rank == root:
            out: list[Any] = [None] * self._size
            out[root] = obj
            for _ in range(self._size - 1):
                src, payload = self._get("gather", None, seq)
                out[src] = payload
            return out
        self._put(root, "gather", seq, obj)
        return None

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        gathered = self.gather(value, root=root)
        if gathered is None:
            return None
        acc = gathered[0]
        for other in gathered[1:]:
            acc = op(acc, other)
        return acc

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        result = self.reduce(value, op=op, root=0)
        return self.bcast(result, root=0)

    # -- array-aware collectives ---------------------------------------------------

    def bcast_array(self, arr, root: int = 0, *, dtype=None):
        """Broadcast an array, routed by its size.

        Below :data:`SHM_THRESHOLD_BYTES` the raw bytes travel through
        every worker's queue; above it the root copies the array **once**
        into a shared segment and broadcasts only the segment's name, and
        every worker maps the segment zero-copy.  Either message carries
        the shape and dtype.  Workers get read-only arrays on either route:
        ranks share the segment's pages, so a scribble would be visible
        world-wide.

        ``dtype`` (root-side) casts the payload before the route choice,
        so a float32 run both ships half the bytes and picks its route
        from the true payload size.
        """
        self._check_root(root)
        if self.size == 1:
            if dtype is None:
                return np.ascontiguousarray(arr)
            return np.ascontiguousarray(arr, dtype=np.dtype(dtype))
        # Only the root knows the payload size, so the route travels in the
        # message.  The closing barrier of the segment route makes the
        # broadcast a rendezvous (like the thread world's): every worker
        # has mapped the segment before any rank moves on, so the root
        # cannot reach teardown — which unlinks the name — while a slow
        # worker is still attaching.  Mappings taken before the unlink
        # stay valid while the view lives.
        if self._rank == root:
            if dtype is None:
                arr = np.ascontiguousarray(arr)
            else:
                arr = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
            if arr.nbytes < SHM_THRESHOLD_BYTES:
                self.array_bytes += arr.nbytes * (self.size - 1)
                self.bcast(("wire", arr.tobytes(), arr.shape, arr.dtype.str), root=root)
                return arr
            # The segment route moves the payload once (root memcpy into
            # the segment), regardless of world size.
            self.array_bytes += arr.nbytes
            segment = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
            try:
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)[...] = arr
                self.bcast(("shm", segment.name, arr.shape, arr.dtype.str), root=root)
                self.barrier()
            finally:
                # Unlink even when the collective fails mid-way (a peer
                # died; the barrier raised).  The root of a persistent
                # session is a long-lived service process, so a segment
                # left for the resource tracker's at-exit sweep would pin
                # matrix-sized shared memory until the service restarts.
                segment.close()
                _unlink(segment)
            return arr
        route, ref, shape, dtype_str = self.bcast(None, root=root)
        if route == "wire":
            # Viewing the immutable bytes makes the array read-only.
            return np.frombuffer(ref, dtype=dtype_str).reshape(shape)
        self._prune_attached()
        segment = shared_memory.SharedMemory(name=ref)
        _untrack(segment)
        view = np.ndarray(shape, dtype=dtype_str, buffer=segment.buf)
        view.flags.writeable = False
        self._attached.append((segment, weakref.ref(view)))
        self.barrier()
        return view

    def barrier(self) -> None:
        # two-phase star barrier through rank 0
        seq = self._opseq
        self._opseq += 1
        if self._rank == 0:
            for _ in range(self._size - 1):
                self._get("barrier-in", None, seq)
            for dest in range(1, self._size):
                self._put(dest, "barrier-out", seq, None)
        else:
            self._put(0, "barrier-in", seq, None)
            self._get("barrier-out", 0, seq)

    # -- point-to-point ----------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._put(dest, "p2p", tag, obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self._size:
            raise CommunicatorError(
                f"source {source} out of range [0, {self._size})"
            )
        _, payload = self._get("p2p", source, tag)
        return payload

    def recv_any(self, tag: int = 0) -> tuple[int, Any]:
        src, payload = self._get("p2p", None, tag)
        return src, payload

    def poll_any(self, tag: int = 0) -> tuple[int, Any] | None:
        """Non-blocking any-source receive.

        Checks the stash first, then drains the inbox without blocking,
        stashing anything that is not a matching point-to-point frame (a
        collective payload drained here must survive for the collective
        that expects it).
        """
        for i, msg in enumerate(self._stash):
            k, src, t, payload = msg
            if k == "p2p" and t == tag:
                del self._stash[i]
                return src, payload
        while True:
            try:
                msg = self._inboxes[self._rank].get_nowait()
            except (queue_mod.Empty, OSError, ValueError, EOFError):
                return None
            k, src, t, payload = msg
            if k == "p2p" and t == tag:
                return src, payload
            self._stash.append(msg)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self._size:
            raise CommunicatorError(f"root {root} out of range [0, {self._size})")

    # -- lifecycle ---------------------------------------------------------------

    def _prune_attached(self) -> None:
        """Release mappings whose views are gone.

        Runs before each segment attach, after each session job and when a
        one-shot rank finishes, so a world that broadcasts repeatedly does
        not pin every broadcast's pages until teardown.  A mapping is closed
        only once its view is garbage: numpy keeps no buffer export on
        ``segment.buf``, so ``close`` would succeed under a live view and
        unmap the pages it reads (a later mapping can then land at the same
        address, and the stale view reads the next broadcast's data).
        Every array derived from the view holds the view itself as its
        base, so the weak reference dies with the last of them.  Mappings
        still in use survive the sweep (the OS reclaims those at exit;
        names were unlinked per collective).
        """
        live = []
        for segment, view in self._attached:
            if view() is None:
                segment.close()
            else:
                live.append((segment, view))
        self._attached = live


def _worker(fn, rank, size, inboxes, results, timeout):  # pragma: no cover
    # (covered indirectly — runs in the child process)
    try:
        # Cap this rank's BLAS pool before any GEMM spins it up: with
        # `size` ranks sharing the host, an uncapped pool would schedule
        # size x cores runnable threads (the classic oversubscription
        # thrash).
        from .blasctl import apply_worker_cap

        apply_worker_cap(size)
        comm = ProcessComm(rank, size, inboxes, timeout)
        try:
            results.put((rank, True, fn(comm)))
        finally:
            comm._prune_attached()
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        results.put((rank, False, (type(exc).__name__, str(exc), traceback.format_exc())))


def _drain(q) -> list:
    """Empty a queue without blocking; tolerate closed/broken queues."""
    out = []
    while True:
        try:
            out.append(q.get_nowait())
        except (queue_mod.Empty, OSError, ValueError, EOFError):
            return out


def _join_or_kill(procs, timeout: float = 30.0) -> None:
    """Join every process, escalating to SIGKILL on stragglers.

    Shared teardown tail of the one-shot driver below and the persistent
    :class:`~repro.mpi.session.WorkerPoolSession`: after a terminate (or a
    graceful stop), anything still alive is forcibly reaped so the caller
    can safely close the queues.
    """
    for p in procs:
        p.join(timeout=timeout)
        if p.is_alive():  # terminated mid-flush; escalate
            p.kill()
            p.join(timeout=5)


def run_spmd_processes(
    fn: Callable[[Communicator], Any],
    size: int,
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run ``fn(comm)`` on ``size`` OS processes; return rank-ordered results.

    Requires a picklable-under-fork ``fn`` (plain functions and closures
    are fine on Linux).  If any rank raises, the survivors are terminated
    and a :class:`CommunicatorError` carrying the child's traceback is
    raised in the caller.

    Each rank caps its BLAS threadpool at ``max(1, cores // size)`` before
    ``fn`` runs (:func:`~repro.mpi.blasctl.rank_cap`).
    """
    if size <= 0:
        raise CommunicatorError(f"world size must be positive, got {size}")
    ctx = mp.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(size)]
    results_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker,
            args=(fn, rank, size, inboxes, results_q, timeout),
            name=f"spmd-proc-{rank}",
        )
        for rank in range(size)
    ]
    for p in procs:
        p.start()
    results: list[Any] = [None] * size
    failure: tuple | None = None
    try:
        for _ in range(size):
            try:
                rank, ok, payload = results_q.get(timeout=timeout)
            except queue_mod.Empty:
                raise CommunicatorError(
                    "timed out waiting for rank results"
                ) from None
            if ok:
                results[rank] = payload
            elif failure is None:
                failure = (rank, payload)
                break
    finally:
        if failure is not None:
            # Drain the queues *before* terminating survivors: a rank that
            # finished normally may be blocked in its queue feeder flushing
            # a large result — or a collective payload addressed to the
            # crashed rank — into a full pipe, and would hang the joins
            # below (then be killed mid-flush) if nobody reaps its entries.
            # Draining is only safe while the writers are alive (a reader
            # never sees a truncated frame from a live feeder), which is
            # exactly the window this loop covers.
            grace = time.monotonic() + 2.0
            while any(p.is_alive() for p in procs) and \
                    time.monotonic() < grace:
                for entry in _drain(results_q):
                    entry_rank, ok, payload = entry
                    if ok:
                        results[entry_rank] = payload
                for q in inboxes:
                    _drain(q)
                time.sleep(0.01)
            for p in procs:
                if p.is_alive():
                    p.terminate()
        _join_or_kill(procs, timeout=30)
        # No draining after the kills: a feeder terminated mid-write leaves
        # a truncated frame, and a get() on it would block forever.  With
        # every child reaped, closing the parent's handles releases the
        # pipes and their buffers.
        for q in (*inboxes, results_q):
            q.close()
    if failure is not None:
        rank, (name, message, tb) = failure
        raise CommunicatorError(
            f"rank {rank} failed with {name}: {message}\n--- child "
            f"traceback ---\n{tb}"
        )
    return results
