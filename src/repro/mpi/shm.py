"""Shared-memory SPMD world: OS processes, zero-copy array collectives.

The paper's Tables I–V put the "create data" broadcast second only to the
kernel in pmaxT's time budget, and :class:`~repro.mpi.processes.ProcessComm`
pays it in full: every broadcast pickles the matrix and pushes it through a
per-rank pipe — one serialise and one copy *per worker*.  :class:`ShmComm`
keeps the process world's true memory isolation for the control plane (the
same queues, barriers and sequence numbers as ``ProcessComm``) but moves
numpy arrays through ``multiprocessing.shared_memory`` segments:

* :meth:`ShmComm.bcast_array` — the root copies the array **once** into a
  shared segment and broadcasts only ``(name, shape, dtype)``; every worker
  maps the segment and returns a read-only zero-copy view.  Cost is one
  memcpy total instead of one pickle-pipe-unpickle round per worker.

Lifecycle: every collective ends with a rendezvous after which the
creator unlinks its segment immediately — workers keep their (already
established) mappings for as long as the returned views live, since POSIX
keeps a mapping valid after the name is gone.  No named segment outlives
the collective that created it, so even a rank killed by the failure-path
teardown cannot strand one.

The returned broadcast views are marked read-only: ranks genuinely share
the pages, so a scribble would be visible world-wide — the same hazard the
thread world has, made explicit here.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from .comm import Communicator
from .processes import (
    _DEFAULT_TIMEOUT,
    _from_wire,
    _to_wire,
    ProcessComm,
    run_spmd_processes,
)

__all__ = ["ShmComm", "run_spmd_shm", "SHM_THRESHOLD_BYTES"]

#: Payloads smaller than this ride the queue wire format instead: a shared
#: segment costs a few shm_open/mmap/unlink syscalls per rank plus a
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


class ShmComm(ProcessComm):
    """Process-world communicator with shared-memory array collectives."""

    def __init__(self, rank: int, size: int, inboxes, timeout: float = _DEFAULT_TIMEOUT):
        super().__init__(rank, size, inboxes, timeout)
        self._attached: list[shared_memory.SharedMemory] = []

    # -- array collectives --------------------------------------------------------

    def _share(self, arr: np.ndarray) -> tuple[shared_memory.SharedMemory, tuple]:
        """Copy ``arr`` into a fresh shared segment; return it + metadata."""
        arr = np.ascontiguousarray(arr)
        segment = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        view[...] = arr
        return segment, (segment.name, arr.shape, arr.dtype.str)

    def _map(self, meta: tuple) -> tuple[shared_memory.SharedMemory, np.ndarray]:
        """Attach a peer's segment and return a read-only ndarray view."""
        name, shape, dtype = meta
        segment = shared_memory.SharedMemory(name=name)
        _untrack(segment)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        view.flags.writeable = False
        return segment, view

    def bcast_array(self, arr, root: int = 0, *, dtype=None):
        self._check_root(root)
        if self.size == 1:
            if dtype is None:
                return np.ascontiguousarray(arr)
            return np.ascontiguousarray(arr, dtype=np.dtype(dtype))
        # Only the root knows the payload size, so the route travels in the
        # message: small arrays go over the queue wire (same format as
        # ProcessComm), large ones as a shared segment.  The closing
        # barrier of the segment route makes the broadcast a rendezvous
        # (like the thread world's): every worker has mapped the segment
        # before any rank moves on, so the root cannot reach teardown —
        # which unlinks the name — while a slow worker is still attaching.
        # Mappings taken before the unlink stay valid while the view lives.
        if self._rank == root:
            # Dtype-aware wire: the cast happens *before* the route choice,
            # so a float32 run both ships half the bytes and picks its
            # route from the true payload size.
            if dtype is None:
                arr = np.ascontiguousarray(arr)
            else:
                arr = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
            if arr.nbytes < SHM_THRESHOLD_BYTES:
                self.array_bytes += arr.nbytes * (self.size - 1)
                self.bcast(("wire", *_to_wire(arr)), root=root)
                return arr
            # The segment route moves the payload once (root memcpy into
            # the segment), regardless of world size.
            self.array_bytes += arr.nbytes
            segment, meta = self._share(arr)
            try:
                self.bcast(("shm", *meta), root=root)
                self.barrier()
                # Every worker holds a mapping now, and mappings survive
                # the unlink — so the name is reclaimed immediately rather
                # than at teardown.
            finally:
                # Unlink even when the collective fails mid-way (a peer
                # died; the barrier raised).  The root of a persistent
                # session is a long-lived service process, so a segment
                # left for the resource tracker's at-exit sweep would pin
                # matrix-sized shared memory until the service restarts.
                segment.close()
                _unlink(segment)
            return arr
        route, *rest = self.bcast(None, root=root)
        if route == "wire":
            return _from_wire(*rest)
        self._prune_attached()
        segment, view = self._map(tuple(rest))
        self._attached.append(segment)
        self.barrier()
        return view

    # -- lifecycle ---------------------------------------------------------------

    def _prune_attached(self) -> None:
        """Release mappings whose views are gone.

        Without this, a job that broadcasts repeatedly over one world would
        pin every broadcast's pages until teardown.  ``close`` raises
        :class:`BufferError` while a live view still exports the buffer, so
        exactly the mappings still in use survive the sweep.
        """
        still_referenced = []
        for segment in self._attached:
            try:
                segment.close()
            except BufferError:
                still_referenced.append(segment)
        self._attached = still_referenced

    def _cleanup(self) -> None:
        """Close this rank's mappings (names were unlinked per-collective)."""
        for segment in self._attached:
            try:
                segment.close()
            except BufferError:  # a view outlived fn; the OS reclaims at exit
                pass
        self._attached = []


def run_spmd_shm(
    fn: Callable[[Communicator], Any],
    size: int,
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Any]:
    """Run ``fn(comm)`` on ``size`` OS processes with shared-memory arrays.

    Identical contract to :func:`~repro.mpi.processes.run_spmd_processes`
    (fork start method, rank-ordered results, failures re-raised in the
    caller, the same per-rank BLAS oversubscription cap) but
    each rank receives a :class:`ShmComm`, so ``bcast_array`` moves numpy
    data through shared memory instead of pickled queue payloads.
    """
    return run_spmd_processes(fn, size, timeout=timeout, comm_cls=ShmComm)
