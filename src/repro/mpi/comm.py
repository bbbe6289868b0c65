"""Communicator abstraction — the MPI substrate of the reproduction.

SPRINT builds on MPI-2; this environment has no MPI library, so the package
defines a small MPI-like interface covering exactly the operations ``pmaxT``
and the SPRINT framework use (paper Sections 2 and 3.2):

* ``bcast``      — Step 2 (parameters) and Step 3 (input data),
* ``reduce``     — Step 3's synchronising global sum and Step 5's count
  reduction,
* ``gather``     — Step 5 (partial observations to the master),
* ``allreduce``, ``barrier``, ``send``/``recv`` — framework plumbing.

Backends:

* :class:`~repro.mpi.serial.SerialComm` — a one-rank world (the degenerate
  but fully conformant case);
* :class:`~repro.mpi.threads.ThreadComm` — an SPMD world of OS threads with
  real blocking collectives.  NumPy's BLAS kernels release the GIL, so the
  main kernel genuinely overlaps on multicore hosts, and the collective
  semantics (blocking, rendezvous at barriers) match MPI.

The API intentionally mirrors ``mpi4py``'s lowercase object interface
(``bcast(obj, root=0)`` returns the object everywhere) because that is the
interface a Python port of SPRINT would target.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

__all__ = ["Communicator", "ReduceOp", "SUM", "MAX", "MIN"]


class ReduceOp:
    """A named, associative elementwise reduction operator."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.fn = fn

    def __call__(self, a, b):
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReduceOp({self.name})"


def _sum(a, b):
    if isinstance(a, np.ndarray):
        return a + b
    return a + b


SUM = ReduceOp("sum", _sum)
MAX = ReduceOp("max", lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b))
MIN = ReduceOp("min", lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b))


class Communicator(ABC):
    """Minimal MPI-like communicator."""

    @property
    @abstractmethod
    def rank(self) -> int:
        """This process's rank in ``[0, size)``."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the world."""

    @property
    def is_master(self) -> bool:
        """True on rank 0 — the SPRINT master."""
        return self.rank == 0

    # -- collectives -----------------------------------------------------------

    @abstractmethod
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the object."""

    @abstractmethod
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank; ``root`` gets the rank-ordered list."""

    @abstractmethod
    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduce values across ranks; only ``root`` receives the result."""

    @abstractmethod
    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce values across ranks; every rank receives the result."""

    @abstractmethod
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""

    # -- point-to-point ----------------------------------------------------------

    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send to ``dest``."""

    @abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from ``source``."""

    def recv_any(self, tag: int = 0) -> tuple[int, Any]:
        """Blocking receive from *any* source; returns ``(source, obj)``.

        The ``MPI_ANY_SOURCE`` analogue the block-ledger master needs: it
        cannot know which rank's block report arrives next.  Every
        multi-rank ``pmaxT`` world runs its Steps 4–5 over the ledger, so
        multi-rank worlds must implement this; one-rank worlds never call
        it, and the default refuses rather than silently misbehaving.
        """
        from ..errors import CommunicatorError

        raise CommunicatorError(
            f"{type(self).__name__} does not support any-source receive"
        )

    def poll_any(self, tag: int = 0) -> tuple[int, Any] | None:
        """Non-blocking :meth:`recv_any`; ``None`` when nothing is pending.

        Lets the ledger master interleave serving block requests with
        computing its own blocks instead of parking in a blocking receive.
        Required for multi-rank ``pmaxT`` worlds, like :meth:`recv_any`.
        """
        from ..errors import CommunicatorError

        raise CommunicatorError(
            f"{type(self).__name__} does not support any-source polling"
        )

    # -- array-aware collectives ---------------------------------------------------
    #
    # The paper's Tables I–V show the "create data" broadcast dominating
    # pmaxT's non-kernel time.  This entry point lets a backend move numpy
    # arrays without the generic object path's pickling: the default below
    # simply delegates (correct for any conformant world, and exactly right
    # for SerialComm/ThreadComm where ranks already share an address
    # space), while ProcessComm overrides it: a contiguous queue wire for
    # small arrays, one zero-copy shared segment for large ones.

    def bcast_array(self, arr: np.ndarray | None, root: int = 0, *,
                    dtype=None) -> np.ndarray:
        """Broadcast a numpy array from ``root``; every rank returns it.

        Non-root ranks pass ``None`` (or anything — the argument is ignored
        off-root).  The returned array may be a read-only view of shared
        storage; callers must copy before mutating it.

        ``dtype`` makes the broadcast wire dtype-aware: the root casts the
        array *before* it travels, so e.g. a float32 compute run moves
        float32 bytes (half the traffic) instead of casting a float64
        payload after the transfer.  ``None`` ships the array as is.
        """
        if dtype is not None and self.rank == root and arr is not None:
            arr = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
        return self.bcast(arr, root=root)

    # -- conveniences -------------------------------------------------------------

    def scatter(self, objs: list[Any] | None, root: int = 0) -> Any:
        """Scatter a rank-indexed list from ``root``; each rank gets its slot.

        Default implementation on top of ``bcast`` (adequate for the small
        control payloads the framework scatters).
        """
        everything = self.bcast(objs, root=root)
        return everything[self.rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"
