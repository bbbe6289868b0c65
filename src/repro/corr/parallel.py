"""``pcor`` — parallel row correlation (SPRINT's original function).

Where ``pmaxT`` divides the *permutation count* (every rank holds all the
data), ``pcor`` divides the *data*: rank ``r`` computes a contiguous block
of rows of the correlation matrix against the full matrix, and the master
concatenates the blocks.  This is exactly the "first approach" the paper's
Section 3.2 describes — the right decomposition when the output
(``m x m``) rather than the iteration count dominates — and having both in
one framework shows why SPRINT chose per-function strategies.

The row-block partition reuses the same balanced block arithmetic as the
permutation plan, so load balance and coverage share one tested code path.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.partition import partition_permutations
from ..errors import DataError
from ..mpi import Communicator, SerialComm
from ..mpi.datasets import PublishedDataset, attach_published_view
from ..mpi.session import BackendSession
from .serial import cor

__all__ = ["lookup_cached_pcor", "pcor", "pcor_cache_key", "row_block"]


def pcor_cache_key(dataset_fp: str, *, use: str, na: float | None,
                   y_fp: str | None = None) -> str:
    """Key of a cached pcor result: dataset (x optional Y) x NA policy.

    The correlation matrix is a pure function of the input bytes and the
    missing-data handling, so those are the whole key.  Like
    :func:`~repro.core.checkpoint.result_cache_key` the payload is
    versioned and **frozen** — changing it orphans existing entries.
    """
    payload = ("pcor-cache-v1", dataset_fp, use, na, y_fp)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _pcor_key_for(X, Y, *, use: str, na: float | None) -> str:
    """Cache key for a concrete pcor call (arrays or published handles)."""
    from ..core.checkpoint import dataset_fingerprint

    if isinstance(X, PublishedDataset):
        x_fp = X.fingerprint
    else:
        x_fp = dataset_fingerprint(X)
    y_fp = None if Y is None else dataset_fingerprint(Y)
    return pcor_cache_key(x_fp, use=use, na=na, y_fp=y_fp)


def lookup_cached_pcor(cache, X, Y=None, *, use: str = "everything",
                       na: float | None = None) -> np.ndarray | None:
    """Answer a pcor call from ``cache`` alone, or return ``None``.

    The service front-end's short-circuit, mirroring
    :func:`repro.core.pmaxt.lookup_cached`: a hit returns the stored
    matrix (bit-identical to recomputing — each row is produced by the
    same serial arithmetic regardless of world size) and bumps
    ``cache.hits``; a miss returns ``None`` and leaves the counters
    alone, so the caller routes the request through :func:`pcor`.
    """
    entry = cache.lookup_array("pcor", _pcor_key_for(X, Y, use=use, na=na))
    if entry is None:
        return None
    cache.hits += 1
    return entry["cor"]


def _session_worker(comm: Communicator) -> np.ndarray | None:
    """Worker-rank pcor under a persistent session (picklable; the data
    and options arrive via the master's broadcasts)."""
    return pcor(comm=comm)


def row_block(m: int, rank: int, size: int) -> tuple[int, int]:
    """The (start, count) row block rank ``rank`` owns for ``m`` rows.

    Balanced contiguous blocks (remainder to the earlier ranks), computed
    with the same plan arithmetic as the permutation partition.
    """
    plan = partition_permutations(m, size)
    chunk = plan.chunk_for(rank)
    return chunk.start, chunk.count


def pcor(X=None, Y=None, *, use: str = "everything",
         na: float | None = None,
         comm: Communicator | None = None,
         backend: str | None = None,
         ranks: int | None = None,
         session: BackendSession | None = None,
         timeout: float | None = None,
         cache=None,
         cache_dir: str | None = None) -> np.ndarray | None:
    """Parallel Pearson correlation of matrix rows.

    SPMD entry point with the same contract as :func:`~repro.core.pmaxt.pmaxT`:
    every rank calls it, workers may pass ``X=None`` (the master broadcasts
    the data), and the assembled ``m x m`` (or ``m x k``) matrix is returned
    on the master, ``None`` on the workers.  As with ``pmaxT``, passing a
    registered execution-backend name plus a rank count —
    ``pcor(X, backend="shm", ranks=4)`` — launches the SPMD world
    internally and returns the assembled matrix directly.

    The result is **identical** to :func:`repro.corr.cor` for any world
    size: each output row is computed by exactly one rank with the same
    arithmetic as the serial code.

    For repeated calls, ``session=`` (from :func:`repro.mpi.open_session`)
    dispatches over a resident worker pool instead of launching a fresh
    world per call.  ``X`` additionally accepts a
    :class:`~repro.mpi.datasets.PublishedDataset` handle from
    ``session.publish``: the matrix then never crosses the wire — workers
    map the published segment read-only.  ``timeout`` bounds the launched
    job's execution in seconds (ignored with ``comm=``).

    ``cache``/``cache_dir`` enable the content-addressed result cache
    (same machinery and directory as pmaxT's — resolution order ``cache``
    > ``cache_dir`` > the session's cache): a repeated correlation of the
    same bytes under the same NA policy is answered from disk.  The raw
    SPMD path (``comm=``) bypasses the cache, exactly as in pmaxT.
    """
    resolved_cache = cache
    if resolved_cache is None and cache_dir is not None:
        from ..core.checkpoint import ResultCache

        resolved_cache = ResultCache(cache_dir)
    if resolved_cache is None and session is not None:
        resolved_cache = session.cache
    if resolved_cache is not None and comm is None:
        if X is None:
            raise DataError("the master rank must supply X")
        key = _pcor_key_for(X, Y, use=use, na=na)
        entry = resolved_cache.lookup_array("pcor", key)
        if entry is not None:
            resolved_cache.hits += 1
            return entry["cor"]
        resolved_cache.misses += 1
        result = _pcor_run(X, Y, use=use, na=na, comm=None,
                           backend=backend, ranks=ranks, session=session,
                           timeout=timeout)
        resolved_cache.save_array("pcor", key, {"cor": result})
        return result

    return _pcor_run(X, Y, use=use, na=na, comm=comm,
                     backend=backend, ranks=ranks, session=session,
                     timeout=timeout)


def _pcor_run(X, Y, *, use, na, comm, backend, ranks, session,
              timeout) -> np.ndarray | None:
    """The SPMD body of :func:`pcor` (cache orchestration lives above)."""
    if backend is not None or ranks is not None or session is not None:
        from ..mpi.backends import launch_master

        def _job(world_comm: Communicator) -> np.ndarray | None:
            return pcor(X if world_comm.is_master else None,
                        Y if world_comm.is_master else None,
                        use=use, na=na, comm=world_comm)

        return launch_master(backend, ranks, _job, comm=comm,
                             session=session, worker_fn=_session_worker,
                             caller="pcor", timeout=timeout)

    if comm is None:
        comm = SerialComm()
    route = None
    if comm.is_master:
        if X is None:
            raise DataError("the master rank must supply X")
        if isinstance(X, PublishedDataset):
            # Published dataset: consume the float64 base variant in
            # place and ship only the segment descriptor (see
            # :mod:`repro.mpi.datasets`).
            X, route = X.resolve("float64", None)
        else:
            X = np.asarray(X, dtype=np.float64)
        Y = None if Y is None else np.asarray(Y, dtype=np.float64)
        meta = (Y is not None, use, na, route)
    else:
        meta = None
    has_Y, use, na, route = comm.bcast(meta, root=0)
    if route is not None:
        if not comm.is_master:
            X = attach_published_view(route)
    else:
        X = comm.bcast_array(X if comm.is_master else None, root=0)
    if has_Y:
        Y = comm.bcast_array(Y if comm.is_master else None, root=0)
    else:
        Y = None

    m = X.shape[0]
    start, count = row_block(m, comm.rank, comm.size)
    if count > 0:
        block = cor(X[start:start + count], Y if Y is not None else X,
                    use=use, na=na)
    else:
        width = (Y if Y is not None else X).shape[0]
        block = np.empty((0, width), dtype=np.float64)
    gathered = comm.gather((start, block), root=0)
    if not comm.is_master:
        return None
    gathered.sort(key=lambda pair: pair[0])
    return np.vstack([blk for _, blk in gathered])
