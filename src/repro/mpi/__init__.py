"""MPI substrate: communicator interface, worlds, and the backend registry.

Two layers live here:

**Communicators** (:mod:`repro.mpi.comm`) — the MPI-like interface every
algorithm is written against: ``bcast``/``gather``/``reduce``/``barrier``
plus the array-aware ``bcast_array`` collective that lets a backend move
numpy data without pickling.  Implementations:

* :class:`~repro.mpi.serial.SerialComm` — one-rank world;
* :class:`~repro.mpi.threads.ThreadComm` — SPMD OS threads with blocking
  collectives (BLAS releases the GIL, so kernels overlap);
* :class:`~repro.mpi.processes.ProcessComm` — forked OS processes with
  per-rank queues (true memory isolation); arrays above 256 KiB broadcast
  through one zero-copy ``multiprocessing.shared_memory`` segment.

**Backends** (:mod:`repro.mpi.backends`) — the string-keyed registry that
launches a world by name: ``"serial"``, ``"threads"``, ``"shm"``.  Every
consumer (``pmaxT``, ``pcor``, the CLI, SPRINT sessions, the measured
benchmarks) accepts ``backend=`` / ``ranks=`` and routes
through :func:`~repro.mpi.backends.run_backend`, so the compute code never
hard-wires a substrate::

    from repro import pmaxT
    result = pmaxT(X, labels, B=10_000, backend="shm", ranks=8)

To plug in a custom substrate, subclass
:class:`~repro.mpi.backends.Backend`, implement
``run(fn, ranks, *, timeout=None) -> list`` (rank-ordered results of
``fn(comm)``), give it a ``name``, and call
:func:`~repro.mpi.backends.register_backend`; the name becomes valid in
every ``backend=`` parameter and in the CLI's ``--backend`` flag.

**Sessions** (:mod:`repro.mpi.session`) — the persistent counterpart of a
one-shot ``backend=``/``ranks=`` launch: :func:`~repro.mpi.backends.
open_session` returns a context-managed world that spawns its ranks once
and dispatches successive jobs warm (resident workers, queues and
per-rank kernel workspaces), the analogue of the paper's long-lived
``mpiexec`` allocation::

    with open_session("shm", ranks=8) as session:
        for X, labels in requests:
            result = pmaxT(X, labels, B=10_000, session=session)
"""

from .backends import (
    DEFAULT_BACKEND,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    open_session,
    register_backend,
    resolve_backend,
    run_backend,
)
from .blasctl import (
    blas_available,
    blas_thread_limit,
    get_blas_threads,
    recommended_blas_threads,
    set_blas_threads,
)
from .comm import MAX, MIN, SUM, Communicator, ReduceOp
from .datasets import DatasetRegistry, PublishedDataset, attach_published_view
from .processes import ProcessComm, run_spmd_processes
from .serial import SerialComm
from .session import (
    BackendSession,
    EphemeralSession,
    WorkerPoolSession,
    resident_cache,
)
from .threads import ThreadComm, ThreadWorld, run_spmd

__all__ = [
    "Communicator",
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "SerialComm",
    "ThreadComm",
    "ThreadWorld",
    "run_spmd",
    "ProcessComm",
    "run_spmd_processes",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "DEFAULT_BACKEND",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "run_backend",
    "open_session",
    "BackendSession",
    "EphemeralSession",
    "WorkerPoolSession",
    "resident_cache",
    "PublishedDataset",
    "DatasetRegistry",
    "attach_published_view",
    "blas_available",
    "blas_thread_limit",
    "get_blas_threads",
    "set_blas_threads",
    "recommended_blas_threads",
]
