"""Service tier: one resident session behind an HTTP front-end.

Three layers turn the library's resident worker pools into a service
that answers many concurrent users — the ROADMAP's "heavy traffic"
north-star on top of the paper's long-lived ``mpiexec`` allocation:

1. **Sessions** (:mod:`repro.mpi.session`) — ``session.run(...)``
   runs one SPMD job at a time on the session's own thread; the caller
   blocks until it completes.
2. **The pool manager** (:class:`PoolManager`) — the one asynchronous
   job queue: owns one resident session and runs jobs on it one at a
   time, with a bounded admission queue (reject-with-backpressure),
   per-job priorities and cancellation, health tracking with one retry
   after a world crash, and a content-addressed result cache that
   answers repeated analyses from disk without touching the session.
3. **The HTTP front-end** (:func:`make_server` / ``repro-maxt serve``) —
   ``POST /v1/jobs`` + ``GET /v1/jobs/<id>`` plus ``/healthz`` and
   ``/statsz``, stdlib-only; :class:`ServiceClient` is the matching
   urllib client.

Quick start::

    from repro.serve import PoolManager, make_server

    with PoolManager("shm", ranks=2,
                     cache_dir="/tmp/maxt-cache") as manager:
        job = manager.submit_pmaxt(X, labels, B=10_000)
        result = job.result()          # a MaxTResult, bit-identical
                                       # to pmaxT(X, labels, B=10_000)
"""

from .client import ServiceClient
from .jobs import JobSpec, ServiceJob
from .manager import PoolManager
from .http import make_server, serve_forever

__all__ = [
    "JobSpec",
    "PoolManager",
    "ServiceClient",
    "ServiceJob",
    "make_server",
    "serve_forever",
]
