"""Execution backends: one registry for *how* an SPMD world is launched.

The algorithms in this package (``pmaxT``, ``pcor``, the SPRINT framework)
are written against the :class:`~repro.mpi.comm.Communicator` interface and
do not care how the ranks came to exist.  This module makes that substrate
a first-class, string-keyed choice:

======= ============================= ==========================================
key     world                         array collectives
======= ============================= ==========================================
serial  the calling thread            in-address-space (no copies)
threads OS threads (BLAS overlaps)    in-address-space (no copies)
shm     OS processes (fork)           queue wire below 256 KiB, else one
                                      ``multiprocessing.shared_memory`` segment
======= ============================= ==========================================

Every consumer — ``pmaxT(..., backend="shm", ranks=8)``, ``pcor``, the
``repro-maxt`` CLI, the SPRINT session, the measured benchmarks — routes
through :func:`resolve_backend` / :func:`run_backend`, so a new substrate
(say, a real ``mpi4py`` world) plugs in everywhere at once::

    from repro.mpi.backends import Backend, register_backend

    class MpiBackend(Backend):
        name = "mpi4py"
        def run(self, fn, ranks, *, timeout=None):
            ...  # launch `ranks` ranks, return their rank-ordered results

    register_backend(MpiBackend())
    pmaxT(X, labels, backend="mpi4py", ranks=64)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from ..errors import CommunicatorError
from .comm import Communicator
from .processes import run_spmd_processes
from .serial import SerialComm
from .session import (
    BackendSession,
    EphemeralSession,
    WorkerPoolSession,
    _check_world_options,
)
from .threads import run_spmd

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "run_backend",
    "open_session",
    "DEFAULT_BACKEND",
]

#: The backend used when a consumer asks for ranks but names no substrate.
DEFAULT_BACKEND = "threads"

SpmdFunction = Callable[[Communicator], Any]


class Backend(ABC):
    """A way of standing up an SPMD world of communicating ranks."""

    #: Registry key (``backend="<name>"`` everywhere in the package).
    name: str = "?"
    #: True when the ranks share the calling process's address space —
    #: required by consumers that thread state through the world, e.g.
    #: :class:`~repro.sprint.session.SprintSession`'s master-on-the-calling-
    #: thread design.
    in_process: bool = False

    @abstractmethod
    def run(
        self, fn: SpmdFunction, ranks: int, *, timeout: float | None = None
    ) -> list[Any]:
        """Execute ``fn(comm)`` on ``ranks`` ranks; return rank-ordered results."""

    def open_session(
        self,
        ranks: int,
        *,
        idle_timeout: float | None = None,
        job_timeout: float | None = None,
    ) -> BackendSession:
        """A world that outlives individual jobs (see :mod:`repro.mpi.session`).

        The default is an :class:`~repro.mpi.session.EphemeralSession`
        that dispatches each job through :meth:`run` — correct for any
        backend, and all an in-process world needs (its threads are cheap
        to stand up; the session still keeps per-rank caches warm).  The
        forked backend overrides this with a persistent
        :class:`~repro.mpi.session.WorkerPoolSession` that spawns the
        worker ranks once.  ``idle_timeout``/``job_timeout`` only apply to
        persistent pools and are ignored here.
        """
        return EphemeralSession(self, self.check_ranks(ranks))

    def check_ranks(self, ranks: int) -> int:
        ranks = int(ranks)
        if ranks < 1:
            raise CommunicatorError(
                f"backend {self.name!r}: ranks must be >= 1, got {ranks}")
        return ranks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SerialBackend(Backend):
    """The degenerate one-rank world (no concurrency machinery at all)."""

    name = "serial"
    in_process = True

    def run(self, fn: SpmdFunction, ranks: int, *,
            timeout: float | None = None) -> list[Any]:
        if self.check_ranks(ranks) != 1:
            raise CommunicatorError(
                f"backend 'serial' is a one-rank world; got ranks={ranks} "
                "(pick 'threads' or 'shm' for a real world)")
        return [fn(SerialComm())]


class ThreadBackend(Backend):
    """OS threads with blocking collectives; BLAS kernels overlap."""

    name = "threads"
    in_process = True

    def run(self, fn: SpmdFunction, ranks: int, *,
            timeout: float | None = None) -> list[Any]:
        return run_spmd(fn, self.check_ranks(ranks), timeout)


class ProcessBackend(Backend):
    """Forked OS processes; large arrays travel via shared-memory segments."""

    name = "shm"

    def run(self, fn: SpmdFunction, ranks: int, *,
            timeout: float | None = None) -> list[Any]:
        ranks = self.check_ranks(ranks)
        if timeout is None:
            return run_spmd_processes(fn, ranks)
        return run_spmd_processes(fn, ranks, timeout=timeout)

    def open_session(
        self,
        ranks: int,
        *,
        idle_timeout: float | None = None,
        job_timeout: float | None = None,
    ) -> BackendSession:
        """A persistent pool: workers forked once, jobs dispatched warm."""
        kwargs: dict[str, Any] = {}
        if job_timeout is not None:
            kwargs["job_timeout"] = job_timeout
        return WorkerPoolSession(
            self.check_ranks(ranks),
            idle_timeout=idle_timeout,
            **kwargs,
        )


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *, overwrite: bool = False) -> Backend:
    """Add a backend to the registry under ``backend.name``."""
    if not isinstance(backend, Backend):
        raise CommunicatorError(
            f"expected a Backend instance, got {backend!r}")
    name = backend.name
    if not name or not isinstance(name, str) or name == "?":
        raise CommunicatorError(
            f"backend {backend!r} must define a non-empty string name")
    if name in _REGISTRY and not overwrite:
        raise CommunicatorError(
            f"backend {name!r} is already registered "
            "(pass overwrite=True to replace it)")
    _REGISTRY[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(spec: str | Backend) -> Backend:
    """Turn a backend name (or an already-built Backend) into a Backend."""
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise CommunicatorError(
                f"unknown backend {spec!r}; available: "
                f"{', '.join(available_backends())}"
            ) from None
    raise CommunicatorError(
        f"backend must be a name or a Backend instance, got {spec!r}")


def run_backend(spec: str | Backend, fn: SpmdFunction, ranks: int, *,
                timeout: float | None = None) -> list[Any]:
    """Resolve ``spec`` and run ``fn`` on a world of ``ranks`` ranks."""
    return resolve_backend(spec).run(fn, ranks, timeout=timeout)


def open_session(
    backend: str | Backend | None = None,
    ranks: int | None = None,
    *,
    idle_timeout: float | None = None,
    job_timeout: float | None = None,
    cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    cache_max_age: float | None = None,
) -> BackendSession:
    """Open a persistent SPMD world for repeated dispatch.

    The service-style entry point (see :mod:`repro.mpi.session`)::

        with open_session("shm", ranks=8) as session:
            handle = session.publish(X, labels)
            for request in requests:
                result = pmaxT(handle, B=request.B, session=session)

    The first call spawns the worker pool; every later call reuses it —
    no process spawns, warm queues, resident per-rank kernel workspaces.
    For in-process backends the returned session is ephemeral (threads
    are cheap to stand up) but still carries the resident caches.

    ``session.publish(X, labels)`` writes a matrix into the session's
    dataset registry once; passing the returned handle as later calls'
    ``X`` removes the per-call broadcast (see :mod:`repro.mpi.datasets`).

    ``cache_dir`` attaches a content-addressed
    :class:`~repro.core.checkpoint.ResultCache` to the session: ``pmaxT``
    calls dispatched over it return repeated analyses as pure cache hits
    and extend cached runs to larger ``B`` incrementally (``pcor`` results
    are cached in the same directory).  ``cache_max_bytes`` /
    ``cache_max_age`` (seconds) bound the directory: the cache evicts
    least-recently-used entries past the limits after every write, and
    the session sweeps it once more on close.

    Each rank's BLAS pool is capped at ``max(1, cores // ranks)``, never
    above the budget in force (:func:`~repro.mpi.blasctl.rank_cap`);
    in-process sessions lease the cap from the caller's pool for each job.
    ``idle_timeout`` tears a persistent pool down after that many idle
    seconds (transparently respawned by the next call); ``job_timeout``
    bounds each job's collectives and result collection.  Each is ``None``
    (the default) or in range — a positive finite ``job_timeout``, a
    non-negative finite ``idle_timeout`` — or
    :class:`~repro.errors.OptionError` is raised here, before any job runs.
    """
    _check_world_options(idle_timeout, job_timeout)
    spec = DEFAULT_BACKEND if backend is None else backend
    nranks = 1 if ranks is None else int(ranks)
    session = resolve_backend(spec).open_session(
        nranks, idle_timeout=idle_timeout, job_timeout=job_timeout)
    if cache_dir is not None:
        from ..core.checkpoint import ResultCache

        session.cache = ResultCache(cache_dir, max_bytes=cache_max_bytes,
                                    max_age=cache_max_age)
    elif cache_max_bytes is not None or cache_max_age is not None:
        from ..errors import OptionError

        raise OptionError(
            "cache_max_bytes/cache_max_age require cache_dir")
    return session


def launch_master(
    backend: str | Backend | None,
    ranks: int | None,
    fn: SpmdFunction,
    *,
    comm: Any = None,
    session: BackendSession | None = None,
    worker_fn: SpmdFunction | None = None,
    caller: str = "this function",
    timeout: float | None = None,
) -> Any:
    """Launch (or reuse) a world for a convenience call; return rank 0's result.

    Shared preamble of ``pmaxT(..., backend=, ranks=, session=)`` and
    ``pcor(...)``: reject a simultaneous ``comm=``, then dispatch through
    a :class:`~repro.mpi.session.BackendSession` — the caller's persistent
    one when ``session=`` is given, else a fresh ephemeral one-shot
    session that preserves the pre-session semantics exactly (fork-based
    worlds still carry ``fn``'s closure by fork).

    ``worker_fn`` is the picklable worker-rank callable a persistent
    session needs (see the session module's dispatch contract).  A
    caller-supplied ``session`` honours it on every backend (worker ranks
    run ``worker_fn``, rank 0 runs ``fn``).  The ephemeral fallback below
    deliberately does NOT pass it on: every rank runs ``fn`` there,
    preserving the pre-session one-shot semantics exactly — so the two
    callables must be behaviourally interchangeable for any caller that
    supports both launch paths, as pmaxT/pcor's are (their worker halves
    take every input from the master's broadcasts).

    Every world, in-process or not, caps each rank's BLAS threadpool at
    ``max(1, cores // ranks)``, never above the budget already in force
    (:func:`~repro.mpi.blasctl.rank_cap`).  The ranks of an in-process
    world share the caller's pool, which gets its earlier budget back once
    the world completes, even when other worlds overlap it.

    ``timeout`` bounds the job's execution in seconds (collectives and
    result collection) on either launch path; expiry raises
    :class:`~repro.errors.CommunicatorError`.
    """
    from ..errors import DataError

    if session is not None:
        if comm is not None:
            raise DataError(
                f"pass either comm= (an existing SPMD world) or session= "
                f"({caller} dispatches over the session's world), not both")
        if backend is not None or ranks is not None:
            raise DataError(
                f"session= already fixes the backend and rank count; "
                f"drop backend=/ranks= when passing a session to {caller}")
        return session.run(fn, worker_fn=worker_fn, timeout=timeout)[0]
    if comm is not None:
        raise DataError(
            f"pass either comm= (an existing SPMD world) or backend=/"
            f"ranks= ({caller} launches the world), not both")
    spec = DEFAULT_BACKEND if backend is None else backend
    nranks = 1 if ranks is None else int(ranks)
    one_shot = EphemeralSession(resolve_backend(spec), nranks)
    with one_shot:
        return one_shot.run(fn, timeout=timeout)[0]


for _backend in (SerialBackend(), ThreadBackend(), ProcessBackend()):
    register_backend(_backend)
del _backend
