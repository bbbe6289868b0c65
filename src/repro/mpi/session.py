"""Persistent backend sessions: resident SPMD worker pools.

The one-shot launcher (:func:`~repro.mpi.processes.run_spmd_processes`)
pays the full world cost on every call: ``ranks`` process spawns, fresh
queues and a cold :class:`~repro.core.kernel.KernelWorkspace` on every
rank.  That is the right trade for a single ``pmaxT`` run and exactly the
wrong one for a service that answers many calls against a warm pool — the
paper's long-lived ``mpiexec`` allocation, which SPRINT keeps resident for
the whole R script.

A :class:`BackendSession` is the Python analogue of that allocation:

* :class:`WorkerPoolSession` (the ``shm`` backend) forks the
  worker ranks **once**.  The calling process is rank 0 — the SPRINT
  master — and successive SPMD jobs are dispatched to the resident workers
  as generation-tagged frames over the same per-rank queues the
  collectives use.  Communicators, queues and per-rank caches (see
  :func:`resident_cache`) stay warm across jobs; a crashed worker or a
  failed job tears the pool down and the next dispatch respawns it under a
  new generation tag, so stale frames can never be mistaken for live ones.
* :class:`EphemeralSession` (every other backend, and the fallback used by
  ``backend=``/``ranks=`` convenience calls) launches a fresh world per
  job through ``Backend.run`` — the exact pre-session semantics.  For the
  in-process backends it still provides per-rank resident caches, so a
  threads session reuses kernel workspaces across calls too.

Dispatch contract
-----------------

``session.run(fn, worker_fn=None)`` runs ``fn(comm)`` on rank 0 (the
calling process — closures over local data are fine there) and
``worker_fn(comm)`` (default ``fn``) on every worker rank.  On a
:class:`WorkerPoolSession` the worker callable crosses a queue, so it must
be picklable — a module-level function or :func:`functools.partial` of
one; the fork-based one-shot path has no such restriction.  Jobs are SPMD:
every rank must execute the same collective sequence and return, leaving
no unconsumed traffic behind, before the session dispatches the next job.

The session thread
------------------

Every job runs on one thread the session owns (a single-worker
:class:`~concurrent.futures.ThreadPoolExecutor`): ``run()`` hands the job
over and blocks, so concurrent callers take turns and jobs never overlap.
Rank 0 deliberately stays off the caller's thread: on a 2-core Xeon, a
serial 6102×76 ``pmaxT`` ran about 3% faster (median of 6 interleaved
rounds) off the main thread than on it, and a warm 2-rank ``shm`` call
0–2.5% faster.  The gap is small and noisy; ``MALLOC_ARENA_MAX=1``
shrinks it, which points at glibc's main malloc arena.  Asynchronous
submission, priorities and cancellation belong to
:class:`~repro.serve.PoolManager`.

Per-rank resident caches
------------------------

While a session job runs, :func:`resident_cache` returns a dict private to
the calling rank that survives across jobs (it lives in the resident
worker process, or in the session object for rank 0 and thread worlds).
``pmaxT`` uses it to keep its :class:`~repro.core.kernel.KernelWorkspace`
warm: a second call of the same problem shape reuses the first call's
buffers instead of reallocating them.  Outside a session it returns
``None`` and callers fall back to per-call state.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from numbers import Real
from typing import Any, Callable

from ..errors import CommunicatorError, OptionError, WorkerDeadError
from .blasctl import apply_worker_cap, blas_thread_limit, rank_cap
from .comm import Communicator
from .processes import _DEFAULT_TIMEOUT, _join_or_kill, ProcessComm

__all__ = [
    "BackendSession",
    "EphemeralSession",
    "WorkerPoolSession",
    "resident_cache",
]

SpmdFunction = Callable[[Communicator], Any]

#: Frame kinds a resident worker understands between jobs.  They share the
#: 4-tuple shape of the collective wire format, so a stale frame can never
#: be confused with either job framing (wrong kind) or a live collective
#: (workers only read these between jobs, when no collective is in flight).
_JOB_KIND = "session-job"
_STOP_KIND = "session-stop"

#: How often a blocked master re-checks worker health, and how often an
#: idle worker re-checks that its parent is still alive.
_HEALTH_POLL_S = 0.1
_ORPHAN_POLL_S = 1.0

_LOCAL = threading.local()


def resident_cache() -> dict | None:
    """The calling rank's session-resident cache, or ``None`` outside one.

    The dict persists for the lifetime of the session's worker pool (one
    per rank), so consumers can keep shape-keyed scratch state — kernel
    workspaces, warm buffers — alive across successive jobs.  Entries are
    the consumer's own business; the session never reads them.
    """
    return getattr(_LOCAL, "cache", None)


@contextmanager
def _cache_scope(cache: dict):
    """Expose ``cache`` through :func:`resident_cache` for the duration."""
    previous = getattr(_LOCAL, "cache", None)
    _LOCAL.cache = cache
    try:
        yield
    finally:
        _LOCAL.cache = previous


class BackendSession(ABC):
    """A context-managed SPMD world that outlives individual jobs."""

    #: Registry name of the backend this session runs on.
    backend_name: str = "?"
    #: Result cache attached by ``open_session(..., cache_dir=...)`` (a
    #: :class:`~repro.core.checkpoint.ResultCache`); ``pmaxT`` calls
    #: dispatched over this session consult it automatically.
    cache: Any = None
    #: Lazily created dataset registry backing :meth:`publish`.
    _datasets: Any = None

    def __init__(self, ranks: int) -> None:
        self._ranks = int(ranks)
        self._closed = False
        #: Successfully completed jobs.
        self.jobs_run = 0
        # The session thread (see the module docstring).  It is started by
        # the first job and holds no reference to the session, so an
        # unclosed session is still collected and the thread then exits.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="session"
        )

    @property
    def ranks(self) -> int:
        """World size (master rank 0 included)."""
        return self._ranks

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed session cannot run."""
        return self._closed

    @abstractmethod
    def _execute(
        self,
        fn: SpmdFunction,
        worker_fn: SpmdFunction | None,
        timeout: float | None,
    ) -> list[Any]:
        """Synchronously execute one SPMD job (on the session thread)."""

    def close(self) -> None:
        """Tear the world down; idempotent.

        The flag goes first, so jobs still waiting for the session thread
        fail fast; the thread is joined *before* the world is released,
        because a running job still uses it.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self._release_world()
        self._sweep_cache()

    def _release_world(self) -> None:
        """Free the world's resources (part of :meth:`close`)."""
        self._drop_datasets()

    # -- job dispatch ------------------------------------------------------

    def run(
        self,
        fn: SpmdFunction,
        *,
        worker_fn: SpmdFunction | None = None,
        timeout: float | None = None,
    ) -> list[Any]:
        """Run one SPMD job; return rank-ordered results.

        ``fn(comm)`` runs on rank 0, ``worker_fn(comm)`` (default ``fn``)
        on every other rank.  See the module docstring for the dispatch
        contract.  The job runs on the session thread; the caller blocks
        until it completes, and concurrent callers take turns.
        """
        try:
            future = self._executor.submit(self._execute, fn, worker_fn, timeout)
        except RuntimeError:  # close() has shut the executor down
            self._assert_open()
            raise
        return future.result()

    def worker_pids(self) -> list[int]:
        """PIDs of the resident worker processes (empty when in-process)."""
        return []

    # -- dataset registry --------------------------------------------------

    def publish(self, X: Any, labels: Any = None):
        """Publish a matrix once; pass the returned handle as later ``X``.

        The matrix (and any on-demand dtype/NA variants) is written into
        the session's dataset registry — shared-memory segments for
        process-type sessions, read-only arrays in-process — and
        subsequent ``pmaxT``/``pcor`` calls over this session accept the
        :class:`~repro.mpi.datasets.PublishedDataset` in place of the
        matrix, eliminating the per-call broadcast entirely.  Published
        segments live until :meth:`close` (or GC) and survive worker-pool
        respawns (a fresh pool simply re-maps them on first use).
        """
        self._assert_open()
        if self._datasets is None:
            from .datasets import DatasetRegistry

            self._datasets = DatasetRegistry(use_shm=self._publish_via_shm())
        return self._datasets.publish(X, labels)

    def unpublish(self, handle) -> None:
        """Drop one published dataset and unlink its segments now."""
        if self._datasets is not None:
            self._datasets.unpublish(handle)

    def _publish_via_shm(self) -> bool:
        """Whether :meth:`publish` writes shared-memory segments."""
        return False

    def _drop_datasets(self) -> None:
        """Unlink every published dataset (part of :meth:`close`)."""
        registry, self._datasets = self._datasets, None
        if registry is not None:
            registry.close()

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot: jobs, publishes, cache traffic, bytes resident."""
        stats: dict[str, Any] = {
            "backend": self.backend_name,
            "ranks": self.ranks,
            "closed": self.closed,
            "jobs_run": self.jobs_run,
            "publishes": 0,
            "datasets": 0,
            "published_bytes": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_extended": 0,
            "cache_evictions": 0,
        }
        if self._datasets is not None:
            stats["publishes"] = self._datasets.publishes
            stats["datasets"] = len(self._datasets)
            stats["published_bytes"] = self._datasets.bytes_resident()
        if self.cache is not None:
            stats.update(self.cache.stats())
        return stats

    def _assert_open(self) -> None:
        if self.closed:
            raise CommunicatorError(
                f"session on backend {self.backend_name!r} is closed"
            )

    def _sweep_cache(self) -> None:
        """Close-time cache sweep (no-op without configured limits)."""
        if self.cache is not None:
            try:
                self.cache.sweep()
            except OSError:  # pragma: no cover - cache dir went away
                pass

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        stats = self.stats()
        extras = [f"jobs={stats['jobs_run']}"]
        if stats["publishes"]:
            extras.append(
                f"published={stats['datasets']} "
                f"({stats['published_bytes']} B)")
        if self.cache is not None:
            extras.append(
                f"cache={stats['cache_hits']}h/{stats['cache_misses']}m/"
                f"{stats['cache_extended']}x")
        return (
            f"{type(self).__name__}(backend={self.backend_name!r}, "
            f"ranks={self.ranks}, {state}, {', '.join(extras)})"
        )


def _is_number(value: Any) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_world_options(idle_timeout: Any = None,
                         job_timeout: Any = None) -> None:
    """Validate a session's timeouts.

    ``None`` leaves either at its default.  Otherwise ``job_timeout`` must
    be a positive finite number of seconds and ``idle_timeout`` a
    non-negative finite one.  Checked when a session opens, so a bad value
    fails there instead of in every job.
    """
    if job_timeout is not None and not (
        _is_number(job_timeout) and 0 < job_timeout < math.inf
    ):
        raise OptionError(
            f"job_timeout must be a positive finite number of seconds or "
            f"None, got {job_timeout!r}"
        )
    if idle_timeout is not None and not (
        _is_number(idle_timeout) and 0 <= idle_timeout < math.inf
    ):
        raise OptionError(
            f"idle_timeout must be a non-negative finite number of seconds "
            f"or None, got {idle_timeout!r}"
        )


class EphemeralSession(BackendSession):
    """A session that stands up a fresh world per job through ``Backend.run``.

    This is the fallback that preserves the one-shot semantics: fork-based
    backends still carry closures by fork, in-process backends still share
    the caller's address space.  What it adds over a bare ``run_backend``
    call is the session interface (so every consumer has one dispatch
    path) and, for in-process backends, per-rank resident caches that
    survive across jobs.
    """

    def __init__(self, backend, ranks: int):
        super().__init__(ranks)
        self._backend = backend
        # Worker processes are throwaway, so only in-process worlds can
        # meaningfully keep per-rank state warm across jobs.
        self._caches: list[dict] | None = (
            [{} for _ in range(self._ranks)] if backend.in_process else None
        )
        self.backend_name = backend.name

    def _execute(
        self,
        fn: SpmdFunction,
        worker_fn: SpmdFunction | None,
        timeout: float | None,
    ) -> list[Any]:
        self._assert_open()
        job = self._compose(fn, worker_fn)
        results = self._run_capped(job, timeout)
        self.jobs_run += 1
        return results

    def _publish_via_shm(self) -> bool:
        # Fork-type one-shot worlds inherit nothing between jobs, so a
        # published dataset must live in named shared memory for the next
        # job's ranks to find it; in-process worlds share the view itself.
        return not self._backend.in_process

    def _compose(
        self, fn: SpmdFunction, worker_fn: SpmdFunction | None
    ) -> SpmdFunction:
        if worker_fn is None:
            job = fn
        else:

            def job(comm: Communicator) -> Any:
                return fn(comm) if comm.rank == 0 else worker_fn(comm)

        caches = self._caches
        if caches is None:
            return job

        def cached_job(comm: Communicator) -> Any:
            with _cache_scope(caches[comm.rank]):
                return job(comm)

        return cached_job

    def _run_capped(self, job: SpmdFunction, timeout: float | None) -> list[Any]:
        backend, ranks = self._backend, self._ranks
        if backend.in_process:
            # The ranks share this process's pool: lease the world's cap
            # for the job.
            with blas_thread_limit(rank_cap(ranks)):
                return backend.run(job, ranks, timeout=timeout)
        # Process-type worlds cap each rank in its worker bootstrap.
        return backend.run(job, ranks, timeout=timeout)


def _pool_worker(
    rank,
    size,
    inboxes,
    results_q,
    generation,
    job_timeout,
    parent_pid,
    start_opseq=0,
):  # pragma: no cover - runs in the child process
    """Resident worker main: serve job frames until stopped or orphaned."""
    apply_worker_cap(size)
    # The resident per-rank cache (see resident_cache()): created once per
    # pool incarnation, shared by every job this worker serves.
    _LOCAL.cache = {}
    comm = ProcessComm(rank, size, inboxes, job_timeout)
    # A rank respawned into a live pool (single-rank fault recovery) must
    # join the survivors' collective numbering: every job leaves the
    # world's sequence numbers equal across ranks, so the master's value
    # at respawn time is the right starting point.
    comm._opseq = start_opseq
    inbox = inboxes[rank]
    while True:
        try:
            frame = inbox.get(timeout=_ORPHAN_POLL_S)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return  # the session's process died without close()
            continue
        except (OSError, EOFError, ValueError):
            return  # queue torn down under us
        if not (isinstance(frame, tuple) and len(frame) == 4):
            continue
        kind, gen, seq, wire = frame
        if kind == _STOP_KIND:
            return
        if kind != _JOB_KIND or gen < generation:
            # Stale framing from a previous pool incarnation: drop it.
            # The comparison is drop-only-older because single-rank
            # respawns bump the generation without restarting the
            # survivors: an older worker must accept newer-generation
            # jobs, while a freshly respawned rank must drop the stale
            # frame of the job its predecessor died in.
            continue
        try:
            job = pickle.loads(wire)
            result = job(comm)
        except BaseException as exc:  # noqa: BLE001 - shipped to the master
            results_q.put(
                (
                    gen,
                    seq,
                    rank,
                    False,
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                )
            )
            # The world's collective state is unknown after a failure; the
            # master tears the pool down, so this worker retires too.
            return
        results_q.put((gen, seq, rank, True, result))
        del job, result
        # Release shared-memory mappings whose broadcast views died with
        # the job, so a long-lived worker cannot pin dead pages.
        comm._prune_attached()


#: Whether per-process state can be read from /proc (Linux — the only
#: platform the fork backends support anyway; elsewhere fall back to
#: ``Process.is_alive`` alone).
_HAVE_PROC = os.path.isdir("/proc")


def _proc_defunct(proc) -> bool:
    """Whether a worker process is dead for dispatch purposes.

    ``Process.is_alive`` alone misses a narrow window: a SIGKILLed
    worker's thread-group leader shows state ``Z`` in ``/proc`` (and can
    never serve another job) slightly *before* the whole thread group —
    queue feeders included — becomes waitable, during which ``waitpid``
    still reports it running.  Consulting the process state as well makes
    a kill visible the moment it is visible anywhere.
    """
    if not proc.is_alive():
        return True
    if not _HAVE_PROC:
        return False
    try:
        with open(f"/proc/{proc.pid}/stat") as fh:
            content = fh.read()
    except OSError:
        return True  # entry gone while is_alive hadn't caught up
    try:
        state = content.rsplit(")", 1)[1].split()[0]
    except IndexError:
        return False  # transient malformed read: not definitive
    return state in ("Z", "X", "x")


def _release_orphaned_reader_lock(q) -> None:
    """Free a queue reader lock orphaned by a SIGKILLed consumer.

    A pool inbox has exactly one consumer — its rank.  A worker killed
    while blocked in ``get()`` dies holding the queue's reader semaphore,
    and a rank respawned onto the same queue would deadlock on its first
    ``get``.  Try-acquire then release leaves the semaphore at exactly one
    available in both cases (already free, or held by the dead process);
    no live process can contend, because the old consumer is dead and the
    new one has not started.
    """
    lock = getattr(q, "_rlock", None)
    if lock is None:  # pragma: no cover - non-fork queue implementation
        return
    lock.acquire(block=False)
    try:
        lock.release()
    except ValueError:  # pragma: no cover - value already at maximum
        pass


def _reap_pool(procs, queues):
    """GC/atexit fallback: kill an unclosed pool and release its queues."""
    for p in procs:
        if p.is_alive():
            p.terminate()
    _join_or_kill(procs, timeout=2.0)
    for q in queues:
        try:
            q.cancel_join_thread()
            q.close()
        except (OSError, ValueError):
            pass


class _WatchfulInbox:
    """Master-inbox wrapper that polls world health while blocking.

    The master runs its half of every job in the calling process, so a
    worker that dies mid-collective would otherwise leave it blocked until
    the full communicator timeout.  Wrapping only the master's own inbox,
    ``get`` waits in short slices and runs the session's health check
    between them — a dead or failed worker surfaces within
    ``_HEALTH_POLL_S`` instead.
    """

    def __init__(self, queue, health_check):
        self._queue = queue
        self._health = health_check

    def get(self, timeout: float | None = None):
        if timeout is None:
            while True:
                try:
                    return self._queue.get(timeout=_HEALTH_POLL_S)
                except queue_mod.Empty:
                    self._health()
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise queue_mod.Empty
            try:
                return self._queue.get(timeout=min(_HEALTH_POLL_S, remaining))
            except queue_mod.Empty:
                self._health()

    def get_nowait(self):
        """Non-blocking read (the steal master's ``poll_any`` path)."""
        return self._queue.get_nowait()

    def put(self, item) -> None:  # pragma: no cover - conformance only
        self._queue.put(item)


class WorkerPoolSession(BackendSession):
    """Persistent process-world session: spawn once, dispatch many jobs.

    The calling process is rank 0; ``ranks - 1`` resident workers are
    forked at first dispatch (and respawned under a new generation tag
    after a crash, a failed job, or an idle teardown).  Parameters:

    ranks:
        World size, master included.  Each rank's BLAS pool is capped at
        :func:`~repro.mpi.blasctl.rank_cap` of it: a worker from its
        bootstrap, the master for the duration of each job.
    idle_timeout:
        Seconds of inactivity after which the pool is torn down (the
        session stays open; the next job respawns).  ``None`` = never.
    job_timeout:
        Communicator timeout and default per-job result deadline.
    """

    backend_name = "shm"

    def __init__(
        self,
        ranks: int,
        *,
        idle_timeout: float | None = None,
        job_timeout: float = _DEFAULT_TIMEOUT,
    ):
        if int(ranks) < 1:
            raise CommunicatorError(f"ranks must be >= 1, got {ranks}")
        super().__init__(ranks)
        _check_world_options(idle_timeout, job_timeout)
        self._idle_timeout = idle_timeout
        self._job_timeout = float(job_timeout)
        self._lock = threading.RLock()
        self._procs: list | None = None
        self._inboxes: list | None = None
        self._results_q = None
        self._result_buffer: list[tuple] = []
        self._master_comm: ProcessComm | None = None
        self._master_cache: dict = {}
        self._generation = 0
        self._next_seq = 0
        self._finalizer: weakref.finalize | None = None
        self._idle_timer: threading.Timer | None = None
        self._activity_seq = 0
        #: Pool incarnations spawned so far (1 after the first dispatch;
        #: each crash/idle respawn increments it).
        self.spawns = 0
        #: Single-rank respawns (fault-granular recovery: one worker died
        #: mid-steal, the survivors kept their warm state).
        self.rank_respawns = 0
        #: Jobs that ran under the work-stealing schedule.
        self.steal_jobs = 0
        #: Blocks served on demand (beyond the initial runs) across all
        #: steal jobs.
        self.blocks_stolen = 0
        #: Ranks whose mid-job death was acknowledged by the steal master
        #: (the job completed without them); respawned one at a time by
        #: the next dispatch instead of tearing the whole pool down.
        self._dead_ranks: set[int] = set()

    # -- introspection -----------------------------------------------------

    @property
    def generation(self) -> int:
        """Current pool incarnation tag (bumped on every respawn)."""
        return self._generation

    @property
    def warm(self) -> bool:
        """True while a worker pool is resident."""
        return self._procs is not None

    def worker_pids(self) -> list[int]:
        with self._lock:
            if self._procs is None:
                return []
            return [p.pid for p in self._procs]

    def _publish_via_shm(self) -> bool:
        return True

    def stats(self) -> dict:
        stats = super().stats()
        stats["spawns"] = self.spawns
        stats["warm"] = self.warm
        stats["rank_respawns"] = self.rank_respawns
        stats["steal_jobs"] = self.steal_jobs
        stats["blocks_stolen"] = self.blocks_stolen
        comm = self._master_comm
        stats["bcast_array_bytes"] = (
            getattr(comm, "array_bytes", 0) if comm is not None else 0)
        return stats

    # -- dispatch ----------------------------------------------------------

    def _execute(
        self,
        fn: SpmdFunction,
        worker_fn: SpmdFunction | None,
        timeout: float | None,
    ) -> list[Any]:
        with self._lock:
            self._assert_open()
            self._activity_seq += 1
            self._cancel_idle_timer()
            try:
                return self._dispatch(fn, worker_fn, timeout)
            finally:
                self._schedule_idle_timer()

    def _dispatch(
        self, fn: SpmdFunction, worker_fn: SpmdFunction | None, timeout: float | None
    ) -> list[Any]:
        job = worker_fn if worker_fn is not None else fn
        try:
            wire = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CommunicatorError(
                f"session job is not picklable: {exc!r} (resident workers "
                "receive jobs over a queue, unlike the fork-based one-shot "
                "path — pass a module-level function or a functools.partial "
                "of one as worker_fn)"
            ) from exc
        self._ensure_pool()
        gen, seq = self._generation, self._next_seq
        self._next_seq += 1
        for dest in range(1, self._ranks):
            self._inboxes[dest].put((_JOB_KIND, gen, seq, wire))
        results: list[Any] = [None] * self._ranks
        try:
            results[0] = self._run_master(fn)
            deadline = time.monotonic() + (
                self._job_timeout if timeout is None else timeout
            )
            collected = 0
            # Ranks whose death the steal master acknowledged mid-job
            # will never report a result; the job still completes (their
            # blocks were requeued), so they are not waited for.
            while collected < self._ranks - 1 - len(self._dead_ranks):
                egen, eseq, rank, ok, payload = self._take_result(deadline)
                if egen != gen or eseq != seq:
                    continue  # stale entry from a torn-down incarnation
                if not ok:
                    name, message, tb = payload
                    raise CommunicatorError(
                        f"session job failed on rank {rank} with {name}: "
                        f"{message}\n--- worker traceback ---\n{tb}"
                    )
                results[rank] = payload
                collected += 1
        except BaseException:
            # The world's collective state is unknown after any failure
            # (ranks may be blocked mid-collective): tear the pool down;
            # the next dispatch respawns it under a fresh generation.
            self._teardown_pool(graceful=False)
            raise
        self.jobs_run += 1
        return results

    def _run_master(self, fn: SpmdFunction) -> Any:
        with _cache_scope(self._master_cache), blas_thread_limit(
                rank_cap(self._ranks)):
            return fn(self._master_comm)

    def _take_result(self, deadline: float) -> tuple:
        while True:
            if self._result_buffer:
                return self._result_buffer.pop(0)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommunicatorError(
                    "timed out waiting for session job results"
                )
            try:
                return self._results_q.get(
                    timeout=min(_HEALTH_POLL_S, remaining)
                )
            except queue_mod.Empty:
                self._check_world_health()

    # -- health ------------------------------------------------------------

    def _check_world_health(self) -> None:
        """Raise if a worker failed or died; buffer early result frames.

        Runs between the master's collective poll slices (see
        :class:`_WatchfulInbox`) and between result-queue polls.  Draining
        the result queue first gives a clean failure report precedence over
        the bare "worker died" diagnosis of the exit that follows it.
        """
        while True:
            try:
                self._result_buffer.append(self._results_q.get_nowait())
            except (queue_mod.Empty, OSError, ValueError, EOFError):
                break
        for entry in self._result_buffer:
            _gen, _seq, rank, ok, payload = entry
            if not ok:
                name, message, tb = payload
                raise CommunicatorError(
                    f"session job failed on rank {rank} with {name}: "
                    f"{message}\n--- worker traceback ---\n{tb}"
                )
        for rank, proc in enumerate(self._procs or [], start=1):
            if rank in self._dead_ranks:
                continue  # already acknowledged; the job continues without it
            if _proc_defunct(proc):
                raise WorkerDeadError(
                    rank,
                    f"pid {proc.pid} exited unexpectedly (exitcode "
                    f"{proc.exitcode}); it will be respawned on the next "
                    "dispatch",
                )

    def _acknowledge_dead_rank(self, rank: int) -> None:
        """Steal-master hook: rank's death is handled, don't re-raise it."""
        self._dead_ranks.add(rank)

    def _note_steal_stats(self, stats: dict) -> None:
        """Steal-master hook: accumulate one steal job's statistics."""
        self.steal_jobs += 1
        self.blocks_stolen += int(stats.get("blocks_stolen", 0))

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._procs is not None:
            defunct = {
                rank
                for rank, p in enumerate(self._procs, start=1)
                if _proc_defunct(p)
            }
            if not defunct:
                self._dead_ranks.clear()
                return
            if defunct <= self._dead_ranks:
                # Every dead rank died mid-steal and the master already
                # accounted for it (its blocks were requeued, the job
                # completed, no collective is half-finished): respawn only
                # those ranks.  Survivors keep their warm resident caches
                # and published-dataset attachments.
                for rank in sorted(defunct):
                    self._respawn_rank(rank)
                self._dead_ranks.clear()
                return
            # An unacknowledged death (kill between jobs, or outside the
            # steal loop): the control plane may hold the dead rank's
            # unconsumed frames mid-collective, so rebuild the whole world.
            self._teardown_pool(graceful=False)
        self._spawn_pool()

    def _respawn_rank(self, rank: int) -> None:
        """Replace one dead worker in a live pool (fault-granular respawn).

        The new process inherits the pool's queues — safe because the
        dead rank's death was acknowledged at a message boundary — under a
        bumped generation tag, so the stale job frame its predecessor died
        in is dropped on arrival.  Its collective sequence number starts
        at the master's current value (every completed job leaves the
        world's numbering equal across ranks).
        """
        ctx = mp.get_context("fork")
        old = self._procs[rank - 1]
        if old.is_alive():  # defunct-but-unreaped (Z state): finish it
            old.terminate()
        _join_or_kill([old], timeout=5.0)
        comm = self._master_comm
        # Frames the dead rank sent before dying may still sit in the
        # master's out-of-order stash; they belong to no live protocol.
        comm._stash = [m for m in comm._stash if m[1] != rank]
        # A rank killed while blocked in ``inbox.get()`` dies holding the
        # queue's reader lock; its successor reuses the queue.
        _release_orphaned_reader_lock(self._inboxes[rank])
        self._generation += 1
        p = ctx.Process(
            target=_pool_worker,
            args=(
                rank,
                self._ranks,
                self._inboxes,
                self._results_q,
                self._generation,
                self._job_timeout,
                os.getpid(),
                comm._opseq,
            ),
            name=f"spmd-pool-{self.backend_name}-{rank}",
            daemon=True,
        )
        p.start()
        # In-place replacement keeps the finalizer's list (registered at
        # spawn over this same object) current.
        self._procs[rank - 1] = p
        self.rank_respawns += 1

    def _spawn_pool(self) -> None:
        ctx = mp.get_context("fork")
        self._generation += 1
        gen = self._generation
        self._inboxes = [ctx.Queue() for _ in range(self._ranks)]
        self._results_q = ctx.Queue()
        self._result_buffer = []
        parent = os.getpid()
        procs = []
        for rank in range(1, self._ranks):
            p = ctx.Process(
                target=_pool_worker,
                args=(
                    rank,
                    self._ranks,
                    self._inboxes,
                    self._results_q,
                    gen,
                    self._job_timeout,
                    parent,
                ),
                name=f"spmd-pool-{self.backend_name}-{rank}",
                daemon=True,
            )
            p.start()
            procs.append(p)
        self._procs = procs
        master_inboxes = list(self._inboxes)
        master_inboxes[0] = _WatchfulInbox(
            self._inboxes[0], self._check_world_health
        )
        self._master_comm = ProcessComm(0, self._ranks, master_inboxes, self._job_timeout)
        # Steal-scheduler hooks: the master-side loop acknowledges worker
        # deaths (enabling single-rank respawn instead of pool teardown)
        # and reports per-job steal statistics through the communicator.
        self._master_comm._acknowledge_dead = self._acknowledge_dead_rank
        self._master_comm._on_steal_stats = self._note_steal_stats
        self._dead_ranks = set()
        self.spawns += 1
        self._finalizer = weakref.finalize(
            self, _reap_pool, procs, [*self._inboxes, self._results_q]
        )

    def _teardown_pool(self, *, graceful: bool) -> None:
        procs, inboxes = self._procs, self._inboxes
        results_q = self._results_q
        self._procs = None
        self._inboxes = None
        self._results_q = None
        self._result_buffer = []
        self._master_comm = None
        self._dead_ranks = set()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if procs is None:
            return
        if graceful:
            for rank, p in enumerate(procs, start=1):
                if p.is_alive():
                    try:
                        inboxes[rank].put(
                            (_STOP_KIND, self._generation, 0, None)
                        )
                    except (OSError, ValueError):
                        pass
            for p in procs:
                p.join(timeout=5)
        for p in procs:
            if p.is_alive():
                p.terminate()
        _join_or_kill(procs, timeout=5.0)
        # The queues are never reused (a respawn builds fresh ones), so
        # drop them without flushing: a feeder blocked on the pipe of a
        # killed worker must not hang interpreter shutdown.
        for q in (*inboxes, results_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass

    def _release_world(self) -> None:
        # Runs after close() joined the session thread: a running job
        # holds the pool lock, and joining under it would deadlock.
        with self._lock:
            self._cancel_idle_timer()
            self._teardown_pool(graceful=True)
            # After the workers are gone: their mappings of published
            # segments are released, so the unlink frees the pages too.
            self._drop_datasets()

    # -- idle teardown -----------------------------------------------------

    def _schedule_idle_timer(self) -> None:
        if self._idle_timeout is None or self._procs is None:
            return
        timer = threading.Timer(
            self._idle_timeout, self._idle_teardown, args=(self._activity_seq,)
        )
        timer.daemon = True
        timer.start()
        self._idle_timer = timer

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _idle_teardown(self, armed_seq: int) -> None:
        # cancel() cannot stop a timer whose callback has already started
        # and is blocked on the lock behind a running job — so the timer
        # carries the activity sequence it was armed under, and a firing
        # that lost the race (any job ran since) is a no-op instead of
        # tearing down a pool that was busy milliseconds ago.
        with self._lock:
            if self._closed or self._procs is None:
                return
            if armed_seq != self._activity_seq:
                return
            self._teardown_pool(graceful=True)
