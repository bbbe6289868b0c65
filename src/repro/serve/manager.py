"""Job manager: admission control, priorities, health, one resident session.

A :class:`PoolManager` owns one resident session
(:class:`~repro.mpi.session.WorkerPoolSession` on the ``shm`` backend)
and one runner thread that executes admitted jobs on it strictly one at
a time (the session contract):

* **Bounded admission** — at most ``max_queue`` jobs wait; submissions
  beyond that raise :class:`~repro.errors.QueueFullError` so clients see
  backpressure instead of unbounded latency.
* **Priorities** — lower ``priority`` runs first, ties in admission
  order, via one binary heap.
* **Cache short-circuit** — with a ``cache_dir``, an exactly repeated
  pmaxT analysis is answered from the content-addressed
  :class:`~repro.core.checkpoint.ResultCache` at submission time, without
  ever reaching the session (which shares the same cache object, so its
  completed runs populate it for later requests).
* **Health + retry** — a job whose world crashes mid-run
  (:class:`~repro.errors.CommunicatorError`) runs once more on the same
  session, which respawns its world on the next dispatch; deterministic
  permutation results make the rerun bit-identical.  A second world
  failure fails the job and marks the manager unhealthy until a run
  succeeds.  Input errors
  (:class:`~repro.errors.OptionError`/:class:`~repro.errors.DataError`)
  fail the job immediately — a rerun cannot fix a bad request.

One session, because a second world on a small host only competes for the
same cores (and, in process, the same interpreter lock and BLAS pool):
on 2 cores, two ``shm`` worlds served bursts slower than one.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from numbers import Integral, Real
from typing import Any

import numpy as np

from ..core.pmaxt import _dataset_fp_for, lookup_cached, pmaxT
from ..corr import pcor
from ..corr.parallel import lookup_cached_pcor
from ..errors import (
    CommunicatorError,
    DataError,
    OptionError,
    QueueFullError,
    ServiceError,
)
from ..mpi.backends import open_session
from .jobs import JOB_KINDS, JobSpec, ServiceJob

__all__ = ["PoolManager"]

#: pmaxT/pcor keyword parameters a service request may set.  Everything
#: else (backend=, session=, comm=, cache=...) is the manager's business.
PMAXT_PARAMS = frozenset(
    {
        "test",
        "side",
        "fixed_seed_sampling",
        "B",
        "na",
        "nonpara",
        "seed",
        "chunk_size",
        "complete_limit",
        "dtype",
        "row_names",
        "schedule",
        "steal_block",
    }
)
PCOR_PARAMS = frozenset({"use", "na"})

#: Published-dataset handles kept resident (the oldest is unpublished
#: beyond this).
_MAX_HANDLES = 8


class PoolManager:
    """Serve admitted jobs, one at a time, on one resident session."""

    def __init__(
        self,
        backend: str | None = None,
        ranks: int = 2,
        *,
        max_queue: int = 16,
        idle_timeout: float | None = None,
        job_timeout: float | None = None,
        cache_dir: str | None = None,
    ):
        if int(max_queue) < 1:
            raise OptionError(f"max_queue must be >= 1, got {max_queue}")
        self.ranks = int(ranks)
        self.max_queue = int(max_queue)
        self.default_timeout = job_timeout
        self.cache = None
        if cache_dir is not None:
            from ..core.checkpoint import ResultCache

            self.cache = ResultCache(cache_dir)
        self._cond = threading.Condition()
        self._closed = False
        self._queue: list[tuple[int, int, ServiceJob]] = []
        self._seq = itertools.count(1)
        self._jobs: dict[str, ServiceJob] = {}
        self._started_at = time.monotonic()
        self.jobs_submitted = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_rerouted = 0
        self.cache_answers = 0
        self._busy = False
        self._healthy = True
        #: dataset fingerprint -> PublishedDataset, oldest first.
        self._handles: dict[str, Any] = {}
        self.session = open_session(
            backend, ranks, idle_timeout=idle_timeout, job_timeout=job_timeout
        )
        # Runs the session computes populate the cache that answers later
        # identical submissions at admission.
        self.session.cache = self.cache
        self._runner = threading.Thread(target=self._runner_main, name="serve-runner", daemon=True)
        self._runner.start()

    # -- admission ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def submit(self, spec: JobSpec) -> ServiceJob:
        """Admit one job (or answer it from the cache); returns its handle.

        Raises :class:`~repro.errors.QueueFullError` when ``max_queue``
        jobs are already waiting — the backpressure contract — and
        :class:`~repro.errors.ServiceError` on a closed manager or an
        unknown job kind.  Invalid analysis parameters surface when the
        job runs (its state becomes ``failed``), except the obviously
        malformed ones rejected here: unknown parameters, missing
        data/labels, a non-integer ``priority`` and a ``timeout`` that is
        not a non-negative number (:class:`~repro.errors.OptionError`).
        """
        if spec.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {spec.kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
        self._check_params(spec)
        job = ServiceJob(f"job-{next(self._seq):06d}", spec)
        cached = self._try_cache(spec)
        with self._cond:
            if self._closed:
                raise ServiceError("the pool manager is closed")
            self.jobs_submitted += 1
            self._register(job)
            if cached is not None:
                self.cache_answers += 1
                self.jobs_done += 1
            elif len(self._queue) >= self.max_queue:
                self.jobs_submitted -= 1
                del self._jobs[job.id]
                raise QueueFullError(len(self._queue), self.max_queue)
            else:
                heapq.heappush(self._queue, (int(spec.priority), next(self._seq), job))
                self._cond.notify_all()
        if cached is not None:
            job._finish(cached, cached=True)
        return job

    def submit_pmaxt(
        self, X, classlabel, *, priority: int = 0, timeout: float | None = None, **params
    ) -> ServiceJob:
        """Admit one pmaxT analysis (see :func:`repro.pmaxT` for params)."""
        return self.submit(
            JobSpec(
                kind="pmaxt",
                data=X,
                labels=classlabel,
                params=params,
                priority=priority,
                timeout=timeout,
            )
        )

    def submit_pcor(
        self, X, *, priority: int = 0, timeout: float | None = None, **params
    ) -> ServiceJob:
        """Admit one parallel correlation job (see :func:`repro.pcor`)."""
        return self.submit(
            JobSpec(kind="pcor", data=X, params=params, priority=priority, timeout=timeout)
        )

    def job(self, job_id: str) -> ServiceJob | None:
        """Look a submitted job up by id (``None`` when unknown)."""
        with self._cond:
            return self._jobs.get(job_id)

    def _register(self, job: ServiceJob) -> None:
        # Bound the terminal-job history so a long-lived service cannot
        # leak memory; callers polling a finished job have 1000 newer
        # submissions' worth of time to collect the result.
        self._jobs[job.id] = job
        if len(self._jobs) > 2_000:
            for jid in [j.id for j in self._jobs.values() if j.done()][:1_000]:
                del self._jobs[jid]

    def _check_params(self, spec: JobSpec) -> None:
        allowed = {"pmaxt": PMAXT_PARAMS, "pcor": PCOR_PARAMS, "fn": frozenset()}[spec.kind]
        unknown = set(spec.params) - allowed
        if unknown:
            raise OptionError(
                f"unknown {spec.kind} parameter(s) "
                f"{', '.join(sorted(unknown))}; allowed: "
                f"{', '.join(sorted(allowed))}"
            )
        if spec.kind == "fn" and spec.fn is None:
            raise ServiceError("kind='fn' requires spec.fn")
        if spec.kind in ("pmaxt", "pcor") and spec.data is None:
            raise DataError(f"kind={spec.kind!r} requires spec.data")
        if spec.kind == "pmaxt" and spec.labels is None:
            raise DataError("kind='pmaxt' requires spec.labels")
        if isinstance(spec.priority, bool) or not isinstance(spec.priority, Integral):
            raise OptionError(f"priority must be an int, got {spec.priority!r}")
        if spec.timeout is not None and (
            isinstance(spec.timeout, bool)
            or not isinstance(spec.timeout, Real)
            or not 0 <= spec.timeout < math.inf
        ):
            raise OptionError(
                f"timeout must be a non-negative number or None, got {spec.timeout!r}"
            )

    def _try_cache(self, spec: JobSpec):
        """Exact-hit short-circuit: answer from disk, touch no pool."""
        if self.cache is None:
            return None
        try:
            if spec.kind == "pmaxt":
                # Scheduling knobs never enter the cache key (the steal
                # plan is bit-identical to the static one by construction).
                params = {k: v for k, v in spec.params.items()
                          if k not in ("schedule", "steal_block")}
                return lookup_cached(self.cache, spec.data, spec.labels, **params)
            if spec.kind == "pcor":
                return lookup_cached_pcor(self.cache, spec.data, **spec.params)
        except (OptionError, DataError):
            return None  # invalid requests fail on the pool path instead
        return None

    # -- the runner ------------------------------------------------------

    def _runner_main(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            if job._start():
                try:
                    result = self._run_with_retry(job)
                except BaseException as exc:  # noqa: BLE001 - job's failure
                    with self._cond:
                        self.jobs_failed += 1
                        if isinstance(exc, CommunicatorError):
                            self._healthy = False
                    job._fail(exc)
                else:
                    with self._cond:
                        self.jobs_done += 1
                        self._healthy = True
                    job._finish(result)
            with self._cond:
                self._busy = False

    def _next_job(self) -> ServiceJob | None:
        """Block for the best queued job; None on close."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            self._busy = True
            return heapq.heappop(self._queue)[2]

    def _run_with_retry(self, job: ServiceJob) -> Any:
        """Run ``job``; after a world failure, run it once more.

        The session tears a failed world down and respawns it on the next
        dispatch, and published segments outlive the respawn.  Permutation
        results are deterministic, so the second run is bit-identical to
        what the first would have returned.  Input errors are not retried.
        """
        try:
            return self._run_job(job)
        except CommunicatorError:
            if self._closed:
                raise
            with self._cond:
                self.jobs_rerouted += 1
            job._retry()
            return self._run_job(job)

    def _run_job(self, job: ServiceJob) -> Any:
        spec = job.spec
        timeout = spec.timeout if spec.timeout is not None else self.default_timeout
        if spec.kind == "fn":
            return self.session.run(spec.fn, worker_fn=spec.worker_fn, timeout=timeout)
        # The handle carries the published labels; letting pmaxT default
        # to them reuses the publish-time fingerprint.
        X = self._published(spec)
        if spec.kind == "pmaxt":
            return pmaxT(X, None, session=self.session, timeout=timeout, **spec.params)
        return pcor(X, session=self.session, timeout=timeout, **spec.params)

    def _published(self, spec: JobSpec):
        """Publish the job's matrix into the session's registry once.

        Repeated submissions of one dataset then move zero bytes per job
        (shared-memory segments on the ``shm`` backend).  Distinct
        datasets rotate through a small handle budget: the oldest handle
        is unpublished, which unlinks its segments.
        """
        labels = spec.labels if spec.kind == "pmaxt" else None
        data = np.asarray(spec.data, dtype=np.float64)
        fp = _dataset_fp_for(data, labels)
        handle = self._handles.get(fp)
        if handle is None:
            handle = self.session.publish(data, labels)
            self._handles[fp] = handle
            if len(self._handles) > _MAX_HANDLES:
                self.session.unpublish(self._handles.pop(next(iter(self._handles))))
        return handle

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Service counters: occupancy, queue depth, cache traffic, jobs/s."""
        session = self.session
        with self._cond:
            elapsed = max(time.monotonic() - self._started_at, 1e-9)
            stats: dict[str, Any] = {
                "backend": session.backend_name,
                "ranks": self.ranks,
                "pools": 1,
                "busy": self._busy,
                "healthy": self._healthy,
                "warm": getattr(session, "warm", True),
                "spawns": getattr(session, "spawns", 0),
                "queue_depth": len(self._queue),
                "max_queue": self.max_queue,
                "jobs_submitted": self.jobs_submitted,
                "jobs_done": self.jobs_done,
                "jobs_failed": self.jobs_failed,
                "jobs_rerouted": self.jobs_rerouted,
                "cache_answers": self.cache_answers,
                "jobs_per_s": self.jobs_done / elapsed,
                "uptime_s": elapsed,
                "rank_respawns": getattr(session, "rank_respawns", 0),
                "steal_jobs": getattr(session, "steal_jobs", 0),
                "blocks_stolen": getattr(session, "blocks_stolen", 0),
            }
            if self.cache is not None:
                stats.update(self.cache.stats())
                total = stats["cache_hits"] + stats["cache_misses"]
                stats["cache_hit_rate"] = stats["cache_hits"] / total if total else 0.0
            return stats

    def healthy(self) -> bool:
        """Liveness: open, and the last run did not end in a world failure."""
        with self._cond:
            return not self._closed and self._healthy

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel queued jobs, drain the runner, close the session; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            queued = [item[2] for item in self._queue]
            self._queue = []
            self._cond.notify_all()
        for job in queued:
            job.cancel()
        if self._runner is not threading.current_thread():
            self._runner.join()
        self.session.close()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"PoolManager(ranks={self.ranks}, "
            f"{state}, queued={self.queue_depth()}, done={self.jobs_done})"
        )
