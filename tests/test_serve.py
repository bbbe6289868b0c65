"""Service tier: PoolManager admission control, health, cache, identity.

The contracts pinned here (the ISSUE's admission-control checklist):

* queue-depth rejection — a full admission queue raises
  ``QueueFullError`` instead of queueing unboundedly;
* priority ordering — lower priority value runs first across the
  shared queue;
* cancellation — queued jobs can be withdrawn, running jobs cannot;
* crash rerouting — a job whose pool dies mid-run is re-executed on a
  healthy pool, bit-identically (deterministic permutations);
* cache short-circuit — an exactly repeated pmaxT analysis is answered
  from the shared result cache without occupying any pool;
* service results are bit-identical to direct ``pmaxT()`` calls.
"""

import functools
import gc
import os
import signal
import threading
import weakref

import numpy as np
import pytest

from repro import pmaxT
from repro.errors import (
    CommunicatorError,
    OptionError,
    QueueFullError,
    ServiceError,
)
from repro.serve import JobSpec, PoolManager
from repro.serve.jobs import ServiceJob


@pytest.fixture
def dataset():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 12))
    labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)
    return X, labels


def _wait_blocker(comm, started=None, release=None):
    """In-process blocker job (serial pools): occupy the pool until told."""
    if started is not None:
        started.set()
    if release is not None:
        release.wait(30)
    return "blocked"


def _touch(comm, box=None, tag=None):
    if box is not None:
        box.append(tag)
    return tag


def _crash_once(comm, sentinel=None):
    """Worker-rank job: SIGKILL this rank the first time, succeed after.

    The sentinel file makes the crash happen exactly once — the first
    pool that runs the job loses a worker (a real mid-job world death),
    and the rerouted attempt on the next pool completes.
    """
    if comm.rank != 0 and not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    return comm.rank


def _master_ok(comm, sentinel=None):
    return comm.rank


class TestAdmissionControl:
    def test_queue_depth_rejection(self):
        started, release = threading.Event(), threading.Event()
        with PoolManager("serial", 1, pools=1, max_queue=2) as manager:
            blocker = manager.submit(JobSpec(
                kind="fn",
                fn=functools.partial(_wait_blocker, started=started,
                                     release=release)))
            assert started.wait(30)
            queued = [manager.submit(JobSpec(kind="fn", fn=_touch))
                      for _ in range(2)]
            with pytest.raises(QueueFullError) as info:
                manager.submit(JobSpec(kind="fn", fn=_touch))
            assert info.value.depth == 2
            assert info.value.limit == 2
            release.set()
            assert blocker.result(timeout=30) == ["blocked"]
            for job in queued:
                job.result(timeout=30)
            # capacity freed: submissions are admitted again
            manager.submit(JobSpec(kind="fn", fn=_touch)).result(timeout=30)

    def test_priority_ordering(self):
        started, release = threading.Event(), threading.Event()
        ran = []
        with PoolManager("serial", 1, pools=1, max_queue=16) as manager:
            manager.submit(JobSpec(
                kind="fn",
                fn=functools.partial(_wait_blocker, started=started,
                                     release=release)))
            assert started.wait(30)
            jobs = [
                manager.submit(JobSpec(
                    kind="fn",
                    fn=functools.partial(_touch, box=ran, tag=i),
                    priority=p))
                for i, p in enumerate([10, -10, 0])
            ]
            release.set()
            for job in jobs:
                job.result(timeout=30)
        assert ran == [1, 2, 0]

    def test_cancel_queued_vs_running(self):
        started, release = threading.Event(), threading.Event()
        with PoolManager("serial", 1, pools=1) as manager:
            running = manager.submit(JobSpec(
                kind="fn",
                fn=functools.partial(_wait_blocker, started=started,
                                     release=release)))
            assert started.wait(30)
            queued = manager.submit(JobSpec(kind="fn", fn=_touch))
            assert running.cancel() is False          # already running
            assert queued.cancel() is True            # still queued
            assert queued.state == "cancelled"
            with pytest.raises(CommunicatorError, match="cancelled"):
                queued.result(timeout=5)
            release.set()
            assert running.result(timeout=30) == ["blocked"]
            stats = manager.stats()
            assert stats["jobs_done"] == 1

    def test_submit_on_closed_manager(self):
        manager = PoolManager("serial", 1, pools=1)
        manager.close()
        with pytest.raises(ServiceError, match="closed"):
            manager.submit(JobSpec(kind="fn", fn=_touch))

    def test_unknown_params_rejected(self, dataset):
        X, y = dataset
        with PoolManager("serial", 1, pools=1) as manager:
            with pytest.raises(OptionError, match="unknown pmaxt param"):
                manager.submit_pmaxt(X, y, backend="shm")


class TestHealthAndReroute:
    def test_crash_mid_job_reroutes_to_healthy_pool(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        with PoolManager("processes", 2, pools=2) as manager:
            job = manager.submit(JobSpec(
                kind="fn",
                fn=functools.partial(_master_ok, sentinel=sentinel),
                worker_fn=functools.partial(_crash_once,
                                            sentinel=sentinel)))
            assert job.result(timeout=120) == [0, 1]
            assert job.attempts == 2
            assert os.path.exists(sentinel)
            stats = manager.stats()
            assert stats["jobs_rerouted"] == 1
            assert stats["jobs_done"] == 1
            assert stats["jobs_failed"] == 0
            # the crashed pool is flagged; the one that completed is fine
            healths = sorted(p["healthy"]
                             for p in stats["pool_details"])
            assert healths == [False, True]
            # both attempts are recorded on the job's exclusion trail
            assert len(job.not_pools) == 1

    def test_input_error_fails_without_reroute(self, dataset):
        X, _ = dataset
        with PoolManager("serial", 1, pools=2) as manager:
            job = manager.submit_pmaxt(X, [0] * 12, B=50)  # one class only
            with pytest.raises(Exception):
                job.result(timeout=30)
            assert job.state == "failed"
            assert manager.stats()["jobs_rerouted"] == 0


class TestInputRelease:
    """Finished jobs must not pin their submitted matrix (the manager
    retains up to 2000 of them for polling)."""

    @staticmethod
    def _matrix_ref(dataset):
        X, y = dataset
        X = X.copy()
        return X, y, weakref.ref(X)

    @staticmethod
    def _assert_released(job, ref):
        gc.collect()
        assert job.spec.data is None and job.spec.labels is None
        assert ref() is None

    def test_done_job_drops_its_matrix(self, dataset):
        X, y, ref = self._matrix_ref(dataset)
        with PoolManager("threads", 2, pools=1) as manager:
            job = manager.submit_pmaxt(X, y, B=60, seed=3)
            del X
            job.result(timeout=60)
            assert job.state == "done"
            self._assert_released(job, ref)
            assert manager.job(job.id) is job

    def test_failed_job_drops_its_matrix(self, dataset):
        X, y, ref = self._matrix_ref(dataset)
        with PoolManager("serial", 1, pools=1) as manager:
            job = manager.submit_pmaxt(X, y, B=60, test="no-such-test")
            del X
            job.wait(timeout=60)
            assert job.state == "failed"
            self._assert_released(job, ref)

    def test_cancelled_job_drops_its_matrix(self, dataset):
        X, y, ref = self._matrix_ref(dataset)
        started, release = threading.Event(), threading.Event()
        with PoolManager("serial", 1, pools=1) as manager:
            manager.submit(JobSpec(
                kind="fn",
                fn=functools.partial(_wait_blocker, started=started,
                                     release=release)))
            assert started.wait(30)
            job = manager.submit_pmaxt(X, y, B=60)
            del X
            assert job.cancel() is True
            self._assert_released(job, ref)
            release.set()

    def test_requeued_job_keeps_its_matrix(self, dataset):
        X, y = dataset
        job = ServiceJob("job-x", JobSpec(kind="pmaxt", data=X, labels=y))
        assert job._start(0)
        job._requeue()
        assert job.spec.data is X and job.spec.labels is y


class TestCacheAndIdentity:
    def test_manager_result_bit_identical_to_direct(self, dataset):
        X, y = dataset
        direct = pmaxT(X, y, B=200, seed=3)
        with PoolManager("threads", 2, pools=2) as manager:
            out = manager.submit_pmaxt(X, y, B=200, seed=3).result(
                timeout=120)
        assert np.array_equal(out.teststat, direct.teststat,
                              equal_nan=True)
        assert np.array_equal(out.rawp, direct.rawp)
        assert np.array_equal(out.adjp, direct.adjp)
        assert np.array_equal(out.order, direct.order)

    def test_cache_short_circuit_skips_pools(self, dataset, tmp_path):
        X, y = dataset
        with PoolManager("serial", 1, pools=1,
                         cache_dir=str(tmp_path / "c")) as manager:
            first = manager.submit_pmaxt(X, y, B=150, seed=5)
            a = first.result(timeout=60)
            assert not first.cached
            pool_jobs = manager.stats()["pool_details"][0]["jobs_done"]
            second = manager.submit_pmaxt(X, y, B=150, seed=5)
            b = second.result(timeout=60)
            assert second.cached
            assert second.state == "done"
            stats = manager.stats()
            assert stats["cache_answers"] == 1
            assert stats["cache_hit_rate"] > 0
            # the repeated job never reached a pool
            assert stats["pool_details"][0]["jobs_done"] == pool_jobs
        assert np.array_equal(a.adjp, b.adjp)
        assert np.array_equal(b.adjp, pmaxT(X, y, B=150, seed=5).adjp)

    def test_pcor_job(self, dataset):
        from repro.corr import pcor

        X, _ = dataset
        direct = pcor(X)
        with PoolManager("threads", 2, pools=1) as manager:
            out = manager.submit_pcor(X).result(timeout=60)
        assert np.array_equal(out, direct, equal_nan=True)

    def test_stats_shape(self):
        with PoolManager("serial", 1, pools=2, max_queue=4) as manager:
            stats = manager.stats()
            for key in ("pools", "pools_busy", "pools_healthy",
                        "occupancy", "queue_depth", "max_queue",
                        "jobs_submitted", "jobs_done", "jobs_failed",
                        "jobs_rerouted", "cache_answers", "jobs_per_s",
                        "pool_details"):
                assert key in stats, key
            assert stats["pools"] == 2
            assert stats["max_queue"] == 4
            assert manager.healthy()
        assert not manager.healthy()


class TestStealAtServiceTier:
    """The scheduler satellites surfaced through the service front-end."""

    def test_schedule_params_accepted_and_identical(self, dataset):
        X, y = dataset
        direct = pmaxT(X, y, B=300, seed=3)
        with PoolManager("shm", 3, pools=1) as manager:
            out = manager.submit_pmaxt(
                X, y, B=300, seed=3, schedule="steal",
                steal_block=50).result(timeout=120)
            stats = manager.stats()
        assert np.array_equal(out.adjp, direct.adjp)
        assert np.array_equal(out.rawp, direct.rawp)
        assert stats["steal_jobs"] == 1

    def test_steal_counters_in_stats(self):
        with PoolManager("serial", 1, pools=1) as manager:
            stats = manager.stats()
        for key in ("rank_respawns", "steal_jobs", "blocks_stolen"):
            assert key in stats, key
            assert stats["pool_details"][0][key] == 0

    def test_schedule_params_do_not_break_cache_key(self, dataset,
                                                    tmp_path):
        # schedule/steal_block change who computes, never the bits: a
        # steal run must be answerable from a cache entry written by a
        # static run, and vice versa.
        X, y = dataset
        with PoolManager("shm", 3, pools=1,
                         cache_dir=str(tmp_path / "c")) as manager:
            first = manager.submit_pmaxt(X, y, B=200, seed=5,
                                         schedule="static")
            a = first.result(timeout=120)
            second = manager.submit_pmaxt(X, y, B=200, seed=5,
                                          schedule="steal", steal_block=64)
            b = second.result(timeout=120)
            assert second.cached
            assert manager.stats()["cache_answers"] == 1
        assert np.array_equal(a.adjp, b.adjp)

    def test_pcor_cache_short_circuit(self, dataset, tmp_path):
        from repro.corr import cor

        X, _ = dataset
        with PoolManager("threads", 2, pools=1,
                         cache_dir=str(tmp_path / "c")) as manager:
            first = manager.submit_pcor(X)
            a = first.result(timeout=60)
            assert not first.cached
            pool_jobs = manager.stats()["pool_details"][0]["jobs_done"]
            second = manager.submit_pcor(X)
            b = second.result(timeout=60)
            assert second.cached
            stats = manager.stats()
            assert stats["cache_answers"] == 1
            assert stats["pool_details"][0]["jobs_done"] == pool_jobs
        assert np.array_equal(a, cor(X), equal_nan=True)
        assert np.array_equal(b, a, equal_nan=True)
