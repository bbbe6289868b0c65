"""Persistent backend sessions: lifecycle, warm reuse, crash recovery.

The tentpole guarantees pinned here:

* a warm session spawns **zero** new processes on later jobs (pid sets);
* a second ``pmaxT`` over a warm session reuses each rank's resident
  :class:`~repro.core.kernel.KernelWorkspace` (object identity probed via
  :func:`repro.mpi.session.resident_cache`);
* shared-memory segments never outlive ``close()``/GC (``/dev/shm``);
* a killed or failed worker is detected and the pool respawned;
* the dtype-aware ``bcast_array`` ships float32 wire for float32 runs;
* the ephemeral fallback (``session=None``) preserves one-shot semantics;
* jobs run one at a time on the session's own thread, never the caller's;
* bad world options fail when the session opens, not in every job.
"""

from __future__ import annotations

import gc
import glob
import math
import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest

from repro import mt_maxT, pmaxT
from repro.corr import cor, pcor
from repro.data import synthetic_expression, two_class_labels
from repro.errors import CommunicatorError, DataError, OptionError
from repro.mpi import (
    EphemeralSession,
    SerialComm,
    WorkerPoolSession,
    open_session,
    run_backend,
)
from repro.mpi.session import resident_cache

# -- module-level jobs (persistent sessions ship them over a queue) ---------


def _job_pid(comm):
    return (comm.rank, os.getpid())


def _job_collect(comm):
    arr = np.arange(12.0).reshape(3, 4) if comm.is_master else None
    data = comm.bcast_array(arr)
    total = comm.reduce(data * (comm.rank + 1))
    return None if total is None else float(total.sum())


def _job_cache_identity(comm):
    cache = resident_cache()
    assert cache is not None
    ws = cache.get("kernel_workspace")
    return (comm.rank, os.getpid(), None if ws is None else id(ws))


def _job_cache_counter(comm):
    cache = resident_cache()
    cache["hits"] = cache.get("hits", 0) + 1
    return (comm.rank, cache["hits"])


def _job_fail_rank1(comm):
    if comm.rank == 1:
        raise ValueError("worker exploded")
    return comm.allreduce(1)


def _job_suicide_rank1(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return comm.allreduce(1)


def _job_bcast_to_dead_world(comm):
    # Rank 1 dies before the collective; the master's broadcast of a
    # segment-route payload must not strand the segment when it fails.
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover - never reached
    arr = np.ones((400, 200)) if comm.is_master else None  # > threshold
    comm.bcast_array(arr)
    return comm.rank


def _job_bcast_f32_big(comm):
    # 400x200 float64 = 640 KB: forces the shm segment route post-cast too.
    arr = (np.arange(80_000, dtype=np.float64).reshape(400, 200)
           if comm.is_master else None)
    data = comm.bcast_array(arr, dtype="float32")
    return (str(data.dtype), float(data[1, 1]))


def _job_bcast_f32_small(comm):
    arr = np.arange(16, dtype=np.float64) if comm.is_master else None
    data = comm.bcast_array(arr, dtype="float32")
    return (str(data.dtype), float(data.sum()))


def _pid_running(pid):
    """True while ``pid`` is a live (non-zombie) process.

    A SIGKILLed worker stays a zombie until its parent reaps it, and
    ``os.kill(pid, 0)`` succeeds on zombies — so inspect the process
    state directly.  Only a definitive reading (state ``Z`` or the /proc
    entry gone) counts as dead; a transiently malformed read while the
    process is mid-exit must report "still running" so callers keep
    polling instead of racing ahead.
    """
    try:
        with open(f"/proc/{pid}/stat") as fh:
            content = fh.read()
    except OSError:
        return False  # reaped (or never ours)
    try:
        state = content.rsplit(")", 1)[1].split()[0]
    except IndexError:
        return True  # malformed transient read: not yet definitive
    return state != "Z"


def _wait_pids_dead(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_pid_running(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(scope="module")
def dataset():
    X, _ = synthetic_expression(50, 16, n_class1=8, de_fraction=0.1, seed=88)
    return X, two_class_labels(8, 8)


class TestOpenSession:
    def test_process_backends_get_persistent_pools(self):
        with open_session("shm", 2) as ses:
            assert isinstance(ses, WorkerPoolSession)
            assert ses.backend_name == "shm" and ses.ranks == 2

    def test_in_process_backends_get_ephemeral_sessions(self):
        for name, ranks in (("threads", 3), ("serial", 1)):
            with open_session(name, ranks) as ses:
                assert isinstance(ses, EphemeralSession)
                assert ses.worker_pids() == []

    def test_default_backend_and_ranks(self):
        with open_session() as ses:
            assert ses.backend_name == "threads" and ses.ranks == 1

    def test_unknown_backend(self):
        with pytest.raises(CommunicatorError, match="unknown backend"):
            open_session("quantum", 2)

    @pytest.mark.parametrize("backend", ["threads", "shm"])
    @pytest.mark.parametrize("option,value", [
        ("job_timeout", -1), ("job_timeout", 0), ("job_timeout", -5.0),
        ("job_timeout", math.nan), ("job_timeout", math.inf),
        ("job_timeout", True), ("job_timeout", "30"),
        ("idle_timeout", -1), ("idle_timeout", -0.5),
        ("idle_timeout", math.nan), ("idle_timeout", math.inf),
        ("idle_timeout", True), ("idle_timeout", "30"),
    ])
    def test_bad_world_options_fail_at_open(self, backend, option, value):
        # At open, on every backend, and before any job: a bad timeout
        # used to surface as a "timed out" failure of every job (or, for
        # nan, silently remove the deadline).
        with pytest.raises(OptionError, match=option):
            open_session(backend, 2, **{option: value})

    @pytest.mark.parametrize("option,value", [
        ("job_timeout", 0.5), ("job_timeout", 30), ("idle_timeout", 0),
        ("idle_timeout", 2.5), ("job_timeout", np.int64(5)),
        ("idle_timeout", np.float64(1.5)),
    ])
    def test_good_world_options_accepted(self, option, value):
        with open_session("shm", 2, **{option: value}) as ses:
            assert ses.run(_job_pid)[0] == (0, os.getpid())

    def test_pool_manager_and_cli_reject_bad_timeouts(self, capsys):
        from repro.cli import main
        from repro.serve import PoolManager

        with pytest.raises(OptionError, match="job_timeout"):
            PoolManager("threads", 1, job_timeout=0)
        assert main(["serve", "--port", "0", "--job-timeout", "-5"]) == 2
        assert "job_timeout" in capsys.readouterr().err

    def test_closed_session_refuses_jobs(self):
        ses = open_session("shm", 2)
        ses.run(_job_pid)
        ses.close()
        ses.close()  # idempotent
        assert ses.closed
        with pytest.raises(CommunicatorError, match="closed"):
            ses.run(_job_pid)


def _job_boom(comm):
    raise ValueError("intentional job failure")


class TestSessionThread:
    """One thread per session runs every job, one at a time."""

    @pytest.mark.parametrize("backend,ranks",
                             [("serial", 1), ("threads", 2), ("shm", 2)])
    def test_concurrent_runs_never_overlap(self, backend, ranks):
        intervals, errors = [], []
        record = threading.Lock()

        def rank0(comm):
            if comm.rank == 0:
                enter = time.monotonic()
                time.sleep(0.05)
                with record:
                    intervals.append((enter, time.monotonic()))
            return comm.rank

        def caller(ses):
            try:
                assert ses.run(rank0, worker_fn=_job_pid)[0] == 0
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        with open_session(backend, ranks) as ses:
            callers = [threading.Thread(target=caller, args=(ses,))
                       for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
        assert not errors
        assert len(intervals) == 4
        intervals.sort()
        for (_, exit_), (enter, _) in zip(intervals, intervals[1:]):
            assert exit_ <= enter

    @pytest.mark.parametrize("backend,ranks",
                             [("serial", 1), ("threads", 2), ("shm", 2)])
    def test_rank0_runs_off_the_callers_thread(self, backend, ranks):
        def rank0_thread(comm):
            return threading.current_thread() if comm.rank == 0 else None

        with open_session(backend, ranks) as ses:
            first = ses.run(rank0_thread, worker_fn=_job_pid)[0]
            second = ses.run(rank0_thread, worker_fn=_job_pid)[0]
        assert first is not threading.current_thread()
        if backend != "threads":  # the thread world spawns its own ranks
            assert first is second
            assert first.name.startswith("session")

    def test_close_joins_the_session_thread(self):
        ses = open_session("serial", 1)
        thread = ses.run(lambda comm: threading.current_thread())[0]
        assert thread.is_alive()
        ses.close()
        assert not thread.is_alive()

    def test_failure_does_not_poison_the_session(self):
        with open_session("serial", 1) as ses:
            with pytest.raises(ValueError, match="intentional"):
                ses.run(_job_boom)
            assert ses.run(_job_pid) == [(0, os.getpid())]


class TestWarmReuse:
    def test_second_job_spawns_no_new_processes(self):
        with open_session("shm", 3) as ses:
            first = ses.run(_job_pid)
            pids_after_first = set(ses.worker_pids())
            second = ses.run(_job_pid)
            third = ses.run(_job_pid)
            assert first == second == third
            assert set(ses.worker_pids()) == pids_after_first
            assert ses.spawns == 1 and ses.jobs_run == 3
            # the master rank is the calling process itself
            assert first[0] == (0, os.getpid())
            assert {pid for _, pid in first[1:]} == pids_after_first

    def test_collectives_work_across_jobs(self):
        with open_session("shm", 3) as ses:
            for _ in range(3):
                results = ses.run(_job_collect)
                # sum over ranks r of (0..11) * (r+1) = 66 * 6
                assert results[0] == 396.0
                assert results[1] is None and results[2] is None

    def test_resident_cache_survives_across_jobs(self):
        with open_session("shm", 3) as ses:
            for expected in (1, 2, 3):
                results = ses.run(_job_cache_counter)
                assert results == [(0, expected), (1, expected),
                                   (2, expected)]

    def test_warm_pmaxt_reuses_workspace_and_workers(self, dataset):
        """ISSUE acceptance: second pmaxT spawns nothing, reuses workspace."""
        X, labels = dataset
        serial = mt_maxT(X, labels, test="t", B=200, seed=19)
        with open_session("shm", 4) as ses:
            r1 = pmaxT(X, labels, test="t", B=200, seed=19, session=ses)
            pids1 = set(ses.worker_pids())
            probe1 = ses.run(_job_cache_identity)
            r2 = pmaxT(X, labels, test="t", B=200, seed=19, session=ses)
            pids2 = set(ses.worker_pids())
            probe2 = ses.run(_job_cache_identity)
        assert ses.spawns == 1 and pids1 == pids2
        # every rank held a workspace after call 1 and the *same object*
        # (same pid, same id) after call 2
        assert all(ws is not None for _, _, ws in probe1)
        assert probe1 == probe2
        for result in (r1, r2):
            np.testing.assert_array_equal(serial.teststat, result.teststat)
            np.testing.assert_array_equal(serial.rawp, result.rawp)
            np.testing.assert_array_equal(serial.adjp, result.adjp)
            assert result.nranks == 4

    def test_pmaxt_timeout_plumbs_through(self, dataset):
        X, y = dataset
        with open_session("threads", 2) as ses:
            out = pmaxT(X, y, B=100, session=ses, timeout=120)
        ref = pmaxT(X, y, B=100)
        assert np.array_equal(out.adjp, ref.adjp)

    def test_threads_session_pmaxt_matches_serial(self, dataset):
        X, labels = dataset
        serial = mt_maxT(X, labels, B=150, seed=7)
        with open_session("threads", 3) as ses:
            r1 = pmaxT(X, labels, B=150, seed=7, session=ses)
            r2 = pmaxT(X, labels, B=150, seed=7, session=ses)
        np.testing.assert_array_equal(serial.adjp, r1.adjp)
        np.testing.assert_array_equal(serial.adjp, r2.adjp)

    def test_pcor_over_warm_session(self, dataset):
        X, _ = dataset
        expected = cor(X)
        with open_session("shm", 3) as ses:
            np.testing.assert_array_equal(expected, pcor(X, session=ses))
            np.testing.assert_array_equal(expected, pcor(X, session=ses))
            assert ses.spawns == 1

    def test_run_sprint_over_warm_session(self):
        from repro.sprint import run_sprint

        def script(master):
            return master.call("papply", _times_three, [1, 2, 3])

        with open_session("shm", 3) as ses:
            assert run_sprint(script, session=ses) == [3, 6, 9]
            assert run_sprint(script, session=ses) == [3, 6, 9]
            assert ses.spawns == 1

    def test_float32_pmaxt_over_session_matches_serial(self, dataset):
        X, labels = dataset
        serial = pmaxT(X, labels, B=200, seed=19, dtype="float32")
        with open_session("shm", 3) as ses:
            warm = pmaxT(X, labels, B=200, seed=19, dtype="float32",
                         session=ses)
        assert warm.teststat.dtype == np.float32
        np.testing.assert_array_equal(serial.teststat, warm.teststat)
        np.testing.assert_array_equal(serial.adjp, warm.adjp)


def _times_three(x):
    return x * 3


class TestLifecycle:
    def test_close_leaves_no_shm_segments(self, dataset):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        X, labels = dataset
        before = set(glob.glob("/dev/shm/psm_*"))
        ses = open_session("shm", 3)
        # big enough (50x16 is below the threshold) to force segments too
        big = np.tile(X, (50, 2))
        ses.run(_job_bcast_f32_big)
        pcor(big, session=ses)
        pids = ses.worker_pids()
        ses.close()
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after <= before
        assert _wait_pids_dead(pids)

    def test_gc_reaps_an_unclosed_pool(self):
        ses = open_session("shm", 3)
        ses.run(_job_pid)
        pids = ses.worker_pids()
        del ses
        gc.collect()
        assert _wait_pids_dead(pids)

    @pytest.mark.parametrize("backend,ranks",
                             [("serial", 1), ("shm", 2)])
    def test_gc_collects_an_unclosed_session_and_its_thread(self, backend,
                                                           ranks):
        # The session thread holds no reference to the session: an
        # abandoned session is still collected, its thread exits and its
        # pool workers are reaped.
        ses = open_session(backend, ranks)
        thread = ses.run(lambda comm: threading.current_thread()
                         if comm.rank == 0 else None,
                         worker_fn=_job_pid)[0]
        pids = ses.worker_pids()
        ref = weakref.ref(ses)
        del ses
        gc.collect()
        assert ref() is None
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert _wait_pids_dead(pids)

    def test_failed_broadcast_leaves_no_shm_segments(self):
        """A segment created by a collective that *fails* must be unlinked.

        The session master is a long-lived process: a segment stranded on
        the failure path would pin matrix-sized shared memory until the
        service exits (the resource tracker only sweeps at process exit).
        """
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(glob.glob("/dev/shm/psm_*"))
        with open_session("shm", 3) as ses:
            with pytest.raises(CommunicatorError):
                ses.run(_job_bcast_to_dead_world)
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after <= before

    def test_stale_idle_timer_firing_is_a_noop(self):
        """A timer that lost the cancel race must not kill a busy pool.

        ``Timer.cancel`` cannot stop a callback already blocked on the
        session lock behind a running job; the armed activity sequence is
        what makes the late firing harmless.
        """
        with open_session("shm", 2, idle_timeout=60.0) as ses:
            ses.run(_job_pid)
            assert ses.warm
            ses._idle_teardown(ses._activity_seq - 1)  # stale firing
            assert ses.warm and ses.spawns == 1
            ses._idle_teardown(ses._activity_seq)  # genuinely idle
            assert not ses.warm

    def test_idle_timeout_tears_down_and_respawns(self):
        with open_session("shm", 3, idle_timeout=0.3) as ses:
            ses.run(_job_pid)
            pids = ses.worker_pids()
            assert ses.warm
            deadline = time.monotonic() + 10.0
            while ses.warm and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not ses.warm and not ses.closed
            assert _wait_pids_dead(pids)
            # the next job transparently respawns the pool
            results = ses.run(_job_pid)
            assert ses.spawns == 2
            assert {pid for _, pid in results[1:]} == set(ses.worker_pids())


class TestCrashRecovery:
    def test_failed_job_surfaces_and_pool_respawns(self):
        with open_session("shm", 3) as ses:
            ses.run(_job_pid)
            with pytest.raises(CommunicatorError, match="worker exploded"):
                ses.run(_job_fail_rank1)
            assert not ses.warm
            assert ses.run(_job_collect)[0] == 396.0
            assert ses.spawns == 2

    def test_killed_worker_mid_job_is_detected(self):
        with open_session("shm", 3) as ses:
            started = time.monotonic()
            with pytest.raises(CommunicatorError,
                               match="died unexpectedly|worker rank"):
                ses.run(_job_suicide_rank1)
            # detection must beat the 300 s communicator timeout by far
            assert time.monotonic() - started < 30
            assert ses.run(_job_collect)[0] == 396.0

    def test_killed_worker_between_jobs_is_respawned(self):
        with open_session("shm", 3) as ses:
            ses.run(_job_pid)
            victim = ses.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_pids_dead([victim])
            results = ses.run(_job_pid)
            assert ses.spawns == 2
            assert victim not in {pid for _, pid in results[1:]}

    def test_unpicklable_job_fails_fast_without_poisoning_the_pool(self):
        with open_session("shm", 2) as ses:
            ses.run(_job_pid)
            x = object()
            with pytest.raises(CommunicatorError, match="not picklable"):
                ses.run(_job_pid, worker_fn=lambda comm: x)
            # the failure happened before dispatch: the pool is still warm
            assert ses.warm and ses.spawns == 1
            ses.run(_job_pid)


class TestDtypeAwareBcast:
    @pytest.mark.parametrize("backend,ranks",
                             [("serial", 1), ("threads", 3), ("shm", 3)])
    def test_float32_wire_on_every_backend(self, backend, ranks):
        for job, expected in ((_job_bcast_f32_big, 201.0),
                              (_job_bcast_f32_small, 120.0)):
            results = run_backend(backend, job, ranks)
            assert all(dt == "float32" for dt, _ in results)
            assert all(v == expected for _, v in results)

    def test_dtype_none_preserves_input_dtype(self):
        comm = SerialComm()
        arr = np.arange(6, dtype=np.float64)
        assert comm.bcast_array(arr).dtype == np.float64
        assert comm.bcast_array(arr, dtype="float32").dtype == np.float32

    def test_to_nan_keeps_float32_wire_off_the_float64_round_trip(self):
        # The statistics NaN-ify on every rank; a float32 wire must not be
        # upcast back to float64 there (it doubles the transient footprint
        # without changing any value — the master already replaced codes).
        from repro.stats.na import to_nan

        assert to_nan(np.ones((3, 4), dtype=np.float32),
                      None).dtype == np.float32
        assert to_nan(np.ones((3, 4)), None).dtype == np.float64
        assert to_nan([[1.0, 2.0]], None).dtype == np.float64


class TestExclusions:
    def test_session_and_comm_are_exclusive(self, dataset):
        X, labels = dataset
        with open_session("threads", 2) as ses:
            with pytest.raises(DataError, match="not both"):
                pmaxT(X, labels, B=50, session=ses, comm=SerialComm())

    def test_session_and_backend_are_exclusive(self, dataset):
        X, labels = dataset
        with open_session("threads", 2) as ses:
            with pytest.raises(DataError, match="session="):
                pmaxT(X, labels, B=50, session=ses, backend="threads",
                      ranks=2)

    def test_pcor_session_and_comm_are_exclusive(self, dataset):
        X, _ = dataset
        with open_session("threads", 2) as ses:
            with pytest.raises(DataError, match="not both"):
                pcor(X, session=ses, comm=SerialComm())
