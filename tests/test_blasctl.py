"""BLAS threadpool control and the multi-rank oversubscription cap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import (
    blas_available,
    blas_thread_limit,
    get_blas_threads,
    recommended_blas_threads,
    run_spmd_processes,
    set_blas_threads,
)
from repro.mpi.backends import launch_master, open_session
from repro.mpi.blasctl import _THREAD_ENV_VARS, effective_cpu_count, rank_cap


def _worker_budget(comm):
    return get_blas_threads()


def _worker_env(comm):
    import os

    return os.environ.get("OPENBLAS_NUM_THREADS")


class TestRuntimeControl:
    def test_roundtrip(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        prev = set_blas_threads(1)
        assert prev == before
        assert get_blas_threads() == 1
        set_blas_threads(before)

    def test_context_manager_restores(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        with blas_thread_limit(1):
            assert get_blas_threads() == 1
        assert get_blas_threads() == before

    def test_runtime_control_leaves_environment_alone(self):
        """A temporary cap must not leak *_NUM_THREADS into the caller."""
        import os

        before = os.environ.get("OMP_NUM_THREADS")
        with blas_thread_limit(1):
            pass
        assert os.environ.get("OMP_NUM_THREADS") == before

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            set_blas_threads(0)

    def test_recommended_cap(self):
        cores = effective_cpu_count()
        assert recommended_blas_threads(1) == max(1, cores)
        assert recommended_blas_threads(2 * cores) == 1
        assert recommended_blas_threads(cores) >= 1


def _stale_override_call(entry):
    """A call of ``entry`` that still passes the removed ``blas_threads=``."""
    from repro import pmaxT
    from repro.corr import pcor
    from repro.serve import PoolManager

    X = np.ones((4, 4))
    calls = {
        "pmaxT": lambda: pmaxT(X, [0, 0, 1, 1], B=10, blas_threads=1),
        "pcor": lambda: pcor(X, backend="threads", ranks=2, blas_threads=1),
        "open_session": lambda: open_session("shm", 2, blas_threads=1),
        "launch_master": lambda: launch_master("shm", 2,
                                               _worker_budget,
                                               blas_threads=1),
        "PoolManager": lambda: PoolManager("threads", 1, blas_threads=1),
        "run_spmd_processes": lambda: run_spmd_processes(_worker_budget, 2,
                                                         blas_threads=1),
    }
    return calls[entry]


class TestRemovedOverride:
    """The per-call cap override is gone; the derived cap is the only one."""

    @pytest.mark.parametrize("entry", [
        "pmaxT", "pcor", "open_session", "launch_master", "PoolManager",
        "run_spmd_processes",
    ])
    def test_stale_keyword_fails_loudly(self, entry):
        """A caller still passing ``blas_threads=`` fails before any world."""
        with pytest.raises(TypeError, match="blas_threads"):
            _stale_override_call(entry)()

    def test_stale_environment_variable_is_ignored(self, monkeypatch):
        """``REPRO_BLAS_THREADS`` no longer moves a forked rank's cap."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        cap = rank_cap(2)
        monkeypatch.setenv("REPRO_BLAS_THREADS", str(cap + 1))
        budgets = launch_master("shm", 2,
                                lambda comm: comm.gather(get_blas_threads()))
        assert budgets == [cap, cap]


class TestWorkerBootstrap:
    def test_process_world_auto_caps(self):
        """ranks x threads per rank must not exceed the host's cores."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        import os

        cores = os.cpu_count() or 1
        budgets = run_spmd_processes(_worker_budget, 2)
        assert all(b is not None and b * 2 <= max(2, cores)
                   for b in budgets)

    def test_worker_exports_env_for_late_loaded_runtimes(self):
        envs = run_spmd_processes(_worker_env, 2)
        assert envs == [str(rank_cap(2))] * 2


    def test_worker_export_stays_in_the_worker(self):
        """The ``*_NUM_THREADS`` a worker exports never reach the parent."""
        import os

        before = {var: os.environ.get(var) for var in _THREAD_ENV_VARS}
        envs = launch_master("shm", 2,
                             lambda comm: comm.gather(_worker_env(comm)))
        assert envs == [str(rank_cap(2))] * 2
        assert {var: os.environ.get(var)
                for var in _THREAD_ENV_VARS} == before


class TestLaunchMaster:
    def test_cap_reaches_every_shm_rank(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        budgets = launch_master("shm", 2,
                                lambda comm: comm.gather(get_blas_threads()))
        assert budgets == [rank_cap(2)] * 2

    def test_in_process_backend_restores_budget(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        with _wide_budget():
            before = get_blas_threads()
            cap = rank_cap(2)
            inside = launch_master("threads", 2,
                                   lambda comm: get_blas_threads())
            assert inside == cap
            assert get_blas_threads() == before


class TestLeases:
    """Overlapping caps: the smallest holds, the original budget returns."""

    def test_smallest_active_cap_holds_the_pool(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        narrow, wide = blas_thread_limit(1), blas_thread_limit(3)
        narrow.__enter__()
        wide.__enter__()
        assert get_blas_threads() == 1
        narrow.__exit__(None, None, None)   # the narrower lease ends first
        assert get_blas_threads() == 3
        wide.__exit__(None, None, None)
        assert get_blas_threads() == before

    def test_forked_worker_holds_no_parent_lease(self):
        """A worker forked inside a lease starts from the unleased budget."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        unleased = rank_cap(1)
        if unleased < 2:
            pytest.skip("a 1-rank cap of 1 cannot tell a leaked lease")
        with blas_thread_limit(1):
            budgets = run_spmd_processes(_worker_budget, 1)
        assert budgets == [unleased]


def _wide_budget():
    """A lease wider than one thread, so a leaked cap of 1 shows."""
    return blas_thread_limit(max(2, get_blas_threads() or 2))


class TestScopedCaps:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=(300, 12)), np.array([0] * 6 + [1] * 6)

    @pytest.mark.parametrize("path", ["serial", "comm"])
    def test_serial_call_keeps_the_callers_budget(self, data, monkeypatch,
                                                  path):
        """A serial or ``comm=`` call computes under the caller's budget."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        import repro.core.pmaxt as pmaxt_module
        from repro import pmaxT
        from repro.mpi import SerialComm

        seen = []
        real = pmaxt_module.run_kernel

        def kernel(*args, **kwargs):
            seen.append(get_blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(pmaxt_module, "run_kernel", kernel)
        X, y = data
        comm = SerialComm() if path == "comm" else None
        with _wide_budget():
            budget = get_blas_threads()
            pmaxT(X, y, B=20, comm=comm)
            assert get_blas_threads() == budget
        assert seen and set(seen) == {budget}

    def test_in_process_world_default_cap(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        with _wide_budget():
            budget = get_blas_threads()
            inside = launch_master("threads", 2,
                                   lambda comm: get_blas_threads())
            assert inside == min(budget, recommended_blas_threads(2))
            assert get_blas_threads() == budget

    def test_default_cap_never_raises_the_budget(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        with blas_thread_limit(1):
            assert launch_master("threads", 1,
                                 lambda comm: get_blas_threads()) == 1

    def test_overlapping_worlds_restore_the_budget(self):
        """World A starts first and ends first; B ends after A returned."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        import threading

        a_inside, b_inside, a_done = (threading.Event() for _ in range(3))
        errors = []

        def world_a(comm):
            if comm.rank == 0:
                a_inside.set()
                assert b_inside.wait(30)

        def world_b(comm):
            if comm.rank == 0:
                b_inside.set()
                assert a_done.wait(30)

        def launch(fn, before=None, after=None):
            try:
                if before is not None:
                    assert before.wait(30)
                launch_master("threads", 2, fn)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                if after is not None:
                    after.set()

        with _wide_budget():
            budget = get_blas_threads()
            threads = [
                threading.Thread(target=launch, args=(world_a, None, a_done)),
                threading.Thread(target=launch, args=(world_b, a_inside)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert get_blas_threads() == budget


class TestThreadEnvCeiling:
    """An exported ``*_NUM_THREADS`` is the one way to lower a world's cap.

    1-rank worlds on a host of 2+ CPUs, so the automatic cap alone would
    be 2 or more.
    """

    @pytest.fixture
    def automatic(self, monkeypatch):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        if effective_cpu_count() < 2:
            pytest.skip("a 1-rank cap of 1 cannot show a lower ceiling")
        for var in _THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        with _wide_budget():
            cap = rank_cap(1)
            if cap < 2:
                pytest.skip("this process's BLAS pool is capped at 1")
            yield cap

    def test_threads_world(self, automatic, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert launch_master("threads", 1,
                             lambda comm: get_blas_threads()) == 1

    def test_one_shot_processes_world(self, automatic, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert launch_master("shm", 1, _worker_budget) == 1

    def test_shm_session_job(self, automatic, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with open_session("shm", 1) as session:
            assert session.run(_worker_budget) == [1]

    @pytest.mark.parametrize("var", _THREAD_ENV_VARS)
    def test_each_variable_lowers_the_cap(self, automatic, monkeypatch,
                                          var):
        monkeypatch.setenv(var, "1")
        assert rank_cap(1) == 1
        assert launch_master("threads", 1,
                             lambda comm: get_blas_threads()) == 1

    def test_malformed_value_is_ignored(self, automatic, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "abc")
        assert rank_cap(1) == automatic
        assert launch_master("threads", 1,
                             lambda comm: get_blas_threads()) == automatic
