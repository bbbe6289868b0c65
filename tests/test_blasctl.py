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
from repro.mpi.backends import launch_master
from repro.mpi.blasctl import apply_worker_cap, worker_cap_override


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
        from repro.mpi.blasctl import effective_cpu_count

        cores = effective_cpu_count()
        assert recommended_blas_threads(1) == max(1, cores)
        assert recommended_blas_threads(2 * cores) == 1
        assert recommended_blas_threads(cores) >= 1

    def test_negative_blas_threads_rejected_cleanly(self):
        from repro import pmaxT
        from repro.errors import OptionError

        X = __import__("numpy").ones((4, 4))
        with pytest.raises(OptionError, match="blas_threads"):
            pmaxT(X, [0, 0, 1, 1], B=10, blas_threads=-1)
        with pytest.raises(OptionError, match="blas_threads"):
            launch_master("processes", 2, lambda c: None, blas_threads=-2)


class TestWorkerBootstrap:
    def test_process_world_auto_caps(self):
        """ranks x blas_threads must not exceed the host's cores."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        import os

        cores = os.cpu_count() or 1
        budgets = run_spmd_processes(_worker_budget, 2)
        assert all(b is not None and b * 2 <= max(2, cores)
                   for b in budgets)

    def test_process_world_explicit_cap(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        budgets = run_spmd_processes(_worker_budget, 2, blas_threads=1)
        assert budgets == [1, 1]

    def test_zero_disables_capping(self):
        """blas_threads=0 must leave the inherited pool untouched."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        parent = get_blas_threads()
        budgets = run_spmd_processes(_worker_budget, 2, blas_threads=0)
        assert budgets == [parent, parent]

    def test_apply_worker_cap_zero_is_noop(self):
        before = get_blas_threads()
        apply_worker_cap(4, 0)
        assert get_blas_threads() == before

    def test_worker_exports_env_for_late_loaded_runtimes(self):
        envs = run_spmd_processes(_worker_env, 2, blas_threads=1)
        assert envs == ["1", "1"]

    def test_worker_cap_override_restores_environment(self):
        import os

        before = os.environ.get("REPRO_BLAS_THREADS")
        with worker_cap_override(3):
            assert os.environ["REPRO_BLAS_THREADS"] == "3"
        assert os.environ.get("REPRO_BLAS_THREADS") == before


class TestLaunchMaster:
    def test_blas_threads_reaches_every_rank(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        budgets = launch_master("shm", 2,
                                lambda comm: comm.gather(get_blas_threads()),
                                blas_threads=1)
        assert budgets == [1, 1]

    def test_zero_reaches_the_worker_bootstrap(self):
        """launch_master(blas_threads=0) must defeat the automatic cap."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        parent = get_blas_threads()
        budgets = launch_master("processes", 2,
                                lambda comm: comm.gather(get_blas_threads()),
                                blas_threads=0)
        assert budgets == [parent, parent]

    def test_in_process_backend_restores_budget(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        inside = launch_master("threads", 2,
                               lambda comm: get_blas_threads(),
                               blas_threads=1)
        assert inside == 1
        assert get_blas_threads() == before

    def test_pmaxt_accepts_blas_threads(self):
        from repro import mt_maxT, pmaxT

        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 10))
        labels = np.array([0] * 5 + [1] * 5)
        ref = mt_maxT(X, labels, B=80)
        got = pmaxT(X, labels, B=80, backend="processes", ranks=2,
                    blas_threads=1)
        np.testing.assert_array_equal(ref.adjp, got.adjp)

    def test_pcor_accepts_blas_threads(self):
        from repro.corr import cor, pcor

        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 8))
        np.testing.assert_array_equal(
            cor(X), pcor(X, backend="threads", ranks=2, blas_threads=1))


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

    def test_none_leaves_the_pool_alone(self):
        before = get_blas_threads()
        with blas_thread_limit(None):
            assert get_blas_threads() == before

    def test_forked_worker_holds_no_parent_lease(self):
        """A worker forked inside a lease starts from the unleased budget."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        base = get_blas_threads()
        with blas_thread_limit(1):
            budgets = run_spmd_processes(_worker_budget, 1, blas_threads=0)
        assert budgets == [base]


def _wide_budget():
    """A lease wider than one thread, so a leaked cap of 1 shows."""
    return blas_thread_limit(max(2, get_blas_threads() or 2))


class TestScopedCaps:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=(300, 12)), np.array([0] * 6 + [1] * 6)

    @pytest.mark.parametrize("path", ["serial", "comm"])
    def test_rank_cap_ends_with_the_call(self, data, monkeypatch, path):
        """``blas_threads=`` on a serial or ``comm=`` call is not kept."""
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
            pmaxT(X, y, B=20, blas_threads=1, comm=comm)
            assert get_blas_threads() == budget
        assert seen and set(seen) == {1}

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

    def test_zero_leaves_an_in_process_world_alone(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        with _wide_budget():
            budget = get_blas_threads()
            assert launch_master("threads", 2,
                                 lambda comm: get_blas_threads(),
                                 blas_threads=0) == budget

    @pytest.mark.parametrize("blas_threads", [1, None],
                             ids=["explicit", "default"])
    def test_overlapping_worlds_restore_the_budget(self, blas_threads):
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
                launch_master("threads", 2, fn, blas_threads=blas_threads)
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
