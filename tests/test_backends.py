"""Execution-backend layer: registry semantics and cross-backend equivalence.

The tentpole guarantee of the backend refactor is that *what* is computed
is independent of *how* the ranks were launched: ``pmaxT`` and ``pcor``
must produce bit-identical results on every registered backend at every
world size.  The matrix below pins that, and the remaining classes cover
the registry API, the zero-copy semantics of the ``shm`` world, and the
array-aware collectives of the ``processes`` world.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mt_maxT, pmaxT
from repro.corr import cor, pcor
from repro.data import synthetic_expression, two_class_labels
from repro.errors import CommunicatorError, DataError
from repro.mpi import (
    Backend,
    SerialComm,
    available_backends,
    register_backend,
    resolve_backend,
    run_backend,
    run_spmd_shm,
)
from repro.mpi.backends import _REGISTRY

# (backend, ranks) cells of the equivalence matrix.  "serial" is a
# one-rank world by construction; every other backend is exercised at
# 1, 2 and 4 ranks.
MATRIX = [("serial", 1)] + [
    (name, ranks)
    for name in ("threads", "processes", "shm")
    for ranks in (1, 2, 4)
]


@pytest.fixture(scope="module")
def dataset():
    X, _ = synthetic_expression(50, 16, n_class1=8, de_fraction=0.1, seed=88)
    return X, two_class_labels(8, 8)


class TestRegistry:
    def test_builtin_backends_present(self):
        assert {"serial", "threads", "processes", "shm"} <= \
            set(available_backends())

    def test_resolve_by_name(self):
        for name in available_backends():
            backend = resolve_backend(name)
            assert isinstance(backend, Backend)
            assert backend.name == name

    def test_resolve_passthrough(self):
        backend = resolve_backend("threads")
        assert resolve_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(CommunicatorError, match="unknown backend"):
            resolve_backend("quantum")

    def test_bad_spec_type(self):
        with pytest.raises(CommunicatorError, match="name or a Backend"):
            resolve_backend(42)

    def test_serial_rejects_multiple_ranks(self):
        with pytest.raises(CommunicatorError, match="one-rank world"):
            run_backend("serial", lambda comm: comm.rank, 3)

    def test_invalid_rank_count(self):
        with pytest.raises(CommunicatorError, match="ranks must be >= 1"):
            run_backend("threads", lambda comm: comm.rank, 0)

    def test_custom_backend_registration(self):
        class EchoBackend(Backend):
            name = "echo-test"
            in_process = True

            def run(self, fn, ranks, *, timeout=None):
                self.check_ranks(ranks)
                comm = SerialComm()
                return [fn(comm) for _ in range(ranks)]

        try:
            register_backend(EchoBackend())
            assert "echo-test" in available_backends()
            assert run_backend("echo-test", lambda c: c.size, 3) == [1, 1, 1]
            with pytest.raises(CommunicatorError, match="already registered"):
                register_backend(EchoBackend())
            register_backend(EchoBackend(), overwrite=True)
        finally:
            _REGISTRY.pop("echo-test", None)

    def test_register_rejects_non_backend(self):
        with pytest.raises(CommunicatorError, match="Backend instance"):
            register_backend(lambda fn, ranks: [])

    def test_register_rejects_unnamed(self):
        class Anonymous(Backend):
            def run(self, fn, ranks, *, timeout=None):  # pragma: no cover
                return []

        with pytest.raises(CommunicatorError, match="non-empty string name"):
            register_backend(Anonymous())


class TestRunBackend:
    @pytest.mark.parametrize("backend,ranks", MATRIX,
                             ids=[f"{b}-{r}" for b, r in MATRIX])
    def test_rank_ordered_results(self, backend, ranks):
        results = run_backend(backend, lambda comm: comm.rank, ranks)
        assert results == list(range(ranks))

    @pytest.mark.parametrize("backend,ranks", MATRIX,
                             ids=[f"{b}-{r}" for b, r in MATRIX])
    def test_array_collectives_roundtrip(self, backend, ranks):
        """bcast_array + reduce agree with the analytic answer."""
        def job(comm):
            arr = (np.arange(12, dtype=np.float64).reshape(3, 4)
                   if comm.is_master else None)
            data = comm.bcast_array(arr)
            total = comm.reduce(data * (comm.rank + 1))
            return None if total is None else total

        results = run_backend(backend, job, ranks)
        weight = sum(range(1, ranks + 1))
        expected = np.arange(12, dtype=np.float64).reshape(3, 4) * weight
        np.testing.assert_array_equal(results[0], expected)
        assert all(r is None for r in results[1:])


class TestPmaxTEquivalence:
    """ISSUE acceptance: bit-identical pmaxT across every backend."""

    @pytest.mark.parametrize("backend,ranks", MATRIX,
                             ids=[f"{b}-{r}" for b, r in MATRIX])
    def test_identical_to_serial(self, dataset, backend, ranks):
        X, labels = dataset
        serial = mt_maxT(X, labels, test="t", B=200, seed=19)
        parallel = pmaxT(X, labels, test="t", B=200, seed=19,
                         backend=backend, ranks=ranks)
        assert parallel is not None and parallel.nranks == ranks
        np.testing.assert_array_equal(serial.teststat, parallel.teststat)
        np.testing.assert_array_equal(serial.rawp, parallel.rawp)
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)
        np.testing.assert_array_equal(serial.order, parallel.order)

    def test_backend_and_comm_are_exclusive(self, dataset):
        X, labels = dataset
        with pytest.raises(DataError, match="not both"):
            pmaxT(X, labels, B=50, backend="threads", ranks=2,
                  comm=SerialComm())

    def test_default_backend_when_only_ranks_given(self, dataset):
        X, labels = dataset
        serial = mt_maxT(X, labels, B=100, seed=7)
        parallel = pmaxT(X, labels, B=100, seed=7, ranks=2)
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)

    def test_unknown_backend_name_surfaces(self, dataset):
        X, labels = dataset
        with pytest.raises(CommunicatorError, match="unknown backend"):
            pmaxT(X, labels, B=50, backend="quantum", ranks=2)


class TestPcorEquivalence:
    @pytest.mark.parametrize("backend,ranks", MATRIX,
                             ids=[f"{b}-{r}" for b, r in MATRIX])
    def test_identical_to_serial(self, dataset, backend, ranks):
        X, _ = dataset
        serial = cor(X)
        parallel = pcor(X, backend=backend, ranks=ranks)
        np.testing.assert_array_equal(serial, parallel)

    def test_with_second_matrix(self, dataset):
        X, _ = dataset
        Y = X[:10] * 2.0 + 1.0
        serial = cor(X, Y)
        for backend in ("threads", "shm"):
            parallel = pcor(X, Y, backend=backend, ranks=3)
            np.testing.assert_array_equal(serial, parallel)

    def test_backend_and_comm_are_exclusive(self, dataset):
        X, _ = dataset
        with pytest.raises(DataError, match="not both"):
            pcor(X, backend="threads", ranks=2, comm=SerialComm())


# Above SHM_THRESHOLD_BYTES the broadcast takes the shared-segment route;
# below it, the queue wire.  512 KiB of float64 forces the segment route.
_BIG = (256, 256)


def _job_shm_view_flags(comm):
    arr = np.ones(_BIG) if comm.is_master else None
    data = comm.bcast_array(arr)
    return bool(data.flags.writeable)


def _job_shm_zero_copy(comm):
    """Workers see the same physical pages: no per-rank private copy."""
    arr = (np.arange(_BIG[0] * _BIG[1], dtype=np.float64).reshape(_BIG)
           if comm.is_master else None)
    data = comm.bcast_array(arr)
    if comm.is_master:
        return True
    # A zero-copy view keeps the segment's buffer as its base; a pickled
    # copy would own its data outright.
    return data.base is not None and not data.flags.owndata


def _job_shm_small_wire_route(comm):
    arr = np.arange(16, dtype=np.float64) if comm.is_master else None
    data = comm.bcast_array(arr)
    return data.sum()


def _job_shm_reduce_rank_order(comm):
    # Non-commutative op exposes accumulation order: rank order means
    # ((r0 - r1) - r2) ..., the order every backend's reduce applies.
    # Run a small vector and one past the shm broadcast threshold.
    from repro.mpi.comm import ReduceOp

    sub = ReduceOp("sub", lambda a, b: a - b)
    small = comm.reduce(np.full(3, float(comm.rank + 1)), op=sub)
    big = comm.reduce(np.full(_BIG[0] * _BIG[1], float(comm.rank + 1)),
                      op=sub)
    if not comm.is_master:
        return None
    return float(small[0]), float(big[0])


def _job_shm_prune_dead_mappings(comm):
    # Iterative broadcasts over one world: mappings of dropped views must
    # be released per collective, not pinned until teardown.
    for i in range(5):
        arr = np.full(_BIG, float(i)) if comm.is_master else None
        data = comm.bcast_array(arr)
        assert data[0, 0] == i
        del data
    return len(comm._attached)


def _job_shm_int_counts(comm):
    counts = np.full(5, comm.rank + 1, dtype=np.int64)
    total = comm.reduce(counts)
    return None if total is None else total


# Forked ranks share the tracker the parent started, so a worker's
# attach-then-untrack removes the segment name before its creator unlinks
# it: the one-shot pmaxT covers bcast_array, the published dataset the
# session's dataset registry.
_TRACKER_SCRIPT = """
from multiprocessing import resource_tracker

import numpy as np

from repro import pmaxT
from repro.mpi import open_session

resource_tracker.ensure_running()
X = np.random.default_rng(0).normal(size=(2000, 40))
labels = np.repeat([0, 1], 20)
ref = pmaxT(X, labels, B=100, backend="shm", ranks=2)
with open_session("shm", 2) as ses:
    out = pmaxT(ses.publish(X, labels), B=100, session=ses)
assert np.array_equal(out.adjp, ref.adjp)
"""


class TestShmWorld:
    def test_unlink_after_attach_keeps_the_tracker_quiet(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        # run() reads stderr to EOF, which the tracker process holds
        # open until it exits, so its messages are all captured.
        proc = subprocess.run([sys.executable, "-c", _TRACKER_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_broadcast_views_are_read_only(self):
        results = run_spmd_shm(_job_shm_view_flags, 3)
        assert results[0] is True          # the master keeps its own array
        assert results[1:] == [False, False]

    def test_broadcast_is_zero_copy_on_workers(self):
        results = run_spmd_shm(_job_shm_zero_copy, 3)
        assert all(results)

    def test_small_arrays_take_the_wire_route(self):
        results = run_spmd_shm(_job_shm_small_wire_route, 3)
        assert results == [120.0, 120.0, 120.0]

    def test_reduce_applies_in_rank_order(self):
        results = run_spmd_shm(_job_shm_reduce_rank_order, 3)
        assert results[0] == (-4.0, -4.0)
        assert results[1] is None and results[2] is None

    def test_dead_mappings_pruned_per_collective(self):
        results = run_spmd_shm(_job_shm_prune_dead_mappings, 3)
        assert results[0] == 0                 # the master never attaches
        # each worker holds at most the final (just-pruned-into) mapping
        assert all(n <= 1 for n in results[1:])

    def test_integer_count_reduction(self):
        results = run_spmd_shm(_job_shm_int_counts, 4)
        assert results[0].dtype == np.int64
        np.testing.assert_array_equal(results[0], [10, 10, 10, 10, 10])

    def test_no_segments_leak(self):
        import glob
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(glob.glob("/dev/shm/psm_*"))
        run_spmd_shm(_job_shm_zero_copy, 4)
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after <= before


def _times_ten(x):
    return x * 10


def _sprint_script(master):
    # Module-level mapper: call() broadcasts its arguments through the
    # communicator, and the process backends pickle that payload.
    return master.call("papply", _times_ten, [1, 2, 3])


class TestSprintOverBackends:
    @pytest.mark.parametrize("backend,ranks", MATRIX,
                             ids=[f"{b}-{r}" for b, r in MATRIX])
    def test_run_sprint(self, backend, ranks):
        from repro.sprint import run_sprint

        result = run_sprint(_sprint_script, backend=backend, ranks=ranks)
        assert result == [10, 20, 30]

    def test_unpicklable_call_args_fail_fast(self):
        """A lambda in call() args must raise, not strand the workers."""
        from repro.sprint import run_sprint

        def script(master):
            return master.call("papply", lambda x: x, [1, 2])

        with pytest.raises(CommunicatorError, match="picklable"):
            run_sprint(script, backend="processes", ranks=2)

    def test_session_rejects_process_backends(self):
        from repro.errors import SprintError
        from repro.sprint import SprintSession

        with pytest.raises(SprintError, match="run_sprint"):
            SprintSession(nprocs=2, backend="shm")

    def test_session_serial_backend(self):
        from repro.sprint import SprintSession

        with SprintSession(nprocs=1, backend="serial") as sprint:
            assert sprint.call("papply", lambda x: -x, [4, 5]) == [-4, -5]

    def test_session_serial_needs_one_rank(self):
        from repro.errors import SprintError
        from repro.sprint import SprintSession

        with pytest.raises(SprintError, match="one-rank"):
            SprintSession(nprocs=3, backend="serial")


def _job_processes_array_wire(comm):
    arr = np.arange(10.0)[::2] if comm.is_master else None  # strided input
    data = comm.bcast_array(arr)
    return np.ascontiguousarray(data)


class TestProcessArrayCollectives:
    def test_strided_input_broadcasts_densely(self):
        from repro.mpi import run_spmd_processes

        results = run_spmd_processes(_job_processes_array_wire, 3)
        for r in results:
            np.testing.assert_array_equal(r, [0.0, 2.0, 4.0, 6.0, 8.0])
