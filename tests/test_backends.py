"""Execution-backend layer: registry semantics and cross-backend equivalence.

The tentpole guarantee of the backend refactor is that *what* is computed
is independent of *how* the ranks were launched: ``pmaxT`` and ``pcor``
must produce bit-identical results on every registered backend at every
world size.  The matrix below pins that, and the remaining classes cover
the registry API and both array-broadcast routes of the ``shm`` world.
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
    run_spmd_processes,
)
from repro.mpi.backends import _REGISTRY
from repro.mpi.processes import SHM_THRESHOLD_BYTES

# (backend, ranks) cells of the equivalence matrix.  "serial" is a
# one-rank world by construction; every other backend is exercised at
# 1, 2 and 4 ranks.
MATRIX = [("serial", 1)] + [
    (name, ranks)
    for name in ("threads", "shm")
    for ranks in (1, 2, 4)
]


@pytest.fixture(scope="module")
def dataset():
    X, _ = synthetic_expression(50, 16, n_class1=8, de_fraction=0.1, seed=88)
    return X, two_class_labels(8, 8)


class TestRegistry:
    def test_builtin_backends_present(self):
        assert available_backends() == ("serial", "shm", "threads")

    def test_processes_backend_is_gone(self):
        with pytest.raises(CommunicatorError,
                           match="available: serial, shm, threads"):
            resolve_backend("processes")

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
        results = run_spmd_processes(_job_shm_view_flags, 3)
        assert results[0] is True          # the master keeps its own array
        assert results[1:] == [False, False]

    def test_broadcast_is_zero_copy_on_workers(self):
        results = run_spmd_processes(_job_shm_zero_copy, 3)
        assert all(results)

    def test_small_arrays_take_the_wire_route(self):
        results = run_spmd_processes(_job_shm_small_wire_route, 3)
        assert results == [120.0, 120.0, 120.0]

    def test_reduce_applies_in_rank_order(self):
        results = run_spmd_processes(_job_shm_reduce_rank_order, 3)
        assert results[0] == (-4.0, -4.0)
        assert results[1] is None and results[2] is None

    def test_dead_mappings_pruned_per_collective(self):
        results = run_spmd_processes(_job_shm_prune_dead_mappings, 3)
        assert results[0] == 0                 # the master never attaches
        # each worker holds at most the final (just-pruned-into) mapping
        assert all(n <= 1 for n in results[1:])

    def test_integer_count_reduction(self):
        results = run_spmd_processes(_job_shm_int_counts, 4)
        assert results[0].dtype == np.int64
        np.testing.assert_array_equal(results[0], [10, 10, 10, 10, 10])

    def test_no_segments_leak(self):
        import glob
        import os

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(glob.glob("/dev/shm/psm_*"))
        run_spmd_processes(_job_shm_zero_copy, 4)
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
            run_sprint(script, backend="shm", ranks=2)

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


# A strided view whose dense copy is past the segment threshold (512 KiB).
_STRIDED_BIG = np.arange(SHM_THRESHOLD_BYTES // 2, dtype=np.float64)[::2]


def _job_processes_array_wire(comm):
    out = []
    for arr in (np.arange(10.0)[::2], _STRIDED_BIG):  # strided inputs
        data = comm.bcast_array(arr if comm.is_master else None)
        out.append((data.copy(), data.flags.c_contiguous,
                    data.flags.writeable, len(comm._attached)))
    return out


def _job_held_segment_views(comm):
    # Two segment broadcasts with the first view still held: attaching the
    # second must not release the first one's mapping.
    first = comm.bcast_array(_STRIDED_BIG if comm.is_master else None)
    head = first[:4]
    second = comm.bcast_array(_STRIDED_BIG * -1.0 if comm.is_master else None)
    held = len(comm._attached)
    out = (first.copy(), head.copy(), second.copy(), held)
    del first, second
    comm._prune_attached()
    after_first_dropped = len(comm._attached)
    del head
    comm._prune_attached()
    return out + (after_first_dropped, len(comm._attached))


class TestProcessArrayCollectives:
    def test_held_views_keep_their_mappings(self):
        results = run_spmd_processes(_job_held_segment_views, 3)
        for rank, (first, head, second, *attached) in enumerate(results):
            np.testing.assert_array_equal(first, _STRIDED_BIG)
            np.testing.assert_array_equal(head, _STRIDED_BIG[:4])
            np.testing.assert_array_equal(second, -_STRIDED_BIG)
            if rank:
                # A slice of the first view keeps its mapping alive.
                assert attached == [2, 1, 0]

    def test_strided_input_broadcasts_densely(self):
        assert _STRIDED_BIG.nbytes > SHM_THRESHOLD_BYTES
        results = run_spmd_processes(_job_processes_array_wire, 3)
        for rank, (small, big) in enumerate(results):
            np.testing.assert_array_equal(small[0], [0.0, 2.0, 4.0, 6.0, 8.0])
            np.testing.assert_array_equal(big[0], _STRIDED_BIG)
            assert small[1] and big[1]                 # dense on arrival
            if rank:
                # Workers get read-only arrays; only the big one maps a
                # shared segment.
                assert not small[2] and not big[2]
                assert (small[3], big[3]) == (0, 1)


# Each entry point that takes a backend name, called with the removed
# "processes" name; every one must fail before a world starts.
def _stale_backend_call(entry):
    from repro.mpi import open_session
    from repro.mpi.backends import launch_master
    from repro.serve import PoolManager
    from repro.sprint import run_sprint

    X = np.ones((4, 4))
    calls = {
        "pmaxT": lambda: pmaxT(X, [0, 0, 1, 1], B=10, backend="processes",
                               ranks=2),
        "pcor": lambda: pcor(X, backend="processes", ranks=2),
        "open_session": lambda: open_session("processes", 2),
        "launch_master": lambda: launch_master("processes", 2,
                                               lambda comm: comm.rank),
        "PoolManager": lambda: PoolManager("processes", 1),
        "run_sprint": lambda: run_sprint(_sprint_script,
                                         backend="processes", ranks=2),
    }
    return calls[entry]


class TestRemovedProcessesName:
    @pytest.mark.parametrize("entry", [
        "pmaxT", "pcor", "open_session", "launch_master", "PoolManager",
        "run_sprint",
    ])
    def test_stale_name_lists_the_kept_backends(self, entry):
        with pytest.raises(CommunicatorError,
                           match="unknown backend 'processes'; "
                                 "available: serial, shm, threads"):
            _stale_backend_call(entry)()


def _route_probe(arr, **kwargs):
    """A 3-rank job broadcasting ``arr`` from rank 0.

    Rank 0 returns its ``array_bytes`` tally; workers return what arrived
    and how: the data, its dtype, C-contiguity, writeability and how many
    segments the rank maps.
    """
    def job(comm):
        data = comm.bcast_array(arr if comm.is_master else None, **kwargs)
        if comm.is_master:
            return comm.array_bytes
        return (data.copy(), data.dtype, data.flags.c_contiguous,
                data.flags.writeable, len(comm._attached))

    return run_spmd_processes(job, 3)


def _payload(nbytes, dtype):
    """A non-constant array of ``dtype`` taking at least ``nbytes``."""
    dtype = np.dtype(dtype)
    n = -(-nbytes // dtype.itemsize)
    return (np.arange(n) % 7).astype(dtype)


# Payload sizes either side of the segment threshold.
_ROUTE_BYTES = {"wire": SHM_THRESHOLD_BYTES // 4,
                "segment": 2 * SHM_THRESHOLD_BYTES}


def _assert_route(results, expected, route):
    """Workers got ``expected`` read-only and dense over ``route``."""
    wire_tally = expected.nbytes * 2                # one copy per worker
    assert results[0] == (wire_tally if route == "wire"
                          else expected.nbytes)     # one copy in all
    for data, dtype, dense, writeable, mapped in results[1:]:
        assert dtype == expected.dtype and data.shape == expected.shape
        np.testing.assert_array_equal(data, expected)
        assert dense and not writeable
        assert mapped == (route == "segment")


class TestBroadcastRoutes:
    """``bcast_array`` of the one forked world, on both of its routes."""

    @pytest.mark.parametrize("offset,route", [
        (-8, "wire"), (0, "segment"), (8, "segment"),
    ], ids=["below", "at", "above"])
    def test_threshold_picks_the_route(self, offset, route):
        arr = _payload(SHM_THRESHOLD_BYTES + offset, np.uint8)
        assert arr.nbytes == SHM_THRESHOLD_BYTES + offset
        _assert_route(_route_probe(arr), arr, route)

    @pytest.mark.parametrize("dtype", [
        np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_,
    ])
    @pytest.mark.parametrize("route", ["wire", "segment"])
    def test_dtype_survives(self, route, dtype):
        arr = _payload(_ROUTE_BYTES[route], dtype)
        _assert_route(_route_probe(arr), arr, route)

    @pytest.mark.parametrize("layout", [
        "c-order", "fortran-order", "3-d", "reversed",
    ])
    @pytest.mark.parametrize("route", ["wire", "segment"])
    def test_layout_arrives_dense(self, route, layout):
        flat = _payload(_ROUTE_BYTES[route], np.float64)
        flat = flat[:flat.size // 24 * 24]
        arr = {
            "c-order": lambda: flat.reshape(-1, 8),
            "fortran-order": lambda: np.asfortranarray(flat.reshape(-1, 8)),
            "3-d": lambda: flat.reshape(2, -1, 3),
            "reversed": lambda: flat[::-1],
        }[layout]()
        _assert_route(_route_probe(arr), arr, route)

    @pytest.mark.parametrize("source,cast,route", [
        (np.float64, np.float32, "wire"),
        (np.float32, np.float64, "segment"),
    ], ids=["narrowed-to-wire", "widened-to-segment"])
    def test_cast_happens_before_the_route_choice(self, source, cast, route):
        # 3/4 of the threshold in the source dtype: narrowing halves it,
        # widening doubles it past the threshold.
        arr = _payload(SHM_THRESHOLD_BYTES * 3 // 4, source)
        expected = arr.astype(cast)
        _assert_route(_route_probe(arr, dtype=cast), expected, route)


@pytest.fixture(scope="module")
def segment_dataset():
    """A matrix whose broadcast takes the segment route (~525 KiB)."""
    X, _ = synthetic_expression(4200, 16, n_class1=8, de_fraction=0.1,
                                seed=91)
    assert X.nbytes > SHM_THRESHOLD_BYTES
    return X, two_class_labels(8, 8)


class TestSegmentRouteEquivalence:
    """The equivalence matrix's data ride the wire; these ride the segment."""

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_pmaxt_identical_to_serial(self, segment_dataset, ranks):
        X, labels = segment_dataset
        serial = mt_maxT(X, labels, test="t", B=40, seed=23)
        parallel = pmaxT(X, labels, test="t", B=40, seed=23,
                         backend="shm", ranks=ranks)
        np.testing.assert_array_equal(serial.teststat, parallel.teststat)
        np.testing.assert_array_equal(serial.rawp, parallel.rawp)
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)
        np.testing.assert_array_equal(serial.order, parallel.order)

    @pytest.mark.parametrize("backend", ["threads", "shm"])
    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_pcor_long_rows_within_a_few_ulp(self, backend, ranks):
        # Each rank correlates its row block against the whole matrix; at
        # long rows the block's BLAS product may round differently from
        # the whole-matrix one in the last place.  On shm both X and Y
        # (537 KiB each) take the segment route.
        rng = np.random.default_rng(17)
        X, Y = rng.normal(size=(40, 1680)), rng.normal(size=(40, 1680))
        bound = 8 * np.finfo(np.float64).eps
        for args in ((X,), (X, Y)):
            serial = cor(*args)
            parallel = pcor(*args, backend=backend, ranks=ranks)
            assert np.abs(parallel - serial).max() <= bound

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_pcor_identical_to_serial(self, segment_dataset, ranks):
        # X takes the segment and Y the wire; a few Y rows keep the
        # answer small.
        X, _ = segment_dataset
        Y = X[:10] * 2.0 + 1.0
        np.testing.assert_array_equal(cor(X, Y),
                                      pcor(X, Y, backend="shm", ranks=ranks))
