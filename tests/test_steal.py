"""Work-stealing scheduler: bit-identity, fault granularity, fixed BLAS caps.

The tentpole guarantees pinned here:

* the steal schedule reproduces the static Figure-2 plan **bit for bit**
  on every backend, under any induced skew (throttled master, throttled
  worker) and any block size — the schedule decides who computes each
  block, never what is computed;
* ``schedule="auto"`` steals on every multi-rank world — stored
  permutations and checkpointed runs included — and explicit
  ``schedule="steal"`` works everywhere (a one-rank world runs one
  block);
* the master's :class:`~repro.core.steal.BlockLedger` proves exact cover
  — every permutation block computed exactly once;
* a worker SIGKILLed mid-steal costs the job nothing: the master requeues
  its in-flight blocks, finishes with the survivors (result still
  bit-identical), and the next dispatch respawns **only** the dead rank —
  surviving pids, resident caches and published segments stay warm.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import mt_maxT, pmaxT
from repro.core.partition import Block, carve_blocks, plan_initial_runs, plan_ledger
from repro.core.steal import (
    DEFAULT_STEAL_BLOCK,
    BlockLedger,
    injected_delay,
    run_steal_master,
    run_steal_worker,
)
from repro.errors import OptionError, PermutationError
from repro.mpi import open_session, run_spmd, run_spmd_processes
from repro.mpi.blasctl import blas_available, get_blas_threads
from repro.mpi.session import resident_cache

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def dataset():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 16))
    labels = np.array([0] * 8 + [1] * 8, dtype=np.int64)
    return X, labels


def _same(a, b):
    assert np.array_equal(a.teststat, b.teststat, equal_nan=True)
    assert np.array_equal(a.rawp, b.rawp, equal_nan=True)
    assert np.array_equal(a.adjp, b.adjp, equal_nan=True)
    assert np.array_equal(a.order, b.order)
    assert a.nperm == b.nperm


# -- block arithmetic -------------------------------------------------------


class TestCarveBlocks:
    def test_exact_division(self):
        blocks = carve_blocks(0, 1000, 250)
        assert [b.bid for b in blocks] == [0, 1, 2, 3]
        assert [(b.start, b.count) for b in blocks] == [
            (0, 250), (250, 250), (500, 250), (750, 250)]

    def test_remainder_becomes_short_final_block(self):
        blocks = carve_blocks(0, 1000, 300)
        assert [(b.start, b.count) for b in blocks] == [
            (0, 300), (300, 300), (600, 300), (900, 100)]
        assert blocks[-1].stop == 1000

    def test_nonzero_start(self):
        blocks = carve_blocks(500, 1100, 256)
        assert blocks[0].start == 500
        assert blocks[-1].stop == 1100
        assert sum(b.count for b in blocks) == 600

    def test_block_larger_than_range(self):
        (block,) = carve_blocks(0, 100, 10_000)
        assert (block.start, block.count) == (0, 100)

    def test_empty_range_rejected(self):
        with pytest.raises(PermutationError):
            carve_blocks(10, 10, 100)

    def test_bad_block_size_rejected(self):
        with pytest.raises(PermutationError):
            carve_blocks(0, 100, 0)


class TestInitialRuns:
    def test_runs_are_contiguous_and_disjoint(self):
        runs = plan_initial_runs(40, 4)
        assert len(runs) == 4
        covered = [bid for run in runs for bid in run]
        assert covered == sorted(set(covered))
        assert covered[0] == 0  # block 0 (observed labelling) on master

    def test_short_runs_leave_pool(self):
        runs = plan_initial_runs(40, 4)
        assert sum(len(r) for r in runs) < 40

    def test_fewer_blocks_than_ranks(self):
        runs = plan_initial_runs(2, 8)
        assert len(runs) == 8
        assert sum(len(r) for r in runs) <= 2
        assert len(runs[0]) == 1  # the master always has block 0


# -- ledger -----------------------------------------------------------------


class TestPlanLedger:
    @staticmethod
    def _spans(blocks):
        return [(b.start, b.count) for b in blocks]

    def test_static_is_the_figure2_plan(self):
        blocks, runs = plan_ledger(23, 3)
        assert self._spans(blocks) == [(0, 8), (8, 8), (16, 7)]
        assert runs == (range(0, 1), range(1, 2), range(2, 3))

    def test_static_shares_skip_covered_ranges(self):
        # 13 pending permutations around [5, 15): shares of 5, 4 and 4.
        blocks, runs = plan_ledger(23, 3, covered=[(5, 15)])
        assert self._spans(blocks) == [(0, 5), (15, 4), (19, 4)]
        assert [len(r) for r in runs] == [1, 1, 1]

    def test_static_share_crossing_a_gap_and_capped(self):
        # Shares of 8: rank 0 takes [0, 4) and [8, 12), rank 1 [12, 20).
        blocks, runs = plan_ledger(20, 2, covered=[(4, 8)], max_block=3)
        assert self._spans(blocks) == [(0, 3), (3, 1), (8, 3), (11, 1),
                                       (12, 3), (15, 3), (18, 2)]
        assert runs == (range(0, 4), range(4, 7))

    def test_steal_blocks_tile_the_gaps(self):
        blocks, runs = plan_ledger(100, 2, covered=[(0, 30)], block_size=25,
                                   max_block=20)
        assert self._spans(blocks) == [(30, 20), (50, 20), (70, 20),
                                       (90, 10)]
        assert runs == plan_initial_runs(4, 2)

    def test_fully_covered_job_has_no_blocks(self):
        assert plan_ledger(10, 3, covered=[(0, 10)]) == (
            (), (range(0), range(0), range(0)))


def _blocks(n, size=10):
    return carve_blocks(0, n * size, size)


class TestBlockLedger:
    def test_exact_cover(self):
        blocks = _blocks(4)
        ledger = BlockLedger(blocks)
        for b in blocks:
            ledger.grant(b.bid, rank=b.bid % 2)
            ledger.mark_done(b.bid % 2, [b.bid])
        assert ledger.complete
        ledger.assert_exact_cover(0, 40)

    def test_double_grant_rejected(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        with pytest.raises(PermutationError, match="granted twice"):
            ledger.grant(0, 2)
        ledger.mark_done(1, [0])
        with pytest.raises(PermutationError, match="granted twice"):
            ledger.grant(0, 1)

    def test_wrong_owner_rejected(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        with pytest.raises(PermutationError, match="granted to"):
            ledger.mark_done(2, [0])

    def test_requeue_returns_in_flight_blocks(self):
        ledger = BlockLedger(_blocks(4))
        for bid in (0, 1, 2):
            ledger.grant(bid, 1)
        ledger.mark_done(1, [1])
        assert ledger.in_flight(1) == [0, 2]
        assert ledger.requeue_rank(1) == [0, 2]
        assert ledger.in_flight(1) == []
        # requeued blocks can be granted again
        ledger.grant(0, 2)

    def test_in_flight_blocks_fail_cover(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        with pytest.raises(PermutationError, match="in flight"):
            ledger.assert_exact_cover(0, 20)

    def test_missing_blocks_fail_cover(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        ledger.mark_done(1, [0])
        with pytest.raises(PermutationError, match="missing"):
            ledger.assert_exact_cover(0, 20)

    def test_wrong_span_fails_cover(self):
        blocks = _blocks(2)
        ledger = BlockLedger(blocks)
        for b in blocks:
            ledger.grant(b.bid, 0)
            ledger.mark_done(0, [b.bid])
        with pytest.raises(PermutationError):
            ledger.assert_exact_cover(0, 30)


# -- the protocol on a real in-process world --------------------------------


def _steal_job(comm):
    """Sum block counts through the full protocol; returns (acc, stats) on 0.

    The master is throttled so the workers drain their initial runs first
    and demonstrably steal from the pool.
    """
    blocks = carve_blocks(0, 400, 10)
    runs = plan_initial_runs(len(blocks), comm.size)

    def compute(block: Block):
        if comm.rank == 0:
            time.sleep(0.01)
        return block.count

    def merge(acc, piece):
        return piece if acc is None else acc + piece

    if comm.rank == 0:
        acc, ledger, stats = run_steal_master(
            comm, blocks, runs, compute, merge, tag=0x5400001)
        ledger.assert_exact_cover(0, 400)
        return acc, stats
    run_steal_worker(comm, blocks, runs[comm.rank], compute, merge,
                     tag=0x5400001)
    return None


class TestProtocol:
    def test_total_and_cover(self):
        results = run_spmd(_steal_job, 4)
        acc, stats = results[0]
        assert acc == 400
        assert stats["blocks_total"] == 40
        assert stats["blocks_stolen"] > 0
        assert stats["deaths_handled"] == 0


def _steal_job_poll(comm):
    """Same protocol with a throttled master split into poll_unit pieces."""
    blocks = carve_blocks(0, 400, 50)
    runs = plan_initial_runs(len(blocks), comm.size)

    def compute(block: Block):
        if comm.rank == 0:
            time.sleep(0.002)
        return block.count

    def merge(acc, piece):
        return piece if acc is None else acc + piece

    if comm.rank == 0:
        acc, ledger, stats = run_steal_master(
            comm, blocks, runs, compute, merge, tag=0x5400002, poll_unit=16)
        ledger.assert_exact_cover(0, 400)
        return acc, stats
    run_steal_worker(comm, blocks, runs[comm.rank], compute, merge,
                     tag=0x5400002)
    return None


class TestPollUnit:
    """Master-side sub-block service units between steal requests."""

    class _SoloComm:
        size = 1
        rank = 0

        def poll_any(self, tag):
            return None

    @staticmethod
    def _merge(acc, piece):
        return piece if acc is None else acc + piece

    def test_sub_blocks_tile_each_block_exactly(self):
        blocks = carve_blocks(0, 100, 30)  # 30, 30, 30, 10
        runs = plan_initial_runs(len(blocks), 1)
        pieces = []

        def compute(block: Block):
            pieces.append((block.bid, block.start, block.count))
            return block.count

        acc, ledger, _ = run_steal_master(
            self._SoloComm(), blocks, runs, compute, self._merge,
            tag=0x5400003, poll_unit=8)
        ledger.assert_exact_cover(0, 100)
        assert acc == 100
        assert all(count <= 8 for _, _, count in pieces)
        for block in blocks:
            at = block.start
            for _, start, count in [p for p in pieces if p[0] == block.bid]:
                assert start == at
                at += count
            assert at == block.stop

    def test_unit_covering_block_computes_whole_blocks(self):
        blocks = carve_blocks(0, 40, 10)
        runs = plan_initial_runs(len(blocks), 1)
        pieces = []

        def compute(block: Block):
            pieces.append(block.count)
            return block.count

        acc, ledger, _ = run_steal_master(
            self._SoloComm(), blocks, runs, compute, self._merge,
            tag=0x5400004, poll_unit=10)
        ledger.assert_exact_cover(0, 40)
        assert acc == 40 and pieces == [10, 10, 10, 10]

    def test_protocol_with_poll_unit(self):
        results = run_spmd(_steal_job_poll, 4)
        acc, stats = results[0]
        assert acc == 400
        assert stats["blocks_total"] == 8
        assert stats["deaths_handled"] == 0


# -- delay injection --------------------------------------------------------


class TestInjectedDelay:
    def test_unset_is_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEAL_TEST_DELAY", raising=False)
        assert injected_delay(0) == 0.0

    def test_rank_and_wildcard(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "1:0.25,*:0.5")
        assert injected_delay(1) == 0.25
        assert injected_delay(0) == 0.5
        assert injected_delay(7) == 0.5

    def test_malformed_entries_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "bogus,1:xyz,2:0.125")
        assert injected_delay(1) == 0.0
        assert injected_delay(2) == 0.125


# -- BLAS caps stay fixed for the whole job ---------------------------------


def _bootstrap_cap(comm):
    return get_blas_threads()


class TestFixedBlasCap:
    """Every rank computes every block under its bootstrap BLAS cap.

    A rank must not widen its pool past ``cores // ranks`` while a peer
    is still computing: that oversubscribes the host exactly while the
    job's slowest rank is running.
    """

    @pytest.mark.parametrize("B,schedule,steal_block", [
        (512, "static", None),   # the Figure-2 plan: one block per rank
        (500, "steal", 256),     # one block per rank, empty pool
        (1000, "steal", 100),    # a pool the ranks steal from
    ], ids=["static", "empty-pool", "pool"])
    def test_ranks_keep_bootstrap_cap(self, dataset, monkeypatch, tmp_path,
                                      B, schedule, steal_block):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        import repro.core.pmaxt as pmaxt_module

        expected = set(run_spmd_processes(_bootstrap_cap, 2))
        log = tmp_path / "caps.txt"
        real = pmaxt_module.run_kernel

        def kernel(*args, **kwargs):
            # Forked ranks inherit the patch; each appends one line.
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {get_blas_threads()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(pmaxt_module, "run_kernel", kernel)
        X, y = dataset
        pmaxT(X, y, B=B, backend="shm", ranks=2, schedule=schedule,
              steal_block=steal_block)
        seen = [line.split() for line in log.read_text().splitlines()]
        assert len({pid for pid, _ in seen}) == 2   # both ranks computed
        assert len(expected) == 1
        assert {int(cap) for _, cap in seen} == expected


# -- bit-identity -----------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend,ranks", [
        ("threads", 3), ("shm", 4)])
    def test_steal_matches_static(self, dataset, backend, ranks):
        X, y = dataset
        static = pmaxT(X, y, B=600, backend=backend, ranks=ranks,
                       schedule="static")
        steal = pmaxT(X, y, B=600, backend=backend, ranks=ranks,
                      schedule="steal", steal_block=50)
        _same(steal, static)

    def test_steal_matches_serial(self, dataset):
        X, y = dataset
        serial = pmaxT(X, y, B=600)
        steal = pmaxT(X, y, B=600, backend="threads", ranks=4,
                      schedule="steal", steal_block=37)
        _same(steal, serial)

    @pytest.mark.parametrize("straggler", [0, 1])
    def test_skewed_world_still_identical(self, dataset, monkeypatch,
                                          straggler):
        """One rank 40x slower: the others steal its share, same bits."""
        X, y = dataset
        serial = pmaxT(X, y, B=400)
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", f"{straggler}:0.002")
        steal = pmaxT(X, y, B=400, backend="threads", ranks=3,
                      schedule="steal", steal_block=50)
        _same(steal, serial)

    def test_odd_block_sizes(self, dataset):
        X, y = dataset
        serial = pmaxT(X, y, B=500)
        for block in (1_000_000, 499, 101, 1):
            steal = pmaxT(X, y, B=500, backend="threads", ranks=3,
                          schedule="steal", steal_block=block)
            _same(steal, serial)

    def test_float32_identical(self, dataset):
        X, y = dataset
        static = pmaxT(X, y, B=400, backend="threads", ranks=3,
                       schedule="static", dtype="float32")
        steal = pmaxT(X, y, B=400, backend="threads", ranks=3,
                      schedule="steal", steal_block=64, dtype="float32")
        _same(steal, static)

    def test_session_steal_identical_and_counted(self, dataset, monkeypatch):
        X, y = dataset
        serial = pmaxT(X, y, B=500)
        # Throttle the master so the workers demonstrably steal pool blocks.
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "0:0.002")
        with open_session("shm", 3) as ses:
            steal = pmaxT(X, y, B=500, session=ses, schedule="steal",
                          steal_block=50)
            stats = ses.stats()
        _same(steal, serial)
        assert stats["steal_jobs"] == 1
        assert stats["blocks_stolen"] > 0
        assert stats["rank_respawns"] == 0


# -- schedule resolution ----------------------------------------------------


class TestScheduleResolution:
    def test_bad_schedule_rejected(self, dataset):
        X, y = dataset
        with pytest.raises(OptionError, match="schedule"):
            pmaxT(X, y, B=100, backend="threads", ranks=2,
                  schedule="dynamic")

    def test_bad_steal_block_rejected(self, dataset):
        X, y = dataset
        with pytest.raises(OptionError, match="steal_block"):
            pmaxT(X, y, B=100, backend="threads", ranks=2, steal_block=0)

    def test_steal_on_one_rank_works(self, dataset):
        X, y = dataset
        _same(pmaxT(X, y, B=100, schedule="steal"), pmaxT(X, y, B=100))

    @pytest.mark.parametrize("delay", [None, "1:0.002"])
    def test_steal_with_stored_mode_matches_serial(self, dataset,
                                                   monkeypatch, delay):
        """Stored permutations replay per block: same bits as serial."""
        X, y = dataset
        serial = mt_maxT(X, y, B=300, fixed_seed_sampling="n")
        if delay is not None:
            monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", delay)
        steal = pmaxT(X, y, B=300, backend="threads", ranks=3,
                      fixed_seed_sampling="n", schedule="steal",
                      steal_block=40)
        _same(steal, serial)

    def test_steal_with_checkpointing_works(self, dataset, tmp_path):
        X, y = dataset
        steal = pmaxT(X, y, B=300, backend="threads", ranks=2,
                      schedule="steal", steal_block=40,
                      checkpoint_dir=str(tmp_path), checkpoint_interval=60)
        _same(steal, pmaxT(X, y, B=300))

    def test_auto_steals_for_stored_and_checkpointed_runs(self, dataset,
                                                          tmp_path):
        X, y = dataset
        with open_session("shm", 2) as ses:
            stored = pmaxT(X, y, B=600, session=ses,
                           fixed_seed_sampling="n")
            assert ses.stats()["steal_jobs"] == 1
            ckpt = pmaxT(X, y, B=600, session=ses,
                         checkpoint_dir=str(tmp_path))
            before = ses.stats()
            assert before["steal_jobs"] == 2
            # The static plan is the degenerate ledger: no steal job.
            static = pmaxT(X, y, B=600, session=ses, schedule="static")
            stats = ses.stats()
        assert stats["steal_jobs"] == 2
        assert stats["blocks_stolen"] == before["blocks_stolen"]
        _same(stored, mt_maxT(X, y, B=600, fixed_seed_sampling="n"))
        _same(ckpt, pmaxT(X, y, B=600))
        _same(static, ckpt)

    def test_auto_engages_on_session(self, dataset):
        X, y = dataset
        with open_session("shm", 3) as ses:
            pmaxT(X, y, B=400, session=ses)  # schedule defaults to auto
            stats = ses.stats()
        assert stats["steal_jobs"] == 1

    def test_default_block_size(self):
        assert DEFAULT_STEAL_BLOCK == 256


# -- fault granularity: kill one rank mid-steal -----------------------------


def _survivor_state(comm):
    cache = resident_cache()
    ws = None if cache is None else cache.get("kernel_workspace")
    return (comm.rank, os.getpid(), None if ws is None else id(ws))


class TestSingleRankRespawn:
    def test_kill_mid_job_keeps_survivors_warm(self, dataset, monkeypatch):
        X, y = dataset
        serial = pmaxT(X, y, B=2000)
        # Throttle every rank, so the env var must be set before the pool
        # forks: 2 ms per permutation makes the 2000-permutation job last
        # at least 1 s on 4 ranks, whatever the kernel's speed.
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "*:0.002")
        with open_session("shm", 4) as ses:
            handle = ses.publish(X, labels=y)
            # Warm the pool (and the resident workspaces).
            warm = pmaxT(handle, B=400, session=ses, steal_block=100)
            _same(warm, pmaxT(X, y, B=400))
            pids_before = ses.worker_pids()
            state_before = {r: (pid, ws) for r, pid, ws
                            in ses.run(_survivor_state)[1:]}

            # The master's ledger grants the initial runs when the job
            # starts; the kill lands shortly after, inside the victim's
            # first 0.2 s block.
            started = threading.Event()
            grant = BlockLedger.grant

            def observed_grant(ledger, bid, rank):
                started.set()
                return grant(ledger, bid, rank)

            monkeypatch.setattr(BlockLedger, "grant", observed_grant)
            out: dict = {}

            def run_job():
                try:
                    out["res"] = pmaxT(handle, B=2000, session=ses,
                                       steal_block=100)
                except Exception as exc:  # pragma: no cover - surfaced below
                    out["err"] = exc

            worker = threading.Thread(target=run_job)
            worker.start()
            assert started.wait(30), "the job never started"
            time.sleep(0.05)
            victim = pids_before[1]  # rank 2
            os.kill(victim, signal.SIGKILL)
            worker.join()
            # The respawned rank forks unthrottled.
            monkeypatch.delenv("REPRO_STEAL_TEST_DELAY")
            assert "res" in out, f"kill job failed: {out.get('err')!r}"
            # The casualty cost the job nothing: same bits.
            _same(out["res"], serial)

            # The next dispatch respawns exactly the dead rank; the
            # published segment still serves (handle-addressed job runs).
            again = pmaxT(handle, B=2000, session=ses, steal_block=100)
            _same(again, serial)
            pids_after = ses.worker_pids()
            state_after = {r: (pid, ws) for r, pid, ws
                           in ses.run(_survivor_state)[1:]}
            stats = ses.stats()

        assert pids_after[0] == pids_before[0]
        assert pids_after[2] == pids_before[2]
        assert pids_after[1] != victim
        # Survivors kept their processes AND their resident workspaces.
        for rank in (1, 3):
            assert state_after[rank] == state_before[rank]
        assert state_after[2][0] != state_before[2][0]
        assert stats["spawns"] == 1, "full pool respawn defeats the point"
        assert stats["rank_respawns"] == 1
