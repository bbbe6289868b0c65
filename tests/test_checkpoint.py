"""Tests for ledger checkpointing and restart (future-work item 1).

Faults are injected by patching ``repro.core.pmaxt.run_kernel``: the
master checkpoints the block ledger (covered ranges plus summed counts),
so a re-run resumes from it — at any rank count — bit-identically.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import mt_maxT, pmaxT
from repro.core import pmaxt as pmaxt_module
from repro.core.checkpoint import CheckpointStore
from repro.core.kernel import KernelCounts
from repro.core.options import validate_options
from repro.data import synthetic_expression, two_class_labels
from repro.errors import DataError
from repro.mpi import run_spmd
from repro.permute import DEFAULT_SEED

B = 400
_RUN_KERNEL = pmaxt_module.run_kernel


@pytest.fixture()
def problem():
    X, _ = synthetic_expression(25, 12, n_class1=6, seed=91)
    return X, two_class_labels(6, 6)


def _same(a, b):
    np.testing.assert_array_equal(a.rawp, b.rawp)
    np.testing.assert_array_equal(a.adjp, b.adjp)
    assert a.nperm == b.nperm


class _Kernel:
    """``run_kernel`` stand-in: counts permutations, optionally crashes.

    ``fail_after`` raises once the permutations handed to successful calls
    would pass that many; ``fail_on_call`` raises on that call number.
    Thread-safe, for the in-process multi-rank worlds.
    """

    def __init__(self, fail_after=None, fail_on_call=None):
        self.fail_after = fail_after
        self.fail_on_call = fail_on_call
        self.calls = 0
        self.perms = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        count = kwargs["count"]
        with self._lock:
            self.calls += 1
            if self.calls == self.fail_on_call or (
                    self.fail_after is not None
                    and self.perms + count > self.fail_after):
                raise RuntimeError("injected failure")
            self.perms += count
        return _RUN_KERNEL(*args, **kwargs)


def _install(monkeypatch, **crash):
    kernel = _Kernel(**crash)
    monkeypatch.setattr(pmaxt_module, "run_kernel", kernel)
    return kernel


class TestGoldenFingerprints:
    """Pin the digests to literal values across library versions.

    These digests address on-disk state (checkpoints, cache entries); a
    change silently strands every existing entry — exactly what happened
    to float32 checkpoints once before.  The inputs are deterministic
    ``arange``-based arrays, independent of any data generator.  If one
    of these asserts fails, the fingerprint function changed: either
    revert the change or ship a cache-format version bump with it.
    """

    X = (np.arange(60, dtype=np.float64).reshape(6, 10) * 0.5 - 7.25)
    y = np.array([0, 0, 0, 1, 1, 1, 0, 1, 0, 1], dtype=np.int64)
    OPTS = dict(test="t", side="abs", fixed_seed_sampling="y", B=512,
                na=-93074815.0, nonpara="n", seed=12345, chunk_size=64,
                complete_limit=0)

    def test_dataset_fingerprint(self):
        from repro.core.checkpoint import dataset_fingerprint

        assert dataset_fingerprint(self.X, self.y) == (
            "ae20b5ec3a752e216332896612a75cab91cb8e723f2f6b1cd2a6aca4fbd3095f")
        assert dataset_fingerprint(self.X) == (
            "eb6fc040a847ee66003d7bd603456e857ab3538c8fd5ce4e630ad9105c856d18")

    def test_dataset_fingerprint_dtype_canonical(self):
        # The dataset fingerprint is float64-canonical: a float32 view of
        # exactly-representable data shares the digest (dtype is keyed in
        # the result-cache key instead).
        from repro.core.checkpoint import dataset_fingerprint

        X32 = np.ascontiguousarray(self.X, dtype=np.float32)
        assert dataset_fingerprint(X32, self.y) == \
            dataset_fingerprint(self.X, self.y)

    def test_result_cache_key(self):
        from repro.core.checkpoint import dataset_fingerprint, result_cache_key

        fp = dataset_fingerprint(self.X, self.y)
        o64 = validate_options(self.y, dtype="float64", **self.OPTS)
        o32 = validate_options(self.y, dtype="float32", **self.OPTS)
        assert result_cache_key(fp, o64) == (
            "664b98b083387c7ec3c06b206947b2e0909fc9d22645c7c8be3f24e406ab745b")
        assert result_cache_key(fp, o32) == (
            "c649edeefcdb8573d555d616c0149154812a41996216082dd148806811594137")


class TestStore:
    COUNTS = KernelCounts(raw=np.arange(25), adjusted=np.arange(25) * 2,
                          nperm=7)

    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, key="k")
        store.save([(0, 4), (10, 13)], self.COUNTS)
        state = store.load()
        assert state.covered == [(0, 4), (10, 13)]
        np.testing.assert_array_equal(state.counts.raw, self.COUNTS.raw)
        np.testing.assert_array_equal(state.counts.adjusted,
                                      self.COUNTS.adjusted)
        assert state.counts.nperm == 7
        assert store.saves == 1

    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path, key="k").load() is None

    def test_wrong_key_refused(self, tmp_path):
        CheckpointStore(tmp_path, key="k").save([(0, 7)], self.COUNTS)
        with pytest.raises(DataError, match="different problem"):
            CheckpointStore(tmp_path, key="other").load()

    def test_inconsistent_checkpoint_refused(self, tmp_path):
        store = CheckpointStore(tmp_path, key="k")
        store.save([(0, 5)], self.COUNTS)
        with pytest.raises(DataError, match="inconsistent"):
            store.load()

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path, key="k")
        store.save([(0, 7)], self.COUNTS)
        store.clear()
        assert store.load() is None
        store.clear()  # idempotent


class TestCrashResume:
    """One-rank crashes: checkpoint blocks are ``checkpoint_interval`` wide."""

    def test_uninterrupted_matches_plain(self, tmp_path, problem,
                                         monkeypatch):
        X, labels = problem
        saves = []
        real_save = CheckpointStore.save

        def counting_save(self, covered, counts):
            saves.append(list(covered))
            real_save(self, covered, counts)

        monkeypatch.setattr(CheckpointStore, "save", counting_save)
        res = pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                    checkpoint_interval=64)
        _same(res, mt_maxT(X, labels, B=B))
        assert len(saves) > 1  # actually checkpointed along the way
        assert saves[0] == [(0, 64)]

    @pytest.mark.parametrize("fail_after", [1, 63, 64, 150, 399])
    def test_crash_and_resume_identical(self, tmp_path, problem,
                                        monkeypatch, fail_after):
        """The headline property: crash anywhere, resume, same answer."""
        X, labels = problem
        _install(monkeypatch, fail_after=fail_after)
        with pytest.raises(RuntimeError, match="injected failure"):
            pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                  checkpoint_interval=64)
        # restart: resumes from the last whole interval, not from zero
        kernel = _install(monkeypatch)
        resumed = pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                        checkpoint_interval=64)
        _same(resumed, mt_maxT(X, labels, B=B))
        assert kernel.perms == B - (fail_after // 64) * 64
        assert not (tmp_path / "ledger.npz").exists()

    def test_double_crash_resume(self, tmp_path, problem, monkeypatch):
        X, labels = problem
        for fail_after in (100, 90):
            _install(monkeypatch, fail_after=fail_after)
            with pytest.raises(RuntimeError):
                pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                      checkpoint_interval=32)
        kernel = _install(monkeypatch)
        resumed = pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                        checkpoint_interval=32)
        _same(resumed, mt_maxT(X, labels, B=B))
        # 96 permutations survive the first crash, 64 more the second.
        assert kernel.perms == B - 160

    def test_bad_interval(self, tmp_path, problem):
        X, labels = problem
        with pytest.raises(DataError, match="interval"):
            pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                  checkpoint_interval=0)

    @pytest.mark.parametrize("change", ["data", "seed", "B"])
    def test_stale_checkpoint_refused(self, tmp_path, problem, monkeypatch,
                                      change):
        X, labels = problem
        _install(monkeypatch, fail_after=150)
        with pytest.raises(RuntimeError):
            pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                  checkpoint_interval=64)
        kwargs = dict(B=B, seed=DEFAULT_SEED)
        if change == "data":
            X = X.copy()
            X[0, 0] += 1e-9
        elif change == "seed":
            kwargs["seed"] = 999
        else:
            kwargs["B"] = B + 1
        with pytest.raises(DataError, match="different problem"):
            pmaxT(X, labels, checkpoint_dir=str(tmp_path),
                  checkpoint_interval=64, **kwargs)


class TestResumeAnyRankCount:
    """A checkpoint belongs to the analysis, not to the world that wrote it."""

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_crash_at_two_ranks_resume_at_any(self, tmp_path, problem,
                                              monkeypatch, ranks):
        X, labels = problem
        serial = mt_maxT(X, labels, B=B)
        # Throttle the worker so the master's own blocks (checkpointed
        # as they finish) make up the first calls.
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "1:0.005")
        _install(monkeypatch, fail_on_call=5)
        with pytest.raises(RuntimeError, match="injected failure"):
            pmaxT(X, labels, B=B, backend="threads", ranks=2,
                  checkpoint_dir=str(tmp_path), checkpoint_interval=40)
        monkeypatch.delenv("REPRO_STEAL_TEST_DELAY")
        assert (tmp_path / "ledger.npz").exists()
        kernel = _install(monkeypatch)
        resumed = pmaxT(X, labels, B=B, backend="threads", ranks=ranks,
                        checkpoint_dir=str(tmp_path), checkpoint_interval=40)
        _same(resumed, serial)
        assert 0 < kernel.perms < B
        assert not (tmp_path / "ledger.npz").exists()

    def test_resume_under_another_schedule(self, tmp_path, problem,
                                           monkeypatch):
        X, labels = problem
        _install(monkeypatch, fail_after=150)
        with pytest.raises(RuntimeError):
            pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                  checkpoint_interval=64)
        kernel = _install(monkeypatch)
        resumed = pmaxT(X, labels, B=B, backend="threads", ranks=3,
                        schedule="static", checkpoint_dir=str(tmp_path),
                        checkpoint_interval=64)
        _same(resumed, mt_maxT(X, labels, B=B))
        assert kernel.perms == B - 128


_MASTER_SCRIPT = """
from repro import pmaxT
from repro.data import synthetic_expression, two_class_labels
X, _ = synthetic_expression(25, 12, n_class1=6, seed=91)
pmaxT(X, two_class_labels(6, 6), B={B}, backend="threads", ranks=2,
      checkpoint_dir={directory!r}, checkpoint_interval=50)
"""


class TestMasterDeath:
    """SIGKILL the whole process (rank 0 included) mid-job, then resume."""

    def test_killed_master_resumes_bit_identical(self, tmp_path, problem,
                                                 monkeypatch):
        X, labels = problem
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]),
                   REPRO_STEAL_TEST_DELAY="*:0.005")
        ledger = tmp_path / "ledger.npz"
        proc = subprocess.Popen(
            [sys.executable, "-c",
             _MASTER_SCRIPT.format(B=B, directory=str(tmp_path))],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not ledger.exists():
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "no checkpoint written"
                time.sleep(0.005)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=60)
            proc.stderr.close()
        assert proc.returncode == -signal.SIGKILL
        uninterrupted = pmaxT(X, labels, B=B)
        kernel = _install(monkeypatch)
        resumed = pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                        checkpoint_interval=50)
        _same(resumed, uninterrupted)
        assert kernel.perms < B


class TestPmaxTIntegration:
    def test_checkpointed_run_matches_plain(self, tmp_path):
        X, _ = synthetic_expression(30, 12, n_class1=6, seed=92)
        labels = two_class_labels(6, 6)
        plain = mt_maxT(X, labels, B=200, seed=21)
        res = pmaxT(X, labels, B=200, seed=21,
                    checkpoint_dir=str(tmp_path), checkpoint_interval=50)
        np.testing.assert_array_equal(plain.rawp, res.rawp)
        np.testing.assert_array_equal(plain.adjp, res.adjp)
        # successful run clears its checkpoint
        assert not any(tmp_path.glob("*.npz"))

    def test_parallel_checkpointed_matches_serial(self, tmp_path):
        X, _ = synthetic_expression(30, 12, n_class1=6, seed=93)
        labels = two_class_labels(6, 6)
        serial = mt_maxT(X, labels, B=150, seed=22)

        def job(comm):
            return pmaxT(X, labels, B=150, seed=22, comm=comm,
                         checkpoint_dir=str(tmp_path),
                         checkpoint_interval=40)

        parallel = run_spmd(job, 3)[0]
        np.testing.assert_array_equal(serial.rawp, parallel.rawp)
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)
