"""Publish-once dataset registry: correctness, lifecycle, and the wire.

Pins the tentpole claims of the registry layer:

* ``pmaxT``/``pcor`` over a published handle are bit-identical to the
  plain-matrix calls on every backend and launch path;
* publishing is a snapshot (later caller mutation changes nothing);
* a warm published call moves **no matrix bytes** (wire-byte counter);
* segments never outlive ``close()``/GC and survive a pool respawn;
* inert (pickled) and closed handles fail loudly.
"""

import glob
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.pmaxt import pmaxT
from repro.corr import pcor
from repro.errors import DataError
from repro.mpi import open_session
from repro.mpi.datasets import DatasetRegistry, attach_published_view


@pytest.fixture
def dataset():
    rng = np.random.default_rng(20260807)
    X = rng.normal(size=(60, 16))
    labels = np.array([0] * 8 + [1] * 8, dtype=np.int64)
    return X, labels


def _wait_pids_dead(pids, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            return True
        time.sleep(0.05)
    return False


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


class TestPublish:
    def test_handle_metadata(self, dataset):
        X, labels = dataset
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        assert h.shape == X.shape
        assert h.nbytes == X.nbytes
        assert len(h.fingerprint) == 64
        assert np.array_equal(h.labels, labels)
        assert not h.closed
        assert len(registry) == 1
        assert registry.publishes == 1
        assert registry.bytes_resident() == X.nbytes
        registry.close()
        assert h.closed

    def test_publish_is_a_snapshot(self, dataset):
        X, labels = dataset
        X = X.copy()
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        ref = pmaxT(h, B=100, seed=5)
        fp = h.fingerprint
        X[:] = 0.0  # caller mutates after publishing
        again = pmaxT(h, B=100, seed=5)
        assert np.array_equal(again.adjp, ref.adjp, equal_nan=True)
        assert h.fingerprint == fp
        # and the caller's array was never frozen by the registry
        assert X.flags.writeable
        registry.close()

    def test_non_2d_rejected(self):
        registry = DatasetRegistry(use_shm=False)
        with pytest.raises(DataError, match="2-D"):
            registry.publish(np.arange(5.0))

    def test_pickled_handle_is_inert(self, dataset):
        X, labels = dataset
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        clone = pickle.loads(pickle.dumps(h))
        assert clone.fingerprint == h.fingerprint
        assert np.array_equal(clone.labels, labels)
        with pytest.raises(DataError, match="inert"):
            clone.resolve()
        registry.close()

    def test_closed_handle_raises(self, dataset):
        X, labels = dataset
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        registry.unpublish(h)
        with pytest.raises(DataError, match="closed"):
            h.resolve()
        h.close()  # idempotent
        registry.close()


class TestBitIdentity:
    @pytest.mark.parametrize("backend,ranks", [
        ("serial", 1), ("threads", 3), ("processes", 2), ("shm", 3),
    ])
    def test_pmaxt_handle_matches_matrix(self, dataset, backend, ranks):
        X, labels = dataset
        ref = pmaxT(X, labels, B=150, seed=3)
        with open_session(backend, ranks) as ses:
            h = ses.publish(X, labels=labels)
            out = pmaxT(h, B=150, seed=3, session=ses)
            assert np.array_equal(out.teststat, ref.teststat, equal_nan=True)
            assert np.array_equal(out.rawp, ref.rawp, equal_nan=True)
            assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)
            # labels default from the handle == explicit labels
            out2 = pmaxT(h, labels, B=150, seed=3, session=ses)
            assert np.array_equal(out2.adjp, ref.adjp, equal_nan=True)

    def test_pmaxt_handle_float32(self, dataset):
        X, labels = dataset
        ref = pmaxT(X, labels, B=150, seed=3, dtype="float32")
        with open_session("shm", 3) as ses:
            h = ses.publish(X, labels=labels)
            out = pmaxT(h, B=150, seed=3, dtype="float32", session=ses)
            assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)

    def test_pcor_handle_matches_matrix(self, dataset):
        X, _ = dataset
        ref = pcor(X)
        for backend, ranks in [("threads", 2), ("shm", 3)]:
            with open_session(backend, ranks) as ses:
                h = ses.publish(X)
                assert np.array_equal(pcor(h, session=ses), ref)

    def test_repeated_warm_calls(self, dataset):
        X, labels = dataset
        ref = pmaxT(X, labels, B=120, seed=11)
        with open_session("shm", 2) as ses:
            h = ses.publish(X, labels=labels)
            for _ in range(3):
                out = pmaxT(h, B=120, seed=11, session=ses)
                assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)


class TestPublishedBytesUntouched:
    """The kernel reorders its statistic's operand rows in place; those
    are private copies, so a published segment must never be permuted."""

    @pytest.mark.parametrize("backend,ranks,schedule", [
        ("shm", 2, "static"), ("shm", 2, "steal"), ("threads", 2, "static"),
    ])
    def test_segment_bytes_unchanged_after_jobs(self, dataset, backend,
                                                ranks, schedule):
        X, labels = dataset
        X = np.vstack([X, X[::-1] * 3.0])        # 120 rows, unsorted scores
        with open_session(backend, ranks) as ses:
            h = ses.publish(X, labels=labels)
            pmaxT(h, B=90, seed=2, session=ses, schedule=schedule)
            pmaxT(h, B=90, seed=2, session=ses, nonpara="y")
            record = h._live_record()
            before = {key: view.tobytes()
                      for key, (_, view) in record._variants.items()}
            assert len(before) == 2               # base + pre-ranked
            for side in ("abs", "upper", "lower"):
                pmaxT(h, B=90, seed=4, side=side, session=ses,
                      schedule=schedule)
                pmaxT(h, B=90, seed=4, side=side, session=ses,
                      nonpara="y")
            after = {key: view.tobytes()
                     for key, (_, view) in record._variants.items()}
            assert after == before
            assert np.array_equal(h.base_data(), X)


class TestNoBroadcast:
    def test_published_warm_call_moves_no_matrix_bytes(self, dataset):
        X, labels = dataset
        X = np.tile(X, (8, 4))  # 480 x 64
        labels = np.tile(labels, 4)
        with open_session("shm", 3) as ses:
            h = ses.publish(X, labels=labels)
            pmaxT(h, B=60, seed=1, session=ses)  # warm the pool
            before = ses._master_comm.array_bytes
            pmaxT(h, B=60, seed=1, session=ses)
            delta = ses._master_comm.array_bytes - before
            # Only the labels (and reductions are master-bound, not
            # counted) cross the wire; the matrix never does.
            assert delta < X.nbytes // 10
            # Control: the plain-matrix call ships the matrix each time.
            before = ses._master_comm.array_bytes
            pmaxT(X, labels, B=60, seed=1, session=ses)
            assert ses._master_comm.array_bytes - before >= X.nbytes


class TestLifecycle:
    def test_session_close_unlinks_published_segments(self, dataset):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        X, labels = dataset
        before = set(glob.glob("/dev/shm/psm_*"))
        ses = open_session("shm", 3)
        h = ses.publish(X, labels=labels)
        pmaxT(h, B=60, seed=1, session=ses)
        pids = ses.worker_pids()
        ses.close()
        assert set(glob.glob("/dev/shm/psm_*")) <= before
        assert _wait_pids_dead(pids)
        with pytest.raises(DataError, match="closed"):
            h.resolve()

    def test_registry_gc_unlinks_segments(self, dataset):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        import gc

        X, labels = dataset
        before = set(glob.glob("/dev/shm/psm_*"))
        registry = DatasetRegistry(use_shm=True)
        registry.publish(X, labels=labels)
        assert len(set(glob.glob("/dev/shm/psm_*")) - before) >= 1
        del registry
        gc.collect()
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_unpublish_unlinks_only_that_dataset(self, dataset):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        X, labels = dataset
        registry = DatasetRegistry(use_shm=True)
        h1 = registry.publish(X, labels=labels)
        h2 = registry.publish(X * 2.0, labels=labels)
        registry.unpublish(h1)
        assert h1.closed and not h2.closed
        view, _ = h2.resolve()
        assert np.allclose(view, X * 2.0)
        registry.close()

    def test_segments_survive_pool_respawn(self, dataset):
        """A killed worker respawns the pool; published data stays valid
        (the respawned rank's empty resident cache simply re-maps)."""
        X, labels = dataset
        ref = pmaxT(X, labels, B=100, seed=7)
        with open_session("shm", 3) as ses:
            h = ses.publish(X, labels=labels)
            out = pmaxT(h, B=100, seed=7, session=ses)
            assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)
            victim = ses.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_pids_dead([victim])
            out = pmaxT(h, B=100, seed=7, session=ses)
            assert ses.spawns == 2
            assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)
        # close() after the respawn still reclaims everything
        if os.path.isdir("/dev/shm"):
            assert not any(
                seg for seg in glob.glob("/dev/shm/psm_*")
                if os.stat(seg).st_uid == os.getuid()
                and abs(os.stat(seg).st_size - X.nbytes) == 0)

    def test_attach_stale_route_raises(self):
        with pytest.raises(DataError, match="no longer exists"):
            attach_published_view(("psm_doesnotexist", (2, 2), "<f8"))


class TestNonparaVariants:
    """Published rank-transform variants back the nonpara wire."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nonpara_bit_identity(self, dataset, dtype):
        X, labels = dataset
        ref = pmaxT(X, labels, B=120, seed=3, nonpara="y", dtype=dtype)
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        out = pmaxT(h, B=120, seed=3, nonpara="y", dtype=dtype)
        assert np.array_equal(out.teststat, ref.teststat, equal_nan=True)
        assert np.array_equal(out.rawp, ref.rawp, equal_nan=True)
        assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)
        registry.close()

    def test_nonpara_session_bit_identity(self, dataset):
        X, labels = dataset
        ref = pmaxT(X, labels, B=120, seed=3, nonpara="y")
        with open_session("threads", 3) as ses:
            h = ses.publish(X, labels=labels)
            out = pmaxT(h, B=120, seed=3, nonpara="y", session=ses)
            assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)

    def test_rank_variant_materialises_once(self, dataset):
        X, labels = dataset
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        record = h._live_record()
        assert ("float64", None, True) not in record._variants
        view1, _ = h.resolve(rank=True)
        assert ("float64", None, True) in record._variants
        view2, _ = h.resolve(rank=True)
        assert view2 is view1
        assert not view1.flags.writeable
        registry.close()

    def test_wilcoxon_keeps_plain_wire(self, dataset):
        X, labels = dataset
        ref = pmaxT(X, labels, B=120, seed=3, test="wilcoxon", nonpara="y")
        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=labels)
        out = pmaxT(h, B=120, seed=3, test="wilcoxon", nonpara="y")
        assert np.array_equal(out.adjp, ref.adjp, equal_nan=True)
        # Wilcoxon ranks inside the statistic, so no rank variant is cut.
        assert not any(key[2] for key in h._live_record()._variants)
        registry.close()


class TestStats:
    def test_session_stats_and_repr(self, dataset):
        X, labels = dataset
        with open_session("shm", 2) as ses:
            h = ses.publish(X, labels=labels)
            pmaxT(h, B=60, seed=1, session=ses)
            stats = ses.stats()
            assert stats["publishes"] == 1
            assert stats["datasets"] == 1
            assert stats["published_bytes"] >= X.nbytes
            assert stats["bcast_array_bytes"] > 0
            assert "published=1" in repr(ses)
