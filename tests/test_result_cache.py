"""Content-addressed result cache: hits, incremental-B extension, keys.

The headline claims pinned here:

* an exact repeat of an analysis is a pure cache hit — bit-identical
  result, no kernel work (``jobs_run`` does not move under a session);
* a larger-``B`` request reuses the cached counts and computes only
  ``[B_old, B_new)``, bit-identical to a cold run at ``B_new`` — on the
  serial path, across backends, in float32, and in stored-permutation
  mode;
* the cache key separates every option that changes the answer and
  shares across ones that don't (``B`` is an extension axis, not a key).
"""

import hashlib

import numpy as np
import pytest

from repro.core.checkpoint import (
    ResultCache,
    dataset_fingerprint,
    result_cache_key,
)
from repro.core.options import validate_options
from repro.core.pmaxt import pmaxT
from repro.mpi import open_session


@pytest.fixture
def dataset():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(50, 12))
    labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)
    return X, labels


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _same(a, b):
    assert np.array_equal(a.teststat, b.teststat, equal_nan=True)
    assert np.array_equal(a.rawp, b.rawp, equal_nan=True)
    assert np.array_equal(a.adjp, b.adjp, equal_nan=True)
    assert np.array_equal(a.order, b.order)
    assert a.nperm == b.nperm


class TestExactHit:
    def test_hit_is_bit_identical(self, dataset, cache):
        X, y = dataset
        cold = pmaxT(X, y, B=200, seed=7)
        first = pmaxT(X, y, B=200, seed=7, cache=cache)
        hit = pmaxT(X, y, B=200, seed=7, cache=cache)
        _same(first, cold)
        _same(hit, cold)
        assert (cache.hits, cache.misses, cache.extensions) == (1, 1, 0)

    def test_hit_dispatches_no_job(self, dataset, cache):
        X, y = dataset
        with open_session("threads", 2) as ses:
            h = ses.publish(X, labels=y)
            pmaxT(h, B=150, seed=2, session=ses, cache=cache)
            jobs = ses.jobs_run
            out = pmaxT(h, B=150, seed=2, session=ses, cache=cache)
            assert ses.jobs_run == jobs  # answered from disk
        _same(out, pmaxT(X, y, B=150, seed=2))

    def test_cache_dir_parameter(self, dataset, tmp_path):
        X, y = dataset
        d = str(tmp_path / "c2")
        pmaxT(X, y, B=100, seed=1, cache_dir=d)
        out = pmaxT(X, y, B=100, seed=1, cache_dir=d)
        _same(out, pmaxT(X, y, B=100, seed=1))

    def test_session_cache_dir(self, dataset, tmp_path):
        X, y = dataset
        with open_session("threads", 2,
                          cache_dir=str(tmp_path / "c3")) as ses:
            pmaxT(X, y, B=100, seed=1, session=ses)
            out = pmaxT(X, y, B=100, seed=1, session=ses)
            stats = ses.stats()
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 1
        _same(out, pmaxT(X, y, B=100, seed=1))

    def test_complete_enumeration_hit(self, cache):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 8))
        y = np.array([0] * 4 + [1] * 4)
        cold = pmaxT(X, y, B=0)
        assert cold.complete
        pmaxT(X, y, B=0, cache=cache)
        hit = pmaxT(X, y, B=0, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        _same(hit, cold)


class TestIncrementalB:
    def test_extension_matches_cold_run(self, dataset, cache):
        # Bs stay below C(12,6)=924 so random sampling (not complete
        # enumeration) is in effect on every call.
        X, y = dataset
        pmaxT(X, y, B=400, seed=7, cache=cache)
        ext = pmaxT(X, y, B=800, seed=7, cache=cache)
        cold = pmaxT(X, y, B=800, seed=7)
        _same(ext, cold)
        assert cache.extensions == 1
        # the extended entry now serves exact hits
        hit = pmaxT(X, y, B=800, seed=7, cache=cache)
        _same(hit, cold)
        assert cache.hits == 1

    @pytest.mark.parametrize("backend,ranks", [("threads", 3), ("shm", 2)])
    def test_extension_parallel(self, dataset, cache, backend, ranks):
        X, y = dataset
        cold = pmaxT(X, y, B=600, seed=9)
        with open_session(backend, ranks) as ses:
            h = ses.publish(X, labels=y)
            pmaxT(h, B=250, seed=9, session=ses, cache=cache)
            ext = pmaxT(h, B=600, seed=9, session=ses, cache=cache)
        _same(ext, cold)
        assert cache.extensions == 1

    def test_extension_float32(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=300, seed=5, dtype="float32", cache=cache)
        ext = pmaxT(X, y, B=700, seed=5, dtype="float32", cache=cache)
        _same(ext, pmaxT(X, y, B=700, seed=5, dtype="float32"))

    def test_extension_stored_mode(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=200, seed=5, fixed_seed_sampling="n", cache=cache)
        ext = pmaxT(X, y, B=500, seed=5, fixed_seed_sampling="n",
                    cache=cache)
        _same(ext, pmaxT(X, y, B=500, seed=5, fixed_seed_sampling="n"))
        assert cache.extensions == 1

    def test_chained_extensions(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=150, seed=7, cache=cache)
        pmaxT(X, y, B=400, seed=7, cache=cache)
        out = pmaxT(X, y, B=800, seed=7, cache=cache)
        _same(out, pmaxT(X, y, B=800, seed=7))
        assert cache.extensions == 2

    def test_smaller_b_is_not_served_from_larger(self, dataset, cache):
        # A B=500 entry must not answer a B=200 request (the adjusted
        # counts are not a prefix in significance space) — it's a miss.
        X, y = dataset
        pmaxT(X, y, B=500, seed=7, cache=cache)
        out = pmaxT(X, y, B=200, seed=7, cache=cache)
        _same(out, pmaxT(X, y, B=200, seed=7))
        assert cache.misses == 2


class TestKeying:
    def test_key_separates_answer_changing_options(self, dataset):
        X, y = dataset
        fp = dataset_fingerprint(X, np.asarray(y, dtype=np.int64))
        base = dict(test="t", side="abs", fixed_seed_sampling="y", B=500,
                    na=-93074815.0, nonpara="n", seed=1, chunk_size=128,
                    complete_limit=0, dtype="float64")
        key = result_cache_key(fp, validate_options(y, **base))
        for change in (dict(test="wilcoxon"), dict(side="upper"),
                       dict(seed=2), dict(dtype="float32"),
                       dict(fixed_seed_sampling="n"), dict(nonpara="y")):
            other = result_cache_key(
                fp, validate_options(y, **{**base, **change}))
            assert other != key, change
        # non-answer-changing knobs share the key: B (extension axis)
        # and chunk_size (pure blocking detail)
        for change in (dict(B=900), dict(chunk_size=64)):
            other = result_cache_key(
                fp, validate_options(y, **{**base, **change}))
            assert other == key, change

    def test_different_data_different_key(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=200, seed=7, cache=cache)
        out = pmaxT(X * 1.5, y, B=200, seed=7, cache=cache)
        _same(out, pmaxT(X * 1.5, y, B=200, seed=7))
        assert (cache.hits, cache.misses) == (0, 2)

    def test_published_fingerprint_matches_raw(self, dataset):
        X, y = dataset
        from repro.mpi.datasets import DatasetRegistry

        registry = DatasetRegistry(use_shm=False)
        h = registry.publish(X, labels=y)
        assert h.fingerprint == dataset_fingerprint(
            np.ascontiguousarray(X), np.asarray(y, dtype=np.int64))
        registry.close()


class TestFormatVersion:
    def test_v1_entry_is_neither_extended_nor_served(self, dataset,
                                                     tmp_path):
        """Entries keyed before the observed-statistic bits moved (v1).

        Their ``teststat`` may differ from this version's in the last bit,
        so requests for B and 2B must both run cold.
        """
        X, y = dataset
        options = validate_options(y, B=200, seed=7)
        payload = (
            "maxt-cache-v1", dataset_fingerprint(X, y), options.test,
            options.side, options.fixed_seed_sampling, options.na,
            options.nonpara, options.seed, options.dtype, options.complete,
            options.store,
        )
        v1_key = hashlib.sha256(repr(payload).encode()).hexdigest()
        old = pmaxT(X, y, B=200, seed=7)
        stale = np.nextafter(old.teststat, np.inf)
        cache = ResultCache(tmp_path / "cache")
        cache.save(v1_key, 200, stale, old.counts, {"nranks": 1})
        cache_dir = str(tmp_path / "cache")
        _same(pmaxT(X, y, B=400, seed=7, cache_dir=cache_dir),
              pmaxT(X, y, B=400, seed=7))
        _same(pmaxT(X, y, B=200, seed=7, cache_dir=cache_dir), old)


class TestStore:
    def test_entries_and_clear(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=100, seed=1, cache=cache)
        pmaxT(X, y, B=100, seed=2, cache=cache)
        entries = cache.entries()
        assert len(entries) == 2
        assert {e.nperm for e in entries} == {100}
        assert all(e.meta["test"] == "t" for e in entries)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_stats_dict(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=100, seed=1, cache=cache)
        pmaxT(X, y, B=100, seed=1, cache=cache)
        pmaxT(X, y, B=300, seed=1, cache=cache)
        stats = cache.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_extended"] == 1

    def test_comm_path_bypasses_cache(self, dataset, cache):
        # Raw SPMD worlds can't orchestrate lookups; the cache is
        # silently bypassed rather than half-applied.
        from repro.mpi import SerialComm

        X, y = dataset
        out = pmaxT(X, y, B=100, seed=1, comm=SerialComm(), cache=cache)
        _same(out, pmaxT(X, y, B=100, seed=1))
        assert (cache.hits, cache.misses, cache.extensions) == (0, 0, 0)


class TestDirectoryLock:
    """clear() vs concurrent readers (ROADMAP cache follow-up b)."""

    def test_clear_waits_for_reader(self, dataset, cache):
        # Hold the shared lock the way a reader does (own descriptor,
        # LOCK_SH) and check clear() blocks until it is released.
        import threading
        import time as time_mod

        fcntl = pytest.importorskip("fcntl")
        X, y = dataset
        pmaxT(X, y, B=100, seed=1, cache=cache)
        cleared = threading.Event()

        with open(cache.directory / ".cache.lock", "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            t = threading.Thread(
                target=lambda: (cache.clear(), cleared.set()))
            t.start()
            time_mod.sleep(0.2)
            # the reader's shared lock is still held: clear() must wait
            assert not cleared.is_set()
            assert len(cache.entries()) == 1  # shared locks coexist
            fcntl.flock(fh, fcntl.LOCK_UN)
        t.join(timeout=10)
        assert cleared.is_set()
        assert cache.entries() == []

    def test_reader_never_sees_half_cleared_directory(self, dataset,
                                                      cache):
        # Stress: lookups racing clear() must return a full entry or a
        # clean miss — never crash on a file unlinked mid-read.
        import threading

        from repro.core.options import validate_options as _vo

        X, y = dataset
        first = pmaxT(X, y, B=100, seed=1, cache=cache)
        fp = dataset_fingerprint(X, np.asarray(y, dtype=np.int64))
        key = result_cache_key(fp, _vo(y, B=100, seed=1))
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    entry = cache.lookup(key, 100)
                    if entry is not None:
                        assert entry.nperm == 100
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(20):
            cache.clear()
            cache.save(key, 100, first.teststat, first.counts,
                       {"test": "t"})
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == []


class TestEviction:
    """max_bytes / max_age limits and the LRU sweep (ROADMAP follow-up)."""

    def test_sweep_without_limits_is_noop(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=100, seed=1, cache=cache)
        assert cache.sweep() == 0
        assert len(cache.entries()) == 1

    def test_age_sweep_drops_stale_entries(self, dataset, cache):
        import os
        import time as time_mod

        X, y = dataset
        pmaxT(X, y, B=100, seed=1, cache=cache)
        pmaxT(X, y, B=100, seed=2, cache=cache)
        stale = sorted(cache.directory.glob("*.npz"))[0]
        old = time_mod.time() - 3_600
        os.utime(stale, (old, old))
        assert cache.sweep(max_age=60) == 1
        assert not stale.exists()
        assert len(cache.entries()) == 1
        assert cache.evictions == 1

    def test_byte_sweep_is_least_recently_used(self, dataset, cache):
        import os
        import time as time_mod

        X, y = dataset
        runs = [pmaxT(X, y, B=100, seed=s, cache=cache) for s in (1, 2, 3)]
        paths = sorted(cache.directory.glob("*.npz"),
                       key=lambda p: p.stat().st_mtime)
        # Backdate all three, then *use* the oldest-written entry: the
        # lookup touch must promote it past the byte-budget sweep.
        for i, path in enumerate(paths):
            old = time_mod.time() - 1_000 + i
            os.utime(path, (old, old))
        used = pmaxT(X, y, B=100, seed=1, cache=cache)
        _same(used, runs[0])
        keep = paths[0].stat().st_size
        removed = cache.sweep(max_bytes=keep)
        assert removed == 2
        survivors = list(cache.directory.glob("*.npz"))
        assert survivors == [paths[0]]
        # ... and the survivor still answers.
        again = pmaxT(X, y, B=100, seed=1, cache=cache)
        _same(again, runs[0])

    def test_constructed_limits_auto_sweep_on_save(self, dataset, tmp_path):
        X, y = dataset
        first = pmaxT(X, y, B=100, seed=1,
                      cache=ResultCache(tmp_path / "c"))
        size = next((tmp_path / "c").glob("*.npz")).stat().st_size
        capped = ResultCache(tmp_path / "c", max_bytes=int(size * 1.5))
        pmaxT(X, y, B=100, seed=2, cache=capped)  # save + auto-sweep
        assert capped.evictions == 1
        assert len(capped.entries()) == 1
        assert capped.stats()["cache_evictions"] == 1
        del first

    def test_bad_limits_rejected(self, tmp_path):
        from repro.errors import DataError

        with pytest.raises(DataError, match="max_bytes"):
            ResultCache(tmp_path / "c", max_bytes=0)
        with pytest.raises(DataError, match="max_age"):
            ResultCache(tmp_path / "c", max_age=-1.0)

    def test_session_sweeps_cache_on_close(self, dataset, tmp_path):
        import os
        import time as time_mod

        X, y = dataset
        with open_session("threads", 2, cache_dir=str(tmp_path / "c"),
                          cache_max_age=60.0) as ses:
            pmaxT(X, y, B=100, seed=1, session=ses)
            entry = next((tmp_path / "c").glob("*.npz"))
            old = time_mod.time() - 3_600
            os.utime(entry, (old, old))
        assert not entry.exists()

    def test_session_limits_require_cache_dir(self):
        from repro.errors import OptionError

        with pytest.raises(OptionError, match="cache_dir"):
            open_session("threads", 2, cache_max_bytes=1024)


class TestArrayEntries:
    """Generic npz entries (the pcor result family)."""

    def test_roundtrip_bit_identical(self, cache):
        rng = np.random.default_rng(0)
        cor = rng.normal(size=(12, 12))
        cache.save_array("pcor", "k" * 8, {"cor": cor})
        entry = cache.lookup_array("pcor", "k" * 8)
        assert np.array_equal(entry["cor"], cor)

    def test_miss_returns_none(self, cache):
        assert cache.lookup_array("pcor", "missing") is None

    def test_clear_covers_array_entries(self, dataset, cache):
        X, y = dataset
        pmaxT(X, y, B=100, seed=1, cache=cache)
        cache.save_array("pcor", "k" * 8, {"cor": np.eye(3)})
        assert cache.clear() == 2
        assert cache.lookup_array("pcor", "k" * 8) is None


class TestPcorCache:
    """pcor through the same content-addressed cache (satellite)."""

    def test_hit_is_bit_identical(self, dataset, cache):
        from repro.corr import cor, pcor

        X, _ = dataset
        direct = cor(X)
        first = pcor(X, cache=cache)
        hit = pcor(X, cache=cache)
        assert np.array_equal(first, direct, equal_nan=True)
        assert np.array_equal(hit, direct, equal_nan=True)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_na_policy_separates_keys(self, dataset, cache):
        from repro.corr import pcor

        X, _ = dataset
        pcor(X, cache=cache)
        pcor(X, use="pairwise", na=-1.0, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_two_matrix_form_keys_on_both(self, dataset, cache):
        from repro.corr import pcor

        X, _ = dataset
        Y = X[:5]
        a = pcor(X, Y, cache=cache)
        b = pcor(X, Y, cache=cache)
        assert np.array_equal(a, b, equal_nan=True)
        assert (cache.hits, cache.misses) == (1, 1)
        pcor(X, X[:4], cache=cache)
        assert cache.misses == 2

    def test_lookup_cached_pcor_short_circuit(self, dataset, cache):
        from repro.corr import cor
        from repro.corr.parallel import lookup_cached_pcor, pcor

        X, _ = dataset
        assert lookup_cached_pcor(cache, X) is None
        pcor(X, cache=cache)
        answer = lookup_cached_pcor(cache, X)
        assert np.array_equal(answer, cor(X), equal_nan=True)

    def test_published_handle_shares_raw_array_entry(self, dataset,
                                                     tmp_path):
        from repro.corr import cor, pcor

        X, _ = dataset
        with open_session("shm", 2, cache_dir=str(tmp_path / "c")) as ses:
            handle = ses.publish(X)
            via_handle = pcor(handle, session=ses)
            assert ses.cache.misses == 1
            # The handle's fingerprint equals the raw array's, so the
            # entry answers a plain-array call against the same bytes.
            fresh = ResultCache(tmp_path / "c")
            via_array = pcor(X, cache=fresh)
            assert fresh.hits == 1
        assert np.array_equal(via_handle, cor(X), equal_nan=True)
        assert np.array_equal(via_array, via_handle)

    def test_comm_path_bypasses_cache(self, dataset, cache):
        from repro.corr import pcor
        from repro.mpi import SerialComm

        X, _ = dataset
        out = pcor(X, comm=SerialComm(), cache=cache)
        assert np.array_equal(out, pcor(X), equal_nan=True)
        assert (cache.hits, cache.misses) == (0, 0)
