"""Ledger checkpointing and the result cache (paper future-work item 1).

    "Better support for fault tolerance and checkpointing; whereas this is
    not available in the existing serial R implementation, this may be of
    increasing importance as life scientists wish to perform even more
    tests on ever larger datasets." — paper Section 6.

The maxT kernel state is tiny and additive — two integer count vectors plus
the number of permutations consumed — so checkpointing is cheap.  Every
``pmaxT`` run executes under the master's block ledger
(:mod:`repro.core.steal`), so the master alone checkpoints the whole world:
after merges it atomically rewrites one small ``ledger.npz`` holding the
permutation ranges covered so far and their summed counts, at least every
``checkpoint_interval`` permutations (:class:`CheckpointStore`).

A checkpoint is keyed by the analysis — :func:`result_cache_key` plus
``nperm`` — and never by the world that wrote it.  A re-run therefore
resumes at **any** rank count, schedule or block size: the covered ranges
become the new job's prior and only the gaps are carved into blocks.  A
checkpoint of a different problem is refused rather than blended into the
wrong counts.  Because permutation index ``k`` is reproducible in isolation
(fixed-seed and complete generators are random access; stream generators
re-forward), a resumed run is **bit-identical** to an uninterrupted one —
the same guarantee the parallel decomposition itself relies on.

The same additivity powers :class:`ResultCache`: completed count totals
keyed by dataset and analysis, extended to a larger ``B`` by a ledger whose
prior is the cached prefix.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no locking
    fcntl = None  # type: ignore[assignment]

import numpy as np

from ..errors import DataError
from .kernel import KernelCounts
from .options import MaxTOptions

__all__ = [
    "dataset_fingerprint",
    "result_cache_key",
    "CheckpointStore",
    "LedgerCheckpoint",
    "CachedResult",
    "ResultCache",
]


def _atomic_savez(path: Path, **arrays) -> None:
    """Write an ``.npz`` next to ``path`` and rename it into place.

    A crash mid-write can never leave a half-written file that a later
    load would trust.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _text(value: str) -> np.ndarray:
    return np.frombuffer(value.encode(), dtype=np.uint8)


def dataset_fingerprint(X: np.ndarray,
                        classlabel: np.ndarray | None = None) -> str:
    """Content digest of a dataset: the matrix bytes plus its labels.

    This is the ``dataset`` half of a result-cache key.  The matrix is
    always hashed in its canonical wire form (contiguous float64, NA
    codes raw), so a float32 compute run and a float64 run of the same
    input share one dataset fingerprint — the compute precision is keyed
    separately in :func:`result_cache_key`.  The digest is **frozen**:
    golden values are pinned by tests, because silently changing it
    orphans every cached result.
    """
    h = hashlib.sha256()
    data = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    h.update(repr(("dataset", data.shape)).encode())
    h.update(data.tobytes())
    if classlabel is None:
        h.update(b"|unlabelled")
    else:
        labels = np.ascontiguousarray(np.asarray(classlabel, dtype=np.int64))
        h.update(repr(("labels", labels.shape)).encode())
        h.update(labels.tobytes())
    return h.hexdigest()


def result_cache_key(dataset_fp: str, options: MaxTOptions) -> str:
    """Key of a cached pmaxT result family: dataset x analysis options.

    Covers every option that changes the permutation keystream or the
    statistics — but **not** the permutation count: entries of one key
    differing only in ``nperm`` are by construction prefixes of the same
    counter-based permutation sequence, which is what makes the
    incremental-B extension (compute only ``[B_old, B_new)``) sound.
    ``chunk_size`` and ``complete_limit`` are excluded deliberately:
    counts are chunking-invariant (pinned by the cross-backend tests)
    and the enumeration decision they influence is captured by
    ``complete``/``nperm``.  The version tag moves whenever the bits of
    the observed statistics do (v2: scored through a 2-column GEMM; v3:
    two-sample means and variances scaled by count reciprocals), so an
    older entry is never extended or served.
    """
    payload = (
        "maxt-cache-v3", dataset_fp, options.test, options.side,
        options.fixed_seed_sampling, options.na, options.nonpara,
        options.seed, options.dtype, options.complete, options.store,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclass
class LedgerCheckpoint:
    """What a ledger checkpoint holds: covered ranges and their counts."""

    covered: list[tuple[int, int]]
    counts: KernelCounts


class CheckpointStore:
    """Atomic on-disk progress of one analysis, written by the master.

    ``key`` identifies the analysis (pmaxT uses :func:`result_cache_key`
    plus ``nperm``); the directory holds one ``ledger.npz``.
    """

    def __init__(self, directory: str | Path, key: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key = key
        self.path = self.directory / "ledger.npz"
        self.saves = 0

    def save(self, covered, counts: KernelCounts) -> None:
        """Atomically persist the covered ranges and their summed counts."""
        _atomic_savez(
            self.path, key=_text(self.key),
            covered=np.asarray(covered, dtype=np.int64).reshape(-1, 2),
            raw=counts.raw, adjusted=counts.adjusted,
            nperm=np.int64(counts.nperm))
        self.saves += 1

    def load(self) -> LedgerCheckpoint | None:
        """This analysis's progress, or ``None`` when nothing was saved.

        A checkpoint of a *different* analysis (data, options or ``B``)
        raises :class:`DataError` — resuming it would corrupt the counts.
        """
        if not self.path.exists():
            return None
        with np.load(self.path) as data:
            stored = bytes(data["key"]).decode()
            if stored != self.key:
                raise DataError(
                    f"checkpoint {self.path} belongs to a different problem "
                    f"(key {stored[:12]}… != {self.key[:12]}…); delete it "
                    "or use a fresh checkpoint directory")
            covered = [(int(a), int(b)) for a, b in data["covered"]]
            counts = KernelCounts(raw=data["raw"].copy(),
                                  adjusted=data["adjusted"].copy(),
                                  nperm=int(data["nperm"]))
        if sum(b - a for a, b in covered) != counts.nperm:
            raise DataError(
                f"checkpoint {self.path} is inconsistent: its ranges do "
                f"not cover its {counts.nperm} permutations")
        return LedgerCheckpoint(covered=covered, counts=counts)

    def clear(self) -> None:
        """Remove the checkpoint (called after a successful run)."""
        self.path.unlink(missing_ok=True)


@dataclass
class CachedResult:
    """One content-addressed cache entry: counts + observed statistics."""

    key: str
    nperm: int
    #: Observed statistics in the run's compute dtype (the significance
    #: order and the untestable mask are deterministic functions of these
    #: plus ``side``, so they are not stored separately).
    teststat: np.ndarray
    #: Reduced world-total counts; ``adjusted`` is in significance order,
    #: exactly as :func:`~repro.core.adjust.pvalues_from_counts` consumes it.
    counts: KernelCounts
    meta: dict = field(default_factory=dict)


class ResultCache:
    """Content-addressed store of completed pmaxT count totals.

    Files are ``maxt-<key>-B<nperm>.npz``: the key addresses the
    ``(dataset, options)`` family (:func:`result_cache_key`), the suffix
    the permutation count.  Because the counter-based generators make
    permutation ``k`` a pure function of ``(seed, k)`` — independent of
    the total count — an entry at a *smaller* ``nperm`` is a bit-exact
    prefix of any larger run of the same key: :func:`lookup` therefore
    returns the largest such entry as an extension base when no exact
    match exists, and the caller computes only ``[nperm_old, nperm_new)``.

    Writes share the checkpoint's atomic pattern (write-to-temp +
    ``os.replace``), so a crash mid-save can never leave a half-written
    entry that a later lookup would trust.

    Cross-process coordination uses an advisory ``flock`` on a
    ``.cache.lock`` file in the directory: readers and writers take it
    shared (atomic replace already orders them against each other),
    :meth:`clear` and :meth:`sweep` take it exclusive — so a concurrent
    reader can never observe a half-cleared directory (e.g. an entry
    listed by the glob but unlinked before its load).  On platforms
    without ``fcntl`` the lock degrades to a no-op.

    Eviction: a cache constructed with ``max_bytes=`` and/or ``max_age=``
    (seconds) sweeps itself after every write, and sessions sweep their
    cache on close.  Successful lookups touch the entry's mtime, so the
    byte-budget sweep removes entries least-recently-*used*, not merely
    least-recently-written.  Both limits also apply one-off through
    :meth:`sweep` (the ``repro-maxt cache sweep`` subcommand).
    """

    def __init__(self, directory: str | Path,
                 max_bytes: int | None = None,
                 max_age: float | None = None):
        if max_bytes is not None and int(max_bytes) <= 0:
            raise DataError(
                f"cache max_bytes must be positive, got {max_bytes}")
        if max_age is not None and float(max_age) <= 0:
            raise DataError(f"cache max_age must be positive, got {max_age}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.max_age = None if max_age is None else float(max_age)
        #: Orchestration counters (exact hits / cold runs / extended-B runs).
        self.hits = 0
        self.misses = 0
        self.extensions = 0
        self.evictions = 0

    def _path(self, key: str, nperm: int) -> Path:
        return self.directory / f"maxt-{key}-B{int(nperm)}.npz"

    @contextmanager
    def _dir_lock(self, *, exclusive: bool):
        """Advisory directory lock (shared for access, exclusive for clear).

        Each acquisition opens its own descriptor, so the lock coordinates
        threads of one process and separate processes alike; it is released
        (and the descriptor closed) on exit even if the body raises.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self.directory / ".cache.lock", "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def save(self, key: str, nperm: int, teststat: np.ndarray,
             counts: KernelCounts, meta: dict | None = None) -> Path:
        """Atomically persist one entry; returns its path."""
        if counts.nperm != nperm:  # pragma: no cover - defensive
            raise DataError(
                f"cache entry accounting error: counts cover {counts.nperm} "
                f"permutations, entry claims {nperm}")
        record = dict(meta or {})
        record.setdefault("created", time.time())
        record["nperm"] = int(nperm)
        path = self._path(key, nperm)
        with self._dir_lock(exclusive=False):
            _atomic_savez(
                path, key=_text(key), nperm=np.int64(nperm),
                teststat=np.asarray(teststat), raw=np.asarray(counts.raw),
                adjusted=np.asarray(counts.adjusted),
                meta=_text(json.dumps(record)))
        self._auto_sweep()
        return path

    def save_array(self, kind: str, key: str, arrays: dict,
                   meta: dict | None = None) -> Path:
        """Atomically persist a generic ``<kind>-<key>.npz`` array entry.

        The maxT count entries have bespoke structure (``save``/``lookup``
        with the incremental-B prefix property); everything else cached by
        result — currently the ``pcor`` correlation matrices — is a flat
        bag of named arrays under a content key.  Same locking, same
        atomic-replace discipline, same eviction sweep.
        """
        record = dict(meta or {})
        record.setdefault("created", time.time())
        path = self.directory / f"{kind}-{key}.npz"
        with self._dir_lock(exclusive=False):
            _atomic_savez(
                path, meta=_text(json.dumps(record)),
                **{name: np.asarray(a) for name, a in arrays.items()})
        self._auto_sweep()
        return path

    def lookup_array(self, kind: str, key: str) -> dict | None:
        """Load a ``save_array`` entry (``None`` if absent); touches mtime."""
        path = self.directory / f"{kind}-{key}.npz"
        with self._dir_lock(exclusive=False):
            try:
                with np.load(path) as data:
                    out = {name: data[name].copy()
                           for name in data.files if name != "meta"}
            except FileNotFoundError:
                return None
            self._touch(path)
            return out

    def _load(self, path: Path) -> CachedResult:
        with np.load(path) as data:
            return CachedResult(
                key=bytes(data["key"]).decode(),
                nperm=int(data["nperm"]),
                teststat=data["teststat"].copy(),
                counts=KernelCounts(
                    raw=data["raw"].copy(),
                    adjusted=data["adjusted"].copy(),
                    nperm=int(data["nperm"]),
                ),
                meta=json.loads(bytes(data["meta"]).decode()),
            )

    def lookup(self, key: str, nperm: int) -> CachedResult | None:
        """Exact entry if present, else the largest smaller-``nperm`` one.

        The caller distinguishes the two by comparing ``entry.nperm`` to
        the request; ``None`` means a cold run is required.
        """
        with self._dir_lock(exclusive=False):
            exact = self._path(key, nperm)
            if exact.exists():
                entry = self._load(exact)
                self._touch(exact)
                return entry
            best = 0
            prefix = f"maxt-{key}-B"
            for path in self.directory.glob(f"{prefix}*.npz"):
                try:
                    found = int(path.name[len(prefix):-len(".npz")])
                except ValueError:  # pragma: no cover - foreign file
                    continue
                if best < found < nperm:
                    best = found
            if best == 0:
                return None
            try:
                entry = self._load(self._path(key, best))
            except FileNotFoundError:  # pragma: no cover - raced removal
                return None
            self._touch(self._path(key, best))
            return entry

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime so LRU eviction sees it as recent."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - raced removal / odd perms
            pass

    def entries(self) -> list[CachedResult]:
        """Every stored entry (for ``repro-maxt cache ls``), newest first."""
        with self._dir_lock(exclusive=False):
            paths = sorted(self.directory.glob("maxt-*-B*.npz"),
                           key=lambda p: p.stat().st_mtime, reverse=True)
            return [self._load(p) for p in paths]

    def clear(self) -> int:
        """Remove every entry (maxT and array kinds alike); returns the count.

        Holds the directory lock exclusively, so in-flight readers finish
        first and later ones see either the full directory or an empty
        one — never a partially cleared glob.
        """
        removed = 0
        with self._dir_lock(exclusive=True):
            for path in self.directory.glob("*.npz"):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:  # pragma: no cover - raced removal
                    pass
        return removed

    def _auto_sweep(self) -> None:
        """Post-write sweep when the cache was constructed with limits."""
        if self.max_bytes is not None or self.max_age is not None:
            self.sweep()

    def sweep(self, max_bytes: int | None = None,
              max_age: float | None = None) -> int:
        """Evict entries beyond the age and byte budgets; returns the count.

        Arguments override the constructor limits for this sweep only.
        Age-expired entries go first; then, while the directory exceeds
        ``max_bytes``, the least-recently-used entries (oldest mtime —
        lookups refresh it) are removed until it fits.  With neither limit
        configured nor passed, the sweep is a no-op.
        """
        max_bytes = self.max_bytes if max_bytes is None else int(max_bytes)
        max_age = self.max_age if max_age is None else float(max_age)
        if max_bytes is None and max_age is None:
            return 0
        removed = 0
        now = time.time()
        with self._dir_lock(exclusive=True):
            entries = []
            for path in self.directory.glob("*.npz"):
                try:
                    st = path.stat()
                except OSError:  # pragma: no cover - raced removal
                    continue
                entries.append((st.st_mtime, st.st_size, path))
            if max_age is not None:
                fresh = []
                for mtime, size, path in entries:
                    if now - mtime > max_age:
                        removed += self._evict(path)
                    else:
                        fresh.append((mtime, size, path))
                entries = fresh
            if max_bytes is not None:
                entries.sort()  # oldest mtime first: least recently used
                total = sum(size for _, size, _ in entries)
                for _, size, path in entries:
                    if total <= max_bytes:
                        break
                    removed += self._evict(path)
                    total -= size
        self.evictions += removed
        return removed

    @staticmethod
    def _evict(path: Path) -> int:
        try:
            path.unlink()
            return 1
        except FileNotFoundError:  # pragma: no cover - raced removal
            return 0

    def stats(self) -> dict:
        """Counter snapshot (mirrored into ``session.stats()``)."""
        return {
            "cache_dir": str(self.directory),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_extended": self.extensions,
            "cache_evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, extended={self.extensions})"
        )
