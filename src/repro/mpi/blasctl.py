"""Per-process BLAS threadpool control (dependency-free).

Every rank of a multi-rank pmaxT world runs the same GEMM-heavy kernel, and
an unconfigured BLAS happily spins up one thread per core *per rank*:
``ranks x cores`` runnable threads on ``cores`` CPUs, thrashing caches and
the scheduler exactly when the paper's scaling argument assumes one busy
core per rank.  The classic fix is capping each rank's BLAS pool so that
``ranks x threads per rank <= cores``.

``threadpoolctl`` is the standard tool for this, but it is an optional
dependency; this module implements the minimal subset needed here with
plain :mod:`ctypes` against the OpenBLAS build NumPy bundles (including the
``scipy-openblas`` symbol-prefixed wheels), falling back to environment
variables for any BLAS loaded later.  Everything degrades to a no-op when
no controllable BLAS is found — correctness never depends on this module,
only throughput.  Answers do not depend on the cap either
(:meth:`repro.stats.base.TestStatistic.observed`).

One policy, :func:`rank_cap`, covers every world: each rank is capped at
``max(1, cores // ranks)``, never above the budget in force (the pool's own,
or a stricter ``*_NUM_THREADS`` the user exported, which is how to lower
it).  An ``shm`` worker applies it for life
(:func:`apply_worker_cap`); a persistent pool's master and every in-process
world lease it for the job (:func:`blas_thread_limit`).  Overlapping leases
from different threads form a multiset: the pool runs at the smallest
active cap, and the budget from before the first lease returns when the
last one ends.

A rank keeps its cap for its whole job.  The ledger scheduler
(:mod:`repro.core.steal`) does not widen a rank's pool when its peers go
idle.  On a 2-core host, widening the first rank to finish its share
oversubscribed the CPUs while the other rank was still busy, and it made
one-shot 2-rank calls about a third slower.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from collections import Counter
from contextlib import contextmanager

__all__ = [
    "blas_available",
    "effective_cpu_count",
    "get_blas_threads",
    "set_blas_threads",
    "blas_thread_limit",
    "recommended_blas_threads",
    "rank_cap",
    "apply_worker_cap",
]

#: Environment variables that cap the threadpool of a BLAS/OpenMP runtime
#: loaded *after* they are set (harmless for the already-loaded one, which
#: the ctypes path below handles directly).
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: (set, get) symbol-name pairs tried on every candidate shared object.
_SYMBOL_PAIRS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)

_controls: tuple | None | bool = None  # None = not probed yet; False = absent


def _candidate_libraries():
    """Shared objects that may expose a thread-control API.

    NumPy's wheels ship their BLAS inside ``numpy.libs`` (manylinux) or as
    a ``scipy_openblas64`` helper package; loading the same file again via
    ctypes returns the already-mapped library, so the calls act on the
    pool NumPy's GEMMs actually use.
    """
    paths = []
    try:
        import numpy as np

        base = os.path.dirname(np.__file__)
        for pattern in ("../numpy.libs/libscipy_openblas*",
                        "../numpy.libs/libopenblas*",
                        ".libs/libopenblas*"):
            paths.extend(sorted(glob.glob(os.path.join(base, pattern))))
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        pass
    try:
        import scipy_openblas64  # type: ignore

        paths.append(scipy_openblas64.get_lib_path())
    except Exception:
        pass
    seen = []
    for p in paths:
        p = os.path.abspath(p)
        if p not in seen:
            seen.append(p)
    yield from seen
    yield None  # the process's global symbol table, last


def _probe():
    """Locate (set_fn, get_fn) once; cache the result."""
    global _controls
    if _controls is not None:
        return _controls
    for path in _candidate_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOL_PAIRS:
            set_fn = getattr(lib, set_name, None)
            get_fn = getattr(lib, get_name, None)
            if set_fn is None or get_fn is None:
                continue
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            get_fn.argtypes = []
            get_fn.restype = ctypes.c_int
            _controls = (set_fn, get_fn)
            return _controls
    _controls = False
    return _controls


def blas_available() -> bool:
    """Whether a controllable BLAS threadpool was found in this process."""
    return bool(_probe())


def get_blas_threads() -> int | None:
    """The BLAS pool's current thread budget, or ``None`` if uncontrollable."""
    controls = _probe()
    if not controls:
        return None
    return int(controls[1]())


def set_blas_threads(n: int) -> int | None:
    """Cap the BLAS pool at ``n`` threads; returns the previous budget.

    Runtime control only — the caller's environment is left untouched, so
    a temporary cap (:func:`blas_thread_limit`) cannot leak into later
    library loads or forked children.  Returns ``None`` when no runtime
    control is available.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    controls = _probe()
    if not controls:
        return None
    previous = int(controls[1]())
    controls[0](n)
    return previous


_lease_lock = threading.Lock()
#: Active leases (cap -> holders) and the budget from before the first.
_leases: Counter = Counter()
_base_budget: int | None = None


@contextmanager
def blas_thread_limit(n: int):
    """Lease a cap of ``n`` BLAS threads for the ``with`` block.

    The pool runs at the smallest cap any lease holds; the last lease to
    end restores the budget from before the first.
    """
    global _base_budget
    n = int(n)
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    with _lease_lock:
        if not _leases:
            _base_budget = get_blas_threads()
        _leases[n] += 1
        set_blas_threads(min(_leases))
    try:
        yield
    finally:
        with _lease_lock:
            _leases[n] -= 1
            if not _leases[n]:
                del _leases[n]
            if _leases:
                set_blas_threads(min(_leases))
            elif _base_budget is not None:
                set_blas_threads(_base_budget)


def _forget_leases() -> None:
    """Fork hook: a child starts unleased, with a fresh lock."""
    global _lease_lock
    _lease_lock = threading.Lock()
    if _leases:
        _leases.clear()
        if _base_budget is not None:
            set_blas_threads(_base_budget)


os.register_at_fork(after_in_child=_forget_leases)


def effective_cpu_count() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def recommended_blas_threads(ranks: int) -> int:
    """The per-rank cap that fills, but does not oversubscribe, the host.

    Uses the scheduling affinity rather than the raw core count, so a
    container pinned to 4 of a 64-core host's CPUs caps at 4//ranks — the
    raw count would reintroduce exactly the oversubscription this fixes.
    """
    return max(1, effective_cpu_count() // max(1, int(ranks)))


def rank_cap(ranks: int) -> int:
    """The BLAS cap of one rank in a ``ranks``-rank world.

    ``max(1, cores // ranks)``, which may only lower the budget in force:
    the pool's own from before any lease, or a stricter ``*_NUM_THREADS``
    limit exported by the user or a scheduler (e.g.
    ``OPENBLAS_NUM_THREADS=1`` on a shared node).
    """
    with _lease_lock:
        budget = _base_budget if _leases else get_blas_threads()
    cap = recommended_blas_threads(ranks)
    if budget:
        cap = min(cap, budget)
    for var in _THREAD_ENV_VARS:
        try:
            existing = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if existing > 0:
            cap = min(cap, existing)
    return cap


def apply_worker_cap(world_size: int) -> None:
    """Bootstrap hook run inside each ``shm`` worker.

    Applies :func:`rank_cap` for the worker's lifetime.  Workers are
    throwaway processes, so exporting the ``*_NUM_THREADS`` variables here
    cannot leak into the parent.
    """
    cap = rank_cap(world_size)
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(cap)
    set_blas_threads(cap)
