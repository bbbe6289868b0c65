"""``pmaxT`` — the parallel permutation testing function.

Implements the six steps of the paper's Section 3.2 on top of the
:mod:`repro.mpi` communicator abstraction:

* **Step 1** — the master validates the input parameters and normalises
  them (``pre processing``).
* **Step 2** — the parameters are broadcast; scalar options travel as a
  compact tuple, implementing the paper's future-work note 3 (strings
  replaced by scalar codes before the broadcast)
  (``broadcast parameters``).
* **Step 3** — the input matrix and class labels are broadcast and
  transformed to the layout the kernel expects, and a global sum confirms
  every rank finished allocation (``create data``).
* **Step 4** — every rank runs the kernel over its permutation blocks
  under the master's block ledger (:mod:`repro.core.steal`): the static
  Figure-2 plan is one block per rank, the steal schedule hands blocks to
  whichever rank is free (``main kernel``).
* **Step 5** — the counts rode the ledger's messages, so the master
  already holds the world totals; it adds the job's prior (a checkpoint
  or cached prefix) and computes the raw and adjusted p-values
  (``compute p-values``).
* **Step 6** — buffers are released (Python's GC makes this implicit).

The five timed sections correspond one-to-one to the columns of the paper's
Tables I–V; the timings are recorded in the result's
:class:`~repro.core.profile.SectionProfile`.

Every rank calls :func:`pmaxT` (SPMD style).  Worker ranks may pass
``X=None``: they receive the data from the master's broadcast, mirroring the
SPRINT architecture where only the master evaluates the user's R script.
The master returns the :class:`~repro.core.result.MaxTResult`; workers
return ``None``.

Execution backends
------------------

:func:`pmaxT` is substrate-agnostic: the data broadcast uses the
communicator's ``bcast_array``, so each backend moves arrays its own best
way (shared address space for ``serial``/``threads``, pickled queues for
``processes``, zero-copy shared-memory segments for ``shm``), and the
counts travel point-to-point with the ledger's block reports (multi-rank
worlds need any-source receive: ``recv_any``/``poll_any``).  Callers pick
the substrate either by running their own SPMD world and passing
``comm=``, or — the convenience path — by naming a registered backend::

    result = pmaxT(X, labels, B=10_000, backend="shm", ranks=8)

``backend`` accepts any name in
:func:`repro.mpi.backends.available_backends`; registering a custom
:class:`~repro.mpi.backends.Backend` (see :mod:`repro.mpi`) makes it
usable here, in ``pcor`` and in the CLI without touching this module.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..errors import DataError, OptionError
from ..mpi import Communicator, SUM, SerialComm
from ..mpi.blasctl import blas_thread_limit
from ..mpi.datasets import PublishedDataset, attach_published_view
from ..mpi.session import BackendSession, resident_cache
from ..permute import DEFAULT_COMPLETE_LIMIT, DEFAULT_SEED, StoredPermutations
from ..stats import MT_NA_NUM
from ..stats.na import to_nan
from .adjust import pvalues_from_counts, side_adjust, significance_order
from .checkpoint import (
    CheckpointStore,
    ResultCache,
    dataset_fingerprint,
    result_cache_key,
)
from .kernel import (
    DEFAULT_CHUNK,
    KernelCounts,
    KernelWorkspace,
    compute_observed,
    run_kernel,
)
from .options import MaxTOptions, build_generator, build_statistic, validate_options
from .partition import plan_ledger
from .profile import SectionTimer
from .result import MaxTResult
from .steal import (
    DEFAULT_STEAL_BLOCK,
    STEAL_TAG_BASE,
    injected_delay,
    run_steal_master,
    run_steal_worker,
)

__all__ = ["lookup_cached", "pmaxT"]

# Scalar encodings for the string options (paper future-work note 3: string
# parameters replaced by integers before the broadcast).
_TEST_CODES = {"t": 0, "t.equalvar": 1, "wilcoxon": 2, "f": 3, "pairt": 4,
               "blockf": 5}
_TEST_NAMES = {v: k for k, v in _TEST_CODES.items()}
_SIDE_CODES = {"abs": 0, "upper": 1, "lower": 2}
_SIDE_NAMES = {v: k for k, v in _SIDE_CODES.items()}
_DTYPE_CODES = {"float64": 0, "float32": 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}


def _pack_options(o: MaxTOptions) -> tuple:
    """Encode the validated options as a flat scalar tuple for broadcast."""
    return (
        _TEST_CODES[o.test],
        _SIDE_CODES[o.side],
        1 if o.fixed_seed_sampling == "y" else 0,
        o.B,
        o.na,
        1 if o.nonpara == "y" else 0,
        o.seed,
        o.chunk_size,
        o.complete_limit,
        o.nperm,
        1 if o.complete else 0,
        1 if o.store else 0,
        _DTYPE_CODES[o.dtype],
    )


def _unpack_options(t: tuple) -> MaxTOptions:
    """Inverse of :func:`_pack_options`."""
    return MaxTOptions(
        test=_TEST_NAMES[t[0]],
        side=_SIDE_NAMES[t[1]],
        fixed_seed_sampling="y" if t[2] else "n",
        B=int(t[3]),
        na=float(t[4]),
        nonpara="y" if t[5] else "n",
        seed=int(t[6]),
        chunk_size=int(t[7]),
        complete_limit=int(t[8]),
        nperm=int(t[9]),
        complete=bool(t[10]),
        store=bool(t[11]),
        dtype=_DTYPE_NAMES[t[12]],
    )


# Per-process steal-epoch counter: every job gets a fresh point-to-point
# tag (shipped to workers in the Step-2 broadcast), so a frame sent by a
# rank that died mid-job can never be mistaken for a message belonging to
# a later job on the same persistent world.
_STEAL_EPOCH = itertools.count(1)


def _session_worker(comm: Communicator) -> MaxTResult | None:
    """Worker-rank pmaxT under a persistent session.

    Module-level (hence picklable) counterpart of the launch closure:
    worker ranks need no inputs of their own — data, options and the
    block plan all arrive via the master's Step 2/3 broadcasts.
    """
    return _pmaxt_run(None, None, comm=comm)


def pmaxT(
    X=None,
    classlabel=None,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    *,
    comm: Communicator | None = None,
    backend: str | None = None,
    ranks: int | None = None,
    session: BackendSession | None = None,
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    blas_threads: int | None = None,
    row_names: list[str] | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 2_048,
    cache=None,
    cache_dir: str | None = None,
    timeout: float | None = None,
    schedule: str = "auto",
    steal_block: int | None = None,
) -> MaxTResult | None:
    """Parallel Westfall–Young maxT permutation test (SPMD entry point).

    ``X`` also accepts a :class:`~repro.mpi.datasets.PublishedDataset`
    handle from ``session.publish(X, labels)``: the matrix then never
    crosses the wire — workers map the published shared-memory segment
    read-only — and ``classlabel`` defaults to the published labels.

    ``cache``/``cache_dir`` enable the content-addressed result cache
    (see :class:`~repro.core.checkpoint.ResultCache`): an identical
    repeated analysis is answered from disk without computing anything,
    and a request for a **larger** ``B`` of a cached analysis computes
    only the new permutations ``[B_old, B_new)`` — bit-identical to a
    cold run at ``B_new``, because permutation ``k`` of the
    counter-based generators is independent of the total count.
    Resolution order: ``cache`` (a ResultCache object) > ``cache_dir`` >
    the session's cache (``open_session(..., cache_dir=...)``).  The raw
    SPMD path (``comm=``) bypasses the cache: every rank is inside the
    world there, so no single rank can orchestrate lookups.

    ``timeout`` bounds the launched job's execution in seconds on the
    ``backend=``/``ranks=``/``session=`` paths (expiry raises
    :class:`~repro.errors.CommunicatorError` and, under a session, tears
    the worker pool down for respawn); ignored with ``comm=``.

    ``schedule`` selects the permutation dispatch: ``"static"`` is the
    paper's Figure-2 plan (one contiguous range per rank, fixed up
    front), ``"steal"`` the block-granular work-stealing scheduler
    (finished ranks steal blocks from stragglers via the master), and
    ``"auto"`` (default) steals on every multi-rank world — stored
    permutations, checkpointed runs and cache extensions included.  A
    one-rank world has no one to steal from and runs its permutations
    as one block.  Results are bit-identical across schedules;
    ``steal_block`` tunes the permutations-per-block granularity
    (default 256).  Neither knob enters the result-cache key, for
    exactly that reason.
    """
    if isinstance(X, PublishedDataset) and classlabel is None:
        classlabel = X.labels
    resolved_cache = cache
    if resolved_cache is None and cache_dir is not None:
        resolved_cache = ResultCache(cache_dir)
    if resolved_cache is None and session is not None:
        resolved_cache = session.cache
    run_kwargs = dict(
        test=test, side=side, fixed_seed_sampling=fixed_seed_sampling,
        B=B, na=na, nonpara=nonpara, seed=seed, chunk_size=chunk_size,
        complete_limit=complete_limit, dtype=dtype,
        blas_threads=blas_threads, row_names=row_names,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        timeout=timeout,
        schedule=schedule, steal_block=steal_block,
    )
    if resolved_cache is None or comm is not None:
        return _pmaxt_run(X, classlabel, comm=comm, backend=backend,
                          ranks=ranks, session=session, **run_kwargs)
    return _pmaxt_cached(resolved_cache, X, classlabel, backend=backend,
                         ranks=ranks, session=session, **run_kwargs)


def _result_from_counts(teststat: np.ndarray, counts: KernelCounts,
                        options: MaxTOptions,
                        row_names: list[str] | None,
                        nranks: int) -> MaxTResult:
    """Rebuild a full result from observed statistics + total counts.

    The significance order and the untestable mask are deterministic
    functions of the stored statistics (``side_adjust`` then a stable
    argsort), so a cache hit reproduces the original run's p-values
    bit-identically without touching the data.
    """
    teststat = np.asarray(teststat)
    scores = side_adjust(teststat, options.side)
    order = significance_order(scores)
    rawp, adjp = pvalues_from_counts(
        counts.raw, counts.adjusted, order, counts.nperm,
        untestable=~np.isfinite(scores),
    )
    return MaxTResult(
        teststat=teststat, rawp=rawp, adjp=adjp, order=order,
        nperm=int(counts.nperm), test=options.test, side=options.side,
        complete=options.complete, nranks=nranks, row_names=row_names,
        counts=counts,
    )


def _dataset_fp_for(X, classlabel) -> str:
    """Content fingerprint of ``(X, classlabel)`` for result-cache keys.

    A :class:`~repro.mpi.datasets.PublishedDataset` paired with its own
    labels reuses the fingerprint computed once at publish time; any
    other combination hashes the underlying bytes.
    """
    handle = X if isinstance(X, PublishedDataset) else None
    if handle is not None and classlabel is handle.labels:
        return handle.fingerprint
    source = handle.base_data() if handle is not None else X
    return dataset_fingerprint(source, classlabel)


def _validated_options(classlabel, run_kwargs) -> MaxTOptions:
    return validate_options(
        classlabel,
        test=run_kwargs["test"], side=run_kwargs["side"],
        fixed_seed_sampling=run_kwargs["fixed_seed_sampling"],
        B=run_kwargs["B"], na=run_kwargs["na"],
        nonpara=run_kwargs["nonpara"], seed=run_kwargs["seed"],
        chunk_size=run_kwargs["chunk_size"],
        complete_limit=run_kwargs["complete_limit"],
        dtype=run_kwargs["dtype"],
    )


def lookup_cached(
    cache,
    X,
    classlabel=None,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    *,
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    row_names: list[str] | None = None,
) -> MaxTResult | None:
    """Answer a pmaxT call from ``cache`` alone, or return ``None``.

    The exact-hit half of the cache orchestration, exposed so a service
    front-end can short-circuit an identical repeated analysis without
    occupying a worker pool: on a hit the rebuilt
    :class:`~repro.core.result.MaxTResult` is bit-identical to what
    :func:`pmaxT` would return (and ``cache.hits`` is bumped); a miss or
    a partial entry (smaller cached ``B``) returns ``None`` and leaves
    the counters alone — route those through :func:`pmaxT`, which also
    handles the incremental extension.
    """
    if isinstance(X, PublishedDataset) and classlabel is None:
        classlabel = X.labels
    if X is None or classlabel is None:
        raise DataError("the master rank must supply X and classlabel")
    options = validate_options(
        classlabel, test=test, side=side,
        fixed_seed_sampling=fixed_seed_sampling, B=B, na=na,
        nonpara=nonpara, seed=seed, chunk_size=chunk_size,
        complete_limit=complete_limit, dtype=dtype,
    )
    key = result_cache_key(_dataset_fp_for(X, classlabel), options)
    entry = cache.lookup(key, options.nperm)
    if entry is None or entry.nperm != options.nperm:
        return None
    cache.hits += 1
    return _result_from_counts(
        entry.teststat, entry.counts, options, row_names,
        nranks=int(entry.meta.get("nranks", 1)))


def _pmaxt_cached(cache, X, classlabel, *, backend, ranks, session,
                  **run_kwargs) -> MaxTResult:
    """Cache orchestration: hit -> rebuild, partial -> extend, miss -> run."""
    if X is None or classlabel is None:
        raise DataError("the master rank must supply X and classlabel")
    options = _validated_options(classlabel, run_kwargs)
    key = result_cache_key(_dataset_fp_for(X, classlabel), options)
    row_names = run_kwargs["row_names"]

    entry = cache.lookup(key, options.nperm)
    if entry is not None and entry.nperm == options.nperm:
        cache.hits += 1
        return _result_from_counts(
            entry.teststat, entry.counts, options, row_names,
            nranks=int(entry.meta.get("nranks", 1)))

    # Incremental-B extension: a smaller cached entry covers permutation
    # indices [0, B_old) and becomes the ledger's prior, so only
    # [B_old, B_new) is computed — the counter-based keystream makes the
    # union bit-identical to a cold run at B_new.
    prior = entry if entry is not None and not options.complete else None
    if prior is None:
        cache.misses += 1
    result = _pmaxt_run(X, classlabel, backend=backend, ranks=ranks,
                        session=session, prior=prior, **run_kwargs)
    if prior is not None:
        cache.extensions += 1
    meta = {
        "test": options.test, "side": options.side,
        "dtype": options.dtype, "seed": options.seed,
        "complete": options.complete,
        "n": int(np.asarray(classlabel).size),
        "nranks": result.nranks, "m": result.m,
    }
    cache.save(key, options.nperm, result.teststat, result.counts, meta)
    return result


def _published_rank_wire(options: MaxTOptions) -> bool:
    """Whether a published-dataset run should map the pre-ranked variant.

    True for ``nonpara="y"`` runs whose statistic is not itself rank
    based — Wilcoxon ranks internally either way (the per-rank transform
    would be skipped too), so it keeps the plain wire.
    """
    from ..stats.registry import STATISTICS

    cls = STATISTICS.get(options.test)
    return (options.nonpara == "y" and cls is not None
            and not getattr(cls, "_rank_based", False))


def _rank_workspace(stat, chunk_size: int) -> KernelWorkspace:
    """This rank's kernel workspace, session-resident when possible.

    Under a persistent session each rank keeps one
    :class:`~repro.core.kernel.KernelWorkspace` warm across whole pmaxT
    calls; outside a session one workspace serves every block of the
    call.  Counts are bit-identical either way.
    """
    cache = resident_cache()
    workspace = None if cache is None else cache.get("kernel_workspace")
    if not (isinstance(workspace, KernelWorkspace)
            and workspace.compatible_with(stat, chunk_size)):
        workspace = KernelWorkspace.for_stat(stat, chunk_size)
        if cache is not None:
            cache["kernel_workspace"] = workspace
    return workspace


def _run_ledger(comm, options: MaxTOptions, labels, stat, observed,
                plan: tuple, on_progress=None):
    """Steps 4+5: run this rank's side of the block ledger.

    ``plan`` is the Step-2 broadcast ``(covered, block_size, max_block,
    tag)``; every rank derives the same blocks and initial runs from it
    (:func:`~repro.core.partition.plan_ledger`).  Returns the counts of
    the job's blocks on the master (``None`` if it had none) and ``None``
    on workers.  Block contributions are int64 count sums, so any
    assignment and any accumulation order are bit-identical to the
    static plan — the invariant the golden tests pin across schedules
    and skew patterns.
    """
    covered, block_size, max_block, tag = plan
    blocks, runs = plan_ledger(options.nperm, comm.size, covered=covered,
                               block_size=block_size, max_block=max_block)
    workspace = _rank_workspace(stat, options.chunk_size)
    delay = injected_delay(comm.rank)
    if options.store:
        # Stored mode: each block replays a materialised slice of the
        # sequential stream, which only forwards across the gaps between
        # this rank's blocks.
        source = build_generator(replace(options, store=False), labels)
    else:
        generator = build_generator(options, labels)

    def compute_block(block):
        if options.store:
            gen, start = StoredPermutations(source, block.start,
                                            block.count), 0
        else:
            gen, start = generator, block.start
        counts = run_kernel(
            stat, gen, observed, options.side,
            start=start, count=block.count,
            chunk_size=options.chunk_size,
            first_is_observed=(block.start == 0),
            workspace=workspace,
        )
        if delay > 0:
            time.sleep(delay * block.count)
        return counts

    def merge(acc, contribution):
        if acc is None:
            # Fresh accumulator arrays: a worker abandons (never mutates)
            # whatever it last sent, and the master must not fold peers'
            # contributions into an object a sender might still hold (the
            # threads backend passes messages by reference).
            return KernelCounts(raw=contribution.raw.copy(),
                                adjusted=contribution.adjusted.copy(),
                                nperm=contribution.nperm)
        acc += contribution
        return acc

    if comm.is_master:
        # With no peers there is nothing to serve between sub-units:
        # each block is one kernel call.
        acc, ledger, stats = run_steal_master(
            comm, blocks, runs, compute_block, merge, tag=tag,
            poll_unit=options.chunk_size if comm.size > 1 else None,
            covered=covered, on_progress=on_progress)
        ledger.assert_exact_cover(0, options.nperm)
        on_stats = getattr(comm, "_on_steal_stats", None)
        if block_size is not None and on_stats is not None:
            on_stats(stats)
        return acc
    run_steal_worker(comm, blocks, runs[comm.rank], compute_block,
                     merge, tag=tag)
    return None


def _master_plan(X, classlabel, options: MaxTOptions, world_size: int,
                 schedule: str, steal_block: int | None,
                 checkpoint_dir: str | None, checkpoint_interval: int,
                 prior) -> tuple:
    """Master-side Step 1 of the ledger: schedule, prior and checkpoint.

    Returns ``(plan, prior_counts, expected_stats, on_progress, store)``:
    the Step-2 plan every rank derives its blocks from, the counts of the
    prior's covered ranges, the observed statistics a cached prefix must
    match, the checkpoint hook, and the checkpoint store to clear on
    success.  A checkpoint is keyed by the result-cache key plus
    ``nperm``, never by the world, so it resumes at any rank count,
    schedule or block size.
    """
    if schedule not in ("auto", "static", "steal"):
        raise OptionError(
            f"schedule must be 'auto', 'static' or 'steal', got {schedule!r}")
    if steal_block is not None and int(steal_block) < 1:
        raise OptionError(f"steal_block must be >= 1, got {steal_block}")
    block_size = None
    if schedule != "static" and world_size > 1:
        block_size = int(steal_block) if steal_block is not None \
            else DEFAULT_STEAL_BLOCK
    covered: list[tuple[int, int]] = []
    prior_counts: KernelCounts | None = None
    expected = None
    if prior is not None:
        covered, prior_counts = [(0, prior.nperm)], prior.counts
        expected = prior.teststat
    store: CheckpointStore | None = None
    hook: Callable[[KernelCounts, Any], None] | None = None
    max_block: int | None = None
    if checkpoint_dir is not None:
        interval = int(checkpoint_interval)
        if interval <= 0:
            raise DataError(f"checkpoint interval must be positive, got "
                            f"{checkpoint_interval}")
        key = result_cache_key(_dataset_fp_for(X, classlabel), options)
        store = ckpt = CheckpointStore(checkpoint_dir,
                                       key=f"{key}-B{options.nperm}")
        saved = ckpt.load()
        if saved is not None and saved.counts.nperm > (
                0 if prior_counts is None else prior_counts.nperm):
            covered, prior_counts, expected = saved.covered, saved.counts, None
        base, progress = prior_counts, {"saved": 0 if prior_counts is None
                                        else prior_counts.nperm}

        def save_progress(acc: KernelCounts, ledger) -> None:
            # ``acc`` holds exactly the counts of the ledger's finished
            # blocks; adding the prior makes the checkpoint cover
            # ``ledger.covered()``.
            covered_now = ledger.covered()
            done = sum(b - a for a, b in covered_now)
            if done - progress["saved"] >= interval:
                ckpt.save(covered_now,
                          acc if base is None else base.merged([acc]))
                progress["saved"] = done

        hook, max_block = save_progress, interval

    tag = STEAL_TAG_BASE + next(_STEAL_EPOCH) % 0x100000
    plan = (covered, block_size, max_block, tag)
    return plan, prior_counts, expected, hook, store


def _pmaxt_run(
    X=None,
    classlabel=None,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    *,
    comm: Communicator | None = None,
    backend: str | None = None,
    ranks: int | None = None,
    session: BackendSession | None = None,
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    blas_threads: int | None = None,
    row_names: list[str] | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 2_048,
    prior=None,
    timeout: float | None = None,
    schedule: str = "auto",
    steal_block: int | None = None,
) -> MaxTResult | None:
    """The SPMD algorithm (cache-free half of :func:`pmaxT`).

    The interface is identical to :func:`~repro.core.maxt.mt_maxT` — the
    paper's headline usability claim — plus ``comm``, the MPI-substrate
    communicator.  With ``comm=None`` (or a one-rank world) this runs the
    serial algorithm, profiled into the same five sections.

    Alternatively pass ``backend=`` (a registered execution-backend name:
    ``"serial"``, ``"threads"``, ``"processes"``, ``"shm"``, or a custom
    registration) and ``ranks=`` to have pmaxT stand up the SPMD world
    itself and return the master's result directly — a one-line parallel
    run with no explicit world management.  ``backend`` and ``comm`` are
    mutually exclusive.

    For repeated calls, pass ``session=`` (from
    :func:`repro.mpi.open_session`) instead: the session's resident
    worker pool serves every call warm — no process spawns after the
    first, and each rank reuses its resident
    :class:`~repro.core.kernel.KernelWorkspace` across calls of the same
    problem shape.  Results are identical to every other launch path.

    On worker ranks ``X`` and ``classlabel`` may be ``None``; the data
    arrives via the master's broadcast.  The result is returned on the
    master; workers receive ``None``.

    ``dtype`` selects the statistic compute precision: ``"float64"``
    (default) or ``"float32"`` (~2x BLAS throughput at ~1e-5 relative
    accuracy; the kernel's tie tolerance widens accordingly).

    ``blas_threads`` caps each rank's BLAS threadpool.  Launched worlds
    already cap each rank at ``max(1, cores // ranks)`` (the
    oversubscription fix, see :mod:`repro.mpi.blasctl`); pass an explicit
    value to override it, or ``0`` to disable capping.  On the
    ``backend=``/``ranks=`` path the cap is scoped to the launched world;
    on the ``comm=`` (user-managed SPMD) path and a plain serial call it
    caps the calling rank's own pool while it computes, and the earlier
    budget comes back when the call returns.  Answers are the same under
    any cap.

    ``checkpoint_dir`` enables the fault-tolerance extension (paper
    future-work item 1): the master persists the ledger's covered ranges
    and their summed counts at least every ``checkpoint_interval``
    permutations, and a re-run of the same analysis resumes from them at
    any rank count or schedule — see :mod:`repro.core.checkpoint`.

    ``prior`` (the result cache's partial entry, master only) seeds the
    ledger with its cached prefix ``[0, B_old)``: only the remaining
    permutations are computed, after the observed statistics are checked
    against the entry's.

    The output is **identical to the serial output** for any rank count:
    the permutation partition (Figure 2 of the paper) together with the
    skippable generators reproduces the serial permutation sequence exactly.
    """
    if backend is not None or ranks is not None or session is not None:
        from ..mpi.backends import launch_master

        def _job(world_comm: Communicator) -> MaxTResult | None:
            master = world_comm.is_master
            return _pmaxt_run(
                X if master else None,
                classlabel if master else None,
                test=test, side=side,
                fixed_seed_sampling=fixed_seed_sampling, B=B, na=na,
                nonpara=nonpara, comm=world_comm, seed=seed,
                chunk_size=chunk_size, complete_limit=complete_limit,
                dtype=dtype, row_names=row_names,
                checkpoint_dir=checkpoint_dir,
                checkpoint_interval=checkpoint_interval,
                prior=prior if master else None,
                schedule=schedule, steal_block=steal_block,
            )

        # The worker-rank half for a persistent session (jobs cross a
        # queue there, so the callable must be picklable).
        return launch_master(backend, ranks, _job, comm=comm,
                             session=session, worker_fn=_session_worker,
                             caller="pmaxT", blas_threads=blas_threads,
                             timeout=timeout)

    if comm is None:
        comm = SerialComm()
    if blas_threads is not None and int(blas_threads) < 0:
        raise OptionError(
            f"blas_threads must be >= 0 (0 disables capping), "
            f"got {blas_threads}")
    master = comm.is_master
    timer = SectionTimer()

    # -- Step 1: master-side pre-processing --------------------------------
    payload = None
    handle: PublishedDataset | None = None
    data = labels = route = None
    prior_counts = expected = on_progress = store = None
    pre_ranked = False
    with timer.section("pre_processing"):
        if master:
            if isinstance(X, PublishedDataset):
                handle = X
                if classlabel is None:
                    classlabel = handle.labels
            if X is None or classlabel is None:
                raise DataError("the master rank must supply X and classlabel")
            options = validate_options(
                classlabel,
                test=test,
                side=side,
                fixed_seed_sampling=fixed_seed_sampling,
                B=B,
                na=na,
                nonpara=nonpara,
                seed=seed,
                chunk_size=chunk_size,
                complete_limit=complete_limit,
                dtype=dtype,
            )
            if handle is not None:
                # Published dataset: resolve the variant whose bytes
                # match this run's broadcast wire exactly (float64 keeps
                # NA codes raw; float32 NaN-ifies them before the cast).
                # A nonpara run resolves the shared pre-ranked variant —
                # the rank transform runs once per publish, and every
                # rank skips its per-call re-rank.
                pre_ranked = _published_rank_wire(options)
                if pre_ranked:
                    data, route = handle.resolve(
                        options.dtype, options.na, rank=True)
                else:
                    data, route = handle.resolve(
                        options.dtype,
                        options.na if options.dtype == "float32" else None)
            plan, prior_counts, expected, on_progress, store = _master_plan(
                X, classlabel, options, comm.size, schedule, steal_block,
                checkpoint_dir, checkpoint_interval, prior)
            payload = (_pack_options(options), route, pre_ranked, plan)

    # -- Step 2: broadcast scalar parameters --------------------------------
    with timer.section("broadcast_parameters"):
        packed, route, pre_ranked, plan = comm.bcast(payload, root=0)
        options = _unpack_options(packed)

    # -- Step 3: broadcast + transform the input data ------------------------
    with timer.section("create_data"):
        if master and handle is None:
            if options.dtype == "float64":
                # Zero-copy for contiguous float64 input; NA codes travel
                # as-is and every rank's statistic NaN-ifies them (the
                # pre-session behaviour, kept bit- and fingerprint-
                # identical).
                data = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
            else:
                # float32 wire: the NA code must become NaN *before* the
                # cast — MT_NA_NUM is not float32-representable, so a
                # cast-first wire would round the code away and the
                # statistics would miss the missing cells.  The per-rank
                # to_nan stays idempotent on the NaN-ified result.
                data = to_nan(X, options.na)
        if master:
            labels = np.ascontiguousarray(np.asarray(classlabel,
                                                     dtype=np.int64))
        if route is not None:
            # The matrix was published once into named shared memory:
            # nothing to broadcast.  The master already holds its view;
            # each worker maps the segment by name, memoised in its
            # session-resident cache — a warm worker moves zero bytes.
            if not master:
                data = attach_published_view(route)
        else:
            # Array-aware collectives: the backend moves the matrix its
            # own best way (zero-copy segments on "shm", pickled queues
            # on "processes", the shared address space in-process).  The
            # wire is dtype-aware: a float32 compute run ships float32
            # bytes — half the "create data" traffic — rather than
            # casting after transfer.
            data = comm.bcast_array(data, root=0, dtype=options.dtype)
        labels = comm.bcast_array(labels, root=0)
        # Global sum synchronises all ranks and confirms allocation
        # succeeded everywhere (the paper's Step 3 "global sum").
        ready = comm.allreduce(1, op=SUM)
        if ready != comm.size:  # pragma: no cover - defensive
            raise DataError("not all ranks completed data creation")

    # -- Step 4: this rank's blocks under the master's ledger ---------------
    # Every GEMM runs here, so this rank's own cap (blas_threads= on the
    # comm= path or a plain serial call) is leased for this step only.
    with timer.section("main_kernel"), blas_thread_limit(blas_threads or None):
        stat = build_statistic(options, data, labels, pre_ranked=pre_ranked)
        observed = compute_observed(stat, options.side)
        if master and expected is not None and not np.array_equal(
                observed.stats, expected, equal_nan=True):
            raise DataError(
                "result-cache entry does not match this problem: the "
                "observed statistics differ (stale or corrupted cache "
                "directory); clear it and re-run")
        # Steps 4 and 5 fuse: contributions ride the ledger's messages, so
        # no collective reduction runs on any rank and a mid-job worker
        # death cannot strand the survivors in Step 5.
        job_counts = _run_ledger(comm, options, labels, stat, observed, plan,
                                 on_progress=on_progress)

    # -- Step 5: world totals plus the prior, p-values -----------------------
    result: MaxTResult | None = None
    with timer.section("compute_pvalues"):
        if master:
            totals = job_counts if job_counts is not None \
                else KernelCounts.zeros(observed.m)
            if prior_counts is not None:
                totals = prior_counts.merged([totals])
            if totals.nperm != options.nperm:  # pragma: no cover - defensive
                raise DataError(
                    f"permutation accounting error: executed "
                    f"{totals.nperm}, expected {options.nperm}"
                )
            if store is not None:
                store.clear()
            rawp, adjp = pvalues_from_counts(
                totals.raw, totals.adjusted, observed.order,
                options.nperm, untestable=observed.untestable,
            )
            result = MaxTResult(
                teststat=observed.stats,
                rawp=rawp,
                adjp=adjp,
                order=observed.order,
                nperm=options.nperm,
                test=options.test,
                side=options.side,
                complete=options.complete,
                nranks=comm.size,
                row_names=row_names,
                counts=totals,
            )

    # -- Step 6: free memory (implicit) + attach the profile -----------------
    if result is not None:
        result.profile = timer.profile
    return result
