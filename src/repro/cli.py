"""Command-line front end: ``repro-maxt``.

The paper's usage story is a one-line change for the user
(``mpiexec -n NSLOTS R -f script.R``); the CLI analogue runs the parallel
permutation test on a dataset file without writing any Python::

    repro-maxt expression.csv --test t --b 10000 --ranks 4 --out result.tsv
    repro-maxt expression.npz --b 50000 --backend shm --ranks 8
    repro-maxt expression.npz --test wilcoxon --side upper --top 25
    repro-maxt expression.npz --b 10000 --backend shm --ranks 4 --session
    repro-maxt expression.npz --b 50000 --cache-dir ~/.cache/repro
    repro-maxt cache ls --cache-dir ~/.cache/repro
    repro-maxt serve --backend shm --ranks 2 --port 8071

Dataset formats are the CSV/NPZ layouts of :mod:`repro.data.io`.  The SPMD
world comes from the execution-backend registry
(:mod:`repro.mpi.backends`): ``--backend threads`` (default), ``shm``
(real OS ranks, shared-memory array broadcasts) or ``serial`` — plus any
backend the embedding application registered.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .core.pmaxt import pmaxT
from .data.io import load_dataset_csv, load_dataset_npz, write_result_tsv
from .errors import ReproError
from .mpi import DEFAULT_BACKEND, available_backends
from .stats import available_tests

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-maxt",
        description="Westfall-Young maxT permutation testing (SPRINT pmaxT "
        "reproduction)",
    )
    parser.add_argument("dataset",
                        help="expression matrix (.csv or .npz; see "
                        "repro.data.io for the layouts)")
    parser.add_argument("--test", default="t", choices=available_tests(),
                        help="test statistic (default: t)")
    parser.add_argument("--side", default="abs",
                        choices=("abs", "upper", "lower"),
                        help="rejection region (default: abs)")
    parser.add_argument("--b", type=int, default=10_000, metavar="B",
                        help="permutation count; 0 = complete enumeration "
                        "(default: 10000)")
    parser.add_argument("--fixed-seed-sampling", default="y",
                        choices=("y", "n"),
                        help="'y': regenerate permutations on the fly; "
                        "'n': store them (default: y)")
    parser.add_argument("--nonpara", default="n", choices=("y", "n"),
                        help="rank-transform the data first (default: n)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: the library's fixed seed)")
    parser.add_argument("--ranks", "--procs", type=int, default=1,
                        metavar="P", dest="ranks",
                        help="SPMD world size (default: 1; --procs is a "
                        "backward-compatible alias)")
    parser.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=available_backends(),
                        help="execution backend for --ranks > 1 "
                        f"(default: {DEFAULT_BACKEND})")
    parser.add_argument("--session", action="store_true",
                        help="dispatch through a persistent backend "
                        "session (repro.mpi.open_session): the "
                        "service-style path that keeps the worker pool "
                        "resident — identical results, demonstrates warm "
                        "dispatch")
    parser.add_argument("--dtype", default="float64",
                        choices=("float64", "float32"),
                        help="statistic compute precision (float32: ~2x "
                        "BLAS speed at ~1e-5 relative accuracy; default: "
                        "float64)")
    parser.add_argument("--schedule", default="auto",
                        choices=("auto", "static", "steal"),
                        help="permutation scheduling: 'static' is the "
                        "paper's fixed Figure-2 partition, 'steal' the "
                        "block-granular work-stealing dispatch (bit-"
                        "identical results), 'auto' steals on every "
                        "multi-rank world (default: auto)")
    parser.add_argument("--steal-block", type=int, default=None,
                        metavar="N",
                        help="permutations per stealable block "
                        "(default: 256)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="enable checkpoint/restart into this directory "
                        "(a re-run resumes at any rank count)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache: a repeated "
                        "identical analysis is answered from disk, and a "
                        "larger --b computes only the new permutations "
                        "(default: $REPRO_CACHE_DIR when set, else off). "
                        "Inspect with `repro-maxt cache ls --cache-dir DIR`")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache (overrides "
                        "--cache-dir and $REPRO_CACHE_DIR)")
    parser.add_argument("--verbose", action="store_true",
                        help="print cache and session statistics after "
                        "the run")
    parser.add_argument("--out", default=None, metavar="TSV",
                        help="write the full result table to this TSV file")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="print the N most significant genes "
                        "(default: 10)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the report; only write --out")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    return parser


def _load(path: str):
    if path.endswith(".npz"):
        return load_dataset_npz(path)
    if path.endswith(".csv"):
        return load_dataset_csv(path)
    raise ReproError(f"unsupported dataset extension: {path!r} "
                     "(expected .csv or .npz)")


def _resolve_cache(args) -> object | None:
    """The CLI's cache policy: --no-cache > --cache-dir > $REPRO_CACHE_DIR."""
    if args.no_cache:
        return None
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    from .core.checkpoint import ResultCache

    return ResultCache(cache_dir)


def _parse_bytes(spec: str) -> int:
    """``512M``-style byte sizes (K/M/G suffixes, powers of 1024)."""
    spec = spec.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(spec[-1:].upper())
    try:
        if scale is not None:
            return int(float(spec[:-1]) * scale)
        return int(spec)
    except ValueError:
        raise ReproError(
            f"invalid byte size {spec!r} (expected e.g. 1048576, 512K, "
            "64M, 2G)") from None


def _cache_main(argv: list[str]) -> int:
    """The ``repro-maxt cache ls|clear|sweep`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-maxt cache",
        description="inspect, clear or sweep the content-addressed result "
        "cache")
    parser.add_argument("action", choices=("ls", "clear", "sweep"))
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: $REPRO_CACHE_DIR)")
    parser.add_argument("--max-bytes", default=None, metavar="SIZE",
                        help="sweep: evict least-recently-used entries "
                        "until the directory fits (accepts K/M/G suffixes)")
    parser.add_argument("--max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="sweep: evict entries not used for this long")
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("error: no cache directory (pass --cache-dir or set "
              "$REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    from .core.checkpoint import ResultCache

    cache = ResultCache(cache_dir)
    if args.action == "sweep":
        if args.max_bytes is None and args.max_age is None:
            print("error: sweep needs --max-bytes and/or --max-age",
                  file=sys.stderr)
            return 2
        try:
            max_bytes = (None if args.max_bytes is None
                         else _parse_bytes(args.max_bytes))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        removed = cache.sweep(max_bytes=max_bytes, max_age=args.max_age)
        print(f"evicted {removed} entries from {cache.directory}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"{cache.directory}: empty")
        return 0
    print(f"{cache.directory}: {len(entries)} entries")
    for e in entries:
        created = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(e.meta.get("created", 0)))
        print(f"  {e.key[:16]}  B={e.nperm:<8d} "
              f"test={e.meta.get('test', '?'):<10} "
              f"dtype={e.meta.get('dtype', '?'):<8} "
              f"m={e.meta.get('m', '?'):<6} {created}")
    return 0


def _serve_main(argv: list[str]) -> int:
    """The ``repro-maxt serve`` subcommand: run the HTTP service tier."""
    parser = argparse.ArgumentParser(
        prog="repro-maxt serve",
        description="serve pmaxT/pcor over HTTP from one resident worker pool "
        "(POST /v1/jobs, GET /v1/jobs/<id>, /healthz, /statsz)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8071,
                        help="bind port (default 8071; 0 picks a free one)")
    parser.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=available_backends(),
                        help="execution backend of the resident session")
    parser.add_argument("--ranks", type=int, default=2,
                        help="world size of the session (master included)")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="admission-queue depth before submissions are "
                        "rejected with 429 backpressure")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared result cache: repeated analyses are "
                        "answered from disk without occupying the session "
                        "(default: $REPRO_CACHE_DIR)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="default per-job execution deadline in seconds")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="tear the idle world down after this many seconds "
                        "(respawned on the next job)")
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    from .serve import PoolManager
    from .serve.http import serve_forever

    try:
        manager = PoolManager(
            args.backend, max(1, args.ranks), max_queue=args.max_queue,
            idle_timeout=args.idle_timeout, job_timeout=args.job_timeout,
            cache_dir=cache_dir,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    serve_forever(manager, args.host, args.port)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["cache"]:
        return _cache_main(argv[1:])
    if argv[:1] == ["serve"]:
        return _serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    session_stats = None
    try:
        X, classlabel, row_names = _load(args.dataset)
        cache = _resolve_cache(args)

        kwargs = dict(
            test=args.test,
            side=args.side,
            fixed_seed_sampling=args.fixed_seed_sampling,
            B=args.b,
            nonpara=args.nonpara,
            dtype=args.dtype,
            row_names=row_names,
            checkpoint_dir=args.checkpoint_dir,
            cache=cache,
            schedule=args.schedule,
        )
        if args.steal_block is not None:
            kwargs["steal_block"] = args.steal_block
        if args.seed is not None:
            kwargs["seed"] = args.seed

        if args.session:
            from .mpi import open_session

            with open_session(args.backend, max(1, args.ranks)) as world:
                handle = world.publish(X, labels=classlabel)
                result = pmaxT(handle, session=world, **kwargs)
                session_stats = world.stats()
        elif args.ranks <= 1 and args.backend == DEFAULT_BACKEND:
            result = pmaxT(X, classlabel, **kwargs)
        else:
            result = pmaxT(X, classlabel, backend=args.backend,
                           ranks=max(1, args.ranks), **kwargs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        write_result_tsv(args.out, result)

    if not args.quiet:
        kind = "complete enumeration" if result.complete else "random sampling"
        print(f"pmaxT: {result.m} genes x {X.shape[1]} samples, "
              f"test={result.test} side={result.side}, "
              f"B={result.nperm} ({kind}), {result.nranks} rank(s)")
        if result.profile is not None:
            total = result.profile.total()
            print(f"total time {total:.3f} s "
                  f"(kernel {result.profile.main_kernel:.3f} s)")
        sig = result.significant(0.05)
        print(f"significant at FWER 0.05: {len(sig)} genes")
        print()
        print(result.table(limit=args.top))
        if args.out:
            print(f"\nfull table written to {args.out}")

    if args.verbose:
        if cache is not None:
            s = cache.stats()
            print(f"\ncache {s['cache_dir']}: hits={s['cache_hits']} "
                  f"misses={s['cache_misses']} extended={s['cache_extended']}")
        if session_stats is not None:
            print("session: " + ", ".join(
                f"{k}={v}" for k, v in session_stats.items()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
