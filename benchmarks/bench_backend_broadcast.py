"""Measured benchmark: pickled vs shared-memory array broadcast.

The tentpole claim of the execution-backend layer is that the ``shm``
backend removes the dominant non-kernel cost of a process-world pmaxT run —
the "create data" broadcast of the expression matrix (paper Tables I–V) —
by replacing per-worker pickle-pipe-unpickle round trips with a single
copy into a ``multiprocessing.shared_memory`` segment that every rank maps
zero-copy.  This benchmark times exactly that collective on both process
backends and writes the comparison to ``BENCH_backend.json`` so the
performance trajectory captures the gap.

Run standalone (writes the JSON next to the repository root)::

    PYTHONPATH=src python benchmarks/bench_backend_broadcast.py
    PYTHONPATH=src python benchmarks/bench_backend_broadcast.py \
        --genes 10000 --samples 200 --ranks 8 --repeats 5

or through pytest (small workload, asserts the shm win)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend_broadcast.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.mpi import run_backend

# ≥ 5000x100 float64 per the acceptance criterion; the defaults are larger
# so the gap is unmistakable on a noisy machine.  The pickled path pays per
# *worker* (one pipe round trip each) while the shm path is one memcpy
# total, so more ranks widen the gap.
DEFAULT_GENES = 8_000
DEFAULT_SAMPLES = 200
DEFAULT_RANKS = 8
DEFAULT_REPEATS = 3
RESULT_FILE = "BENCH_backend.json"


def _bcast_job(X, repeats, pickled):
    """SPMD job: master-timed broadcast of ``X``, best of ``repeats``."""

    def job(comm):
        best = float("inf")
        for _ in range(repeats):
            comm.barrier()
            start = time.perf_counter()
            if pickled:
                data = comm.bcast(X if comm.is_master else None)
            else:
                data = comm.bcast_array(X if comm.is_master else None)
            comm.barrier()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            assert data.shape == X.shape
        return best if comm.is_master else None

    return job


def measure(n_genes=DEFAULT_GENES, n_samples=DEFAULT_SAMPLES,
            ranks=DEFAULT_RANKS, repeats=DEFAULT_REPEATS, seed=3) -> dict:
    """Time the data broadcast on both process worlds."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_genes, n_samples))

    timings = {}
    # The "processes" row uses the generic object path (comm.bcast), i.e.
    # the pre-refactor wire: a pickled matrix through every rank's queue.
    # The "shm" row uses bcast_array over shared memory.
    for backend, pickled in (("processes", True), ("shm", False)):
        timings[backend] = run_backend(
            backend, _bcast_job(X, repeats, pickled), ranks)[0]

    return {
        "benchmark": "backend_broadcast",
        "matrix": [n_genes, n_samples],
        "dtype": "float64",
        "payload_mb": X.nbytes / 1e6,
        "ranks": ranks,
        "repeats": repeats,
        "pickled_bcast_s": timings["processes"],
        "shm_bcast_s": timings["shm"],
        "bcast_speedup": timings["processes"] / timings["shm"],
    }


def test_shm_broadcast_beats_pickled():
    """Acceptance: zero-copy broadcast wins on a ≥5000x100 float64 matrix."""
    result = measure(n_genes=5_000, n_samples=100, ranks=8, repeats=3)
    assert result["bcast_speedup"] > 1.0, (
        f"shm broadcast ({result['shm_bcast_s']:.4f}s) should beat the "
        f"pickled one ({result['pickled_bcast_s']:.4f}s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time pickled vs shared-memory array broadcast.")
    parser.add_argument("--genes", type=int, default=DEFAULT_GENES)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--ranks", type=int, default=DEFAULT_RANKS)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: {RESULT_FILE} "
                        "in the repository root)")
    args = parser.parse_args(argv)

    result = measure(args.genes, args.samples, args.ranks, args.repeats)

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / RESULT_FILE
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")

    print(f"matrix {result['matrix'][0]}x{result['matrix'][1]} float64 "
          f"({result['payload_mb']:.1f} MB), {result['ranks']} ranks, "
          f"best of {result['repeats']}")
    print(f"  broadcast   pickled {result['pickled_bcast_s'] * 1e3:8.2f} ms"
          f"   shm {result['shm_bcast_s'] * 1e3:8.2f} ms"
          f"   speedup {result['bcast_speedup']:.1f}x")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
