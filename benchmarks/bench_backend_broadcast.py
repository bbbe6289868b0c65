"""Measured benchmark: pickled vs shared-memory array broadcast.

The claim of the ``shm`` backend is that it removes the dominant non-kernel
cost of a process-world pmaxT run — the "create data" broadcast of the
expression matrix (paper Tables I–V) — by replacing per-worker
pickle-pipe-unpickle round trips with a single copy into a
``multiprocessing.shared_memory`` segment that every rank maps zero-copy.
This benchmark times exactly that collective in one ``shm`` world: the
matrix pickled through every worker's queue (``comm.bcast``) against
``comm.bcast_array``.  The two sides run in alternating rounds, so a drift
in host load moves both sides of a round together; ``bcast_speedup`` is the
median of the per-round ratios, written to ``BENCH_backend.json``.

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


def _bcast_job(X, repeats):
    """SPMD job: master-timed pickled and segment broadcasts of ``X``.

    One untimed warm-up of each side, then ``repeats`` rounds that time
    both sides, alternating which goes first.  The master returns the
    per-round ``(pickled_s, shm_s)`` lists.
    """

    def timed(comm, pickled):
        payload = X if comm.is_master else None
        comm.barrier()
        start = time.perf_counter()
        data = comm.bcast(payload) if pickled else comm.bcast_array(payload)
        comm.barrier()
        elapsed = time.perf_counter() - start
        assert data.shape == X.shape
        return elapsed

    def job(comm):
        timed(comm, True)
        timed(comm, False)
        pickled_s, shm_s = [], []
        for i in range(repeats):
            for pickled in ((False, True) if i % 2 else (True, False)):
                (pickled_s if pickled else shm_s).append(timed(comm, pickled))
        return (pickled_s, shm_s) if comm.is_master else None

    return job


def measure(n_genes=DEFAULT_GENES, n_samples=DEFAULT_SAMPLES,
            ranks=DEFAULT_RANKS, repeats=DEFAULT_REPEATS, seed=3) -> dict:
    """Time both broadcast routes in one ``shm`` world."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_genes, n_samples))
    pickled_s, shm_s = run_backend("shm", _bcast_job(X, repeats), ranks)[0]
    return {
        "benchmark": "backend_broadcast",
        "matrix": [n_genes, n_samples],
        "dtype": "float64",
        "payload_mb": X.nbytes / 1e6,
        "ranks": ranks,
        "repeats": repeats,
        "pickled_bcast_s": min(pickled_s),
        "shm_bcast_s": min(shm_s),
        "bcast_speedup": float(np.median(np.divide(pickled_s, shm_s))),
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
          f"{result['repeats']} rounds (best times, median ratio)")
    print(f"  broadcast   pickled {result['pickled_bcast_s'] * 1e3:8.2f} ms"
          f"   shm {result['shm_bcast_s'] * 1e3:8.2f} ms"
          f"   speedup {result['bcast_speedup']:.2f}x")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
