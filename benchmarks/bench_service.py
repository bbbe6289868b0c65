"""Measured benchmark: service-tier throughput, latency, cache answers.

The service tier (:mod:`repro.serve`) runs pmaxT jobs one at a time on one
resident session.  This benchmark drives a :class:`~repro.serve.PoolManager`
with a burst of independent pmaxT jobs and records jobs/s plus P50/P99
end-to-end latency (admission to result), and the cache short-circuit win:
an exactly repeated analysis answered from the result cache without
touching the session, versus the cold session-computed run.  The
comparison is written to ``BENCH_service.json``.

``cache_hit_speedup`` is the scale-free ratio the CI bench-regression gate
defends; the burst is informational (its absolute rate depends on the
runner's core count).

Run standalone (writes the JSON next to the repository root)::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --genes 2000 --jobs 16

or through pytest (acceptance shape: a measured burst and a real cache
win)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import synthetic_expression, two_class_labels
from repro.serve import PoolManager

# The acceptance shape: a burst of moderate pmaxT jobs, distinct seeds so
# every job is real work.  A thread world keeps the measurement about the
# service layer (admission, queue, dispatch) rather than process-spawn
# noise.
DEFAULT_GENES = 500
DEFAULT_SAMPLES = 40
DEFAULT_RANKS = 2
DEFAULT_B = 500
DEFAULT_JOBS = 8
DEFAULT_BACKEND = "threads"
RESULT_FILE = "BENCH_service.json"


def _run_burst(manager: PoolManager, X, labels, B: int, jobs: int) -> dict:
    """Submit ``jobs`` distinct pmaxT analyses; return throughput/latency."""
    start = time.perf_counter()
    handles = [
        manager.submit_pmaxt(X, labels, B=B, seed=1_000 + i)
        for i in range(jobs)
    ]
    for job in handles:
        job.result(timeout=600)
    wall = time.perf_counter() - start
    latencies = sorted(j.finished_at - j.submitted_at for j in handles)
    return {
        "jobs_per_s": jobs / wall,
        "wall_s": wall,
        "p50_latency_s": float(np.percentile(latencies, 50)),
        "p99_latency_s": float(np.percentile(latencies, 99)),
    }


def measure(
    n_genes=DEFAULT_GENES,
    n_samples=DEFAULT_SAMPLES,
    ranks=DEFAULT_RANKS,
    B=DEFAULT_B,
    jobs=DEFAULT_JOBS,
    backend=DEFAULT_BACKEND,
    seed=5,
) -> dict:
    """Time a burst through the service; measure the cache answer win."""
    X, _ = synthetic_expression(
        n_genes, n_samples, n_class1=n_samples // 2, de_fraction=0.1, seed=seed
    )
    labels = two_class_labels(n_samples // 2, n_samples - n_samples // 2)

    # Burst: distinct jobs, no cache — every job is computed.  One warm-up
    # job first, so the burst times dispatch over a warm session, not
    # first-touch costs.
    with PoolManager(backend, ranks, max_queue=jobs + 1) as manager:
        manager.submit_pmaxt(X, labels, B=50, seed=1).result(timeout=600)
        burst = _run_burst(manager, X, labels, B, jobs)

    # Cache short-circuit: the first submission computes and populates the
    # cache; the exact repeat is answered from disk at admission time
    # without reaching the session.  The ratio is the gated claim.
    with tempfile.TemporaryDirectory() as cache_dir:
        with PoolManager(
            backend, ranks, max_queue=4, cache_dir=cache_dir
        ) as manager:
            manager.submit_pmaxt(X, labels, B=50, seed=1).result(timeout=600)
            cold_job = manager.submit_pmaxt(X, labels, B=B, seed=2_000)
            cold = cold_job.result(timeout=600)
            cold_s = cold_job.finished_at - cold_job.submitted_at
            hit_job = manager.submit_pmaxt(X, labels, B=B, seed=2_000)
            hit = hit_job.result(timeout=600)
            hit_s = hit_job.finished_at - hit_job.submitted_at
            assert hit_job.cached and not cold_job.cached
            assert manager.stats()["cache_answers"] == 1

    np.testing.assert_array_equal(cold.adjp, hit.adjp)  # same answer

    return {
        "benchmark": "service",
        "matrix": [n_genes, n_samples],
        "B": B,
        "ranks": ranks,
        "backend": backend,
        "jobs": jobs,
        "burst": burst,
        "cold_job_s": cold_s,
        "cache_answer_s": hit_s,
        "cache_hit_speedup": cold_s / hit_s,
    }


def test_service_burst_and_cache_win():
    """A measured burst and a real cache win."""
    result = measure(n_genes=300, n_samples=24, B=300, jobs=4)
    burst = result["burst"]
    assert burst["jobs_per_s"] > 0
    assert burst["p50_latency_s"] <= burst["p99_latency_s"]
    assert result["cache_hit_speedup"] > 1.0, (
        f"cache-answered job ({result['cache_answer_s']:.4f}s) should beat "
        f"the cold pool-computed job ({result['cold_job_s']:.4f}s)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure service-tier throughput/latency and the "
        "result-cache short-circuit win."
    )
    parser.add_argument("--genes", type=int, default=DEFAULT_GENES)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--ranks", type=int, default=DEFAULT_RANKS)
    parser.add_argument("--b", type=int, default=DEFAULT_B, dest="B")
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help="burst size")
    parser.add_argument("--backend", default=DEFAULT_BACKEND)
    parser.add_argument(
        "--out",
        default=None,
        help=f"output JSON path (default: {RESULT_FILE} in the repository root)",
    )
    args = parser.parse_args(argv)

    result = measure(
        args.genes, args.samples, args.ranks, args.B, args.jobs, args.backend,
    )

    out = (
        Path(args.out)
        if args.out
        else Path(__file__).resolve().parent.parent / RESULT_FILE
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")

    print(
        f"service: pmaxT {result['matrix'][0]}x{result['matrix'][1]}, "
        f"B={result['B']}, {result['jobs']} jobs/burst, "
        f"ranks={result['ranks']} on '{result['backend']}'"
    )
    burst = result["burst"]
    print(
        f"  burst: {burst['jobs_per_s']:6.2f} jobs/s  "
        f"P50 {burst['p50_latency_s'] * 1e3:7.1f} ms  "
        f"P99 {burst['p99_latency_s'] * 1e3:7.1f} ms"
    )
    print(
        f"  cache answer {result['cache_answer_s'] * 1e3:.1f} ms vs cold "
        f"{result['cold_job_s'] * 1e3:.1f} ms "
        f"({result['cache_hit_speedup']:.1f}x)"
    )
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
