"""Measured benchmark: the packed permutation fill against the reference.

The fixed-seed label and block shuffles fill their batches through the
value-packed sort of :class:`repro.permute.keystream.LayoutFill`.  This
times that production path against the reference ``argsort``
constructions (``label_permutations``, ``block_permutations``) over the
same permutation indices, consumed in kernel-sized batches exactly as
``run_kernel`` consumes them.  The rows
are asserted bit-identical before either timing means anything.

Each family's ``speedup`` is the median over rounds of reference time /
packed time, the two sides timed back to back in alternating order.  It
feeds ``check_bench_regression.py`` with a tolerance tight enough that a
ratio of 1.0 (the packed sort reverted to the reference) fails.  The
default 76 samples is the paper's array count; the win depends on the
width and the batch.  At the kernel's 256-row batches, four runs on the
2-core host that recorded ``BENCH_accel.json`` read 1.31-1.43x for label
shuffles and 1.44-1.54x for block shuffles, against 1.14x and 1.44x at
64-row batches: the per-call Philox set-up both sides pay weighs less
in a wider batch.

The whole-kernel effect is small: on a 2-core host (6102x76 Welch t,
4000 permutations, BLAS capped at 1) the kernel ran in 0.807 s with the
packed fill against 0.845 s with the reference (1.05x), because
generation is a small share of the kernel.

Run standalone (writes ``BENCH_accel.json`` at the repository root)::

    PYTHONPATH=src python benchmarks/bench_accel.py
    PYTHONPATH=src python benchmarks/bench_accel.py --samples 100 --b-perm 4000

or through pytest (small workload, asserts parity and the win)::

    PYTHONPATH=src python -m pytest benchmarks/bench_accel.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.kernel import DEFAULT_CHUNK
from repro.permute import RandomBlockShuffle, RandomLabelShuffle
from repro.permute import keystream

DEFAULT_SAMPLES = 76
DEFAULT_B_PERM = 10_000
DEFAULT_REPEATS = 15
RESULT_FILE = "BENCH_accel.json"
SEED = 3455660
BLOCK_K = 4


def _elapsed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired(reference, packed, rounds):
    """Time both sides once per round, alternating which goes first, so a
    drift in host load moves both sides of a round together.  Returns the
    best time of each side and the median of the per-round ratios."""
    reference()
    packed()
    ref_s, packed_s = [], []
    for i in range(rounds):
        if i % 2:
            packed_s.append(_elapsed(packed))
            ref_s.append(_elapsed(reference))
        else:
            ref_s.append(_elapsed(reference))
            packed_s.append(_elapsed(packed))
    ratio = float(np.median(np.divide(ref_s, packed_s)))
    return min(ref_s), min(packed_s), ratio


def _families(n_samples: int, nperm: int) -> dict:
    """``name -> (generator, reference(start, count) -> rows)``."""
    from repro.data import block_labels, two_class_labels

    labels = two_class_labels(n_samples // 2, n_samples - n_samples // 2)
    blocks = block_labels(max(2, n_samples // BLOCK_K), BLOCK_K)
    return {
        "label_shuffle": (
            RandomLabelShuffle(labels, nperm, seed=SEED),
            lambda start, count: keystream.label_permutations(
                SEED, start, count, labels)),
        "block_shuffle": (
            RandomBlockShuffle(blocks, BLOCK_K, nperm, seed=SEED),
            lambda start, count: keystream.block_permutations(
                SEED, start, count, blocks.reshape(-1, BLOCK_K))),
    }


def measure(n_samples=DEFAULT_SAMPLES, b_perm=DEFAULT_B_PERM,
            repeats=DEFAULT_REPEATS) -> dict:
    batch = DEFAULT_CHUNK
    fills = {}
    for name, (gen, reference) in _families(n_samples, b_perm + 1).items():
        buf = np.empty((batch, gen.width), dtype=np.int64)
        starts = range(1, b_perm + 1, batch)

        # Bit-identity guard over the whole timed range.
        gen.reset()
        gen.skip(1)
        for start in starts:
            nb = min(batch, b_perm + 1 - start)
            assert np.array_equal(gen.take_batch(nb, out=buf),
                                  reference(start, nb)), name

        def packed():
            gen.reset()
            gen.skip(1)
            for start in starts:
                gen.take_batch(min(batch, b_perm + 1 - start), out=buf)

        def argsort_reference():
            for start in starts:
                nb = min(batch, b_perm + 1 - start)
                buf[:nb] = reference(start, nb)

        reference_s, packed_s, speedup = _paired(argsort_reference, packed,
                                                 repeats)
        fills[name] = {
            "reference_s": reference_s,
            "packed_s": packed_s,
            "speedup": speedup,
            "perms_per_s": b_perm / packed_s,
        }
    return {
        "benchmark": "permutation_fill",
        "host": {"cores": os.cpu_count(), "numpy": np.__version__},
        "samples": n_samples,
        "b_perm": b_perm,
        "batch": batch,
        "repeats": repeats,
        "fills": fills,
    }


def test_packed_fill_parity_and_win():
    """Smoke acceptance at reduced scale: exact parity, both fills win."""
    result = measure(b_perm=4_000)
    for family, row in result["fills"].items():
        assert row["speedup"] > 1.0, (family, result["fills"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the packed permutation fill against the "
        "reference argsort constructions.")
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--b-perm", type=int, default=DEFAULT_B_PERM)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: {RESULT_FILE} "
                        "in the repository root)")
    args = parser.parse_args(argv)

    result = measure(args.samples, args.b_perm, args.repeats)

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / RESULT_FILE
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")

    print(f"{args.samples} samples, B_perm={args.b_perm}, "
          f"batch={result['batch']}, {args.repeats} rounds "
          "(best times, median ratio)")
    for family, row in result["fills"].items():
        print(f"  {family:14s}"
              f" reference {row['reference_s'] * 1e3:8.1f} ms"
              f"   packed {row['packed_s'] * 1e3:8.1f} ms"
              f"   speedup {row['speedup']:5.2f}x"
              f"   ({row['perms_per_s'] / 1e3:.0f}k perms/s)")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
