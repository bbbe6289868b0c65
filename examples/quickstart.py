#!/usr/bin/env python
"""Quickstart: serial and parallel maxT permutation testing.

Generates a small synthetic two-class expression matrix with a handful of
planted differentially expressed genes, runs the serial ``mt_maxT`` (the
multtest reference), then the parallel ``pmaxT`` on an in-process 4-rank
world, and verifies the paper's headline property — the results are
identical.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro import mt_maxT, pmaxT
from repro.data import synthetic_expression, two_class_labels
from repro.mpi import available_backends


def main() -> None:
    # --- data: 500 genes x 20 samples, 10 control vs 10 treated ----------
    X, truth = synthetic_expression(
        n_genes=500, n_samples=20, n_class1=10,
        de_fraction=0.04, effect_size=3.0, seed=42,
    )
    labels = two_class_labels(10, 10)
    print(f"dataset: {X.shape[0]} genes x {X.shape[1]} samples, "
          f"{truth.n_de} genes truly differential")

    # --- serial run (identical interface to R's mt.maxT) -----------------
    serial = mt_maxT(X, labels, test="t", side="abs", B=2_000)
    print(f"\nserial mt_maxT: B={serial.nperm} permutations")
    print(serial.table(limit=8))

    # --- parallel run: same call + an execution backend -------------------
    # Any name from the backend registry works here: "threads" (in-process)
    # or "shm" (forked ranks, zero-copy shared-memory broadcasts).
    print(f"\nregistered execution backends: {', '.join(available_backends())}")
    parallel = pmaxT(X, labels, test="t", side="abs", B=2_000,
                     backend="threads", ranks=4)
    assert np.array_equal(serial.rawp, parallel.rawp)
    assert np.array_equal(serial.adjp, parallel.adjp)
    print(f"pmaxT on {parallel.nranks} ranks: results identical to serial "
          "(the paper's reproducibility guarantee)")

    shm_run = pmaxT(X, labels, test="t", side="abs", B=2_000,
                    backend="shm", ranks=4)
    assert np.array_equal(serial.adjp, shm_run.adjp)
    print("pmaxT on the 'shm' backend (OS processes, zero-copy broadcast): "
          "identical again")

    p = parallel.profile
    print("\nfive-section profile (the columns of the paper's Tables I-V):")
    for name, seconds in zip(
            ("pre-processing", "broadcast parameters", "create data",
             "main kernel", "compute p-values"), p.as_row()):
        print(f"  {name:<22} {seconds * 1000:8.2f} ms")

    # --- did we find the planted genes? -----------------------------------
    hits = parallel.significant(alpha=0.05)
    true_set = set(truth.de_genes.tolist())
    print(f"\nsignificant at FWER 0.05: {len(hits)} genes "
          f"({len(set(hits.tolist()) & true_set)} of {truth.n_de} planted)")


if __name__ == "__main__":
    main()
