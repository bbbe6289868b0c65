#!/usr/bin/env python
"""The SPRINT framework experience (paper Figure 1) + fault tolerance.

Demonstrates the architecture the paper builds on: a master evaluating the
user's script while workers wait in the framework's command loop, parallel
functions dispatched by name from the SPRINT library, and — from the
paper's future-work list — checkpoint/restart of an interrupted run.

Run: ``python examples/sprint_session.py``
"""

import multiprocessing
import os
import signal
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import pmaxT
from repro.data import synthetic_expression, two_class_labels
from repro.sprint import SprintSession, default_registry, run_sprint


def main() -> None:
    X, _ = synthetic_expression(300, 24, n_class1=12, de_fraction=0.05,
                                effect_size=2.5, seed=17)
    labels = two_class_labels(12, 12)

    # --- the user-facing session: 'mpiexec -n 4 R -f script.R' in spirit --
    registry = default_registry()
    registry.register("gene_means", lambda comm, M: M.mean(axis=1)
                      if comm.is_master else None)

    with SprintSession(nprocs=4, registry=registry) as sprint:
        print(f"SPRINT session up: 1 master + {sprint.size - 1} workers")

        # the paper's function, dispatched through the framework
        res = sprint.pmaxT(X, labels, test="t", B=1_000)
        print(f"pmaxT via the framework: {res.nperm} permutations on "
              f"{res.nranks} ranks, top gene adjp = "
              f"{np.nanmin(res.adjp):.4f}")

        # the generic apply-style helper other parallel-R packages offer
        squares = sprint.call("papply", lambda x: x * x, list(range(8)))
        print(f"papply over the workers: {squares}")

        # user-registered parallel functions join the same library
        means = sprint.call("gene_means", X)
        print(f"custom registered function: {len(means)} gene means")

    print("session closed; workers released from the waiting loop\n")

    # --- the same program over real OS ranks ------------------------------
    # run_sprint executes the whole Figure-1 flow inside any registered
    # execution backend; "shm" gives true process isolation with the data
    # broadcast through zero-copy shared-memory segments.
    def script(master):
        return master.call("pmaxT", X, labels, test="t", B=1_000)

    res = run_sprint(script, backend="shm", ranks=4)
    print(f"run_sprint over the 'shm' backend: {res.nperm} permutations on "
          f"{res.nranks} OS ranks, top gene adjp = {np.nanmin(res.adjp):.4f}\n")

    # --- fault tolerance (paper future-work item 1) -----------------------
    # A checkpointed pmaxT survives losing the whole job, master included:
    # the master persists the block ledger (covered permutation ranges and
    # their summed counts) and a re-run resumes from it at any rank count.
    full = pmaxT(X, labels, B=2_000, seed=23)
    with tempfile.TemporaryDirectory() as ckpt:
        job = multiprocessing.get_context("spawn").Process(
            target=_long_checkpointed_run, args=(X, labels, ckpt))
        job.start()
        ledger = Path(ckpt) / "ledger.npz"
        while not ledger.exists() and job.is_alive():
            time.sleep(0.01)
        os.kill(job.pid, signal.SIGKILL)  # crash: no cleanup runs
        job.join(timeout=60)
        assert not job.is_alive()
        with np.load(ledger) as saved:
            print(f"job killed with {int(saved['nperm'])}/2000 permutations "
                  "checkpointed; resuming on 3 ranks...")

        res = pmaxT(X, labels, B=2_000, seed=23, backend="threads", ranks=3,
                    checkpoint_dir=ckpt, checkpoint_interval=250)
        assert np.array_equal(res.rawp, full.rawp)
        assert np.array_equal(res.adjp, full.adjp)
        print("resumed pmaxT result identical to the uninterrupted run — "
              "long analyses survive failures without losing work")


def _long_checkpointed_run(X, labels, ckpt):
    """A 2-rank checkpointed run, slowed to ~2 s by the test delay hook."""
    os.environ["REPRO_STEAL_TEST_DELAY"] = "*:0.002"
    pmaxT(X, labels, B=2_000, seed=23, backend="threads", ranks=2,
          checkpoint_dir=ckpt, checkpoint_interval=250)


if __name__ == "__main__":
    main()
