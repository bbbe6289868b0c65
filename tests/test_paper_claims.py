"""Traceability suite: the paper's textual claims, asserted against the code.

Each test quotes (or closely paraphrases) a specific claim from the paper
and verifies the reproduction honours it.  This is the map a reviewer would
use to audit the reproduction.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import mt_maxT, pmaxT
from repro.core.partition import partition_permutations
from repro.data import (
    multiclass_labels,
    synthetic_expression,
    two_class_labels,
)
from repro.mpi import run_spmd
from repro.stats import available_tests


class TestSection31SerialFunction:
    """Claims about mt.maxT (paper Section 3.1)."""

    def test_six_statistics(self):
        """'it supports six different methods for statistics'"""
        assert len(available_tests()) == 6

    def test_statistic_names(self):
        """'t, t.equalvar, Wilcoxon, f, Pair-t, Block-f'"""
        assert set(available_tests()) == {
            "t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf"
        }

    def test_two_generator_types(self):
        """'a random permutations generator (Monte-Carlo sampling) and a
        complete permutations generator'"""
        X, _ = synthetic_expression(10, 8, n_class1=4, seed=601)
        labels = two_class_labels(4, 4)
        random = mt_maxT(X, labels, B=50)
        complete = mt_maxT(X, labels, B=0)
        assert not random.complete and complete.complete

    def test_complete_limit_asks_for_smaller_b(self):
        """'In case the complete permutations exceed the maximum allowed
        limit, the user is asked to explicitly request a smaller number of
        permutations.'"""
        from repro.errors import CompletePermutationOverflow

        labels = two_class_labels(38, 38)
        with pytest.raises(CompletePermutationOverflow,
                           match="request a random sample"):
            mt_maxT(np.zeros((2, 76)), labels, B=0)

    def test_four_similar_statistics_share_generators(self):
        """'Four of the statistics methods (t, t.equalvar, Wilcoxon and f)
        ... use the same implementation of generators/store.'"""
        from repro.core.options import build_generator, validate_options
        from repro.permute import RandomLabelShuffle

        for test in ("t", "t.equalvar", "wilcoxon"):
            o = validate_options(two_class_labels(5, 5), test=test, B=40)
            gen = build_generator(o, two_class_labels(5, 5))
            assert isinstance(gen, RandomLabelShuffle), test
        o = validate_options(multiclass_labels([3, 3, 3]), test="f", B=40)
        assert isinstance(build_generator(o, multiclass_labels([3, 3, 3])),
                          RandomLabelShuffle)


class TestSection32ParallelDesign:
    """Claims about pmaxT's design (paper Section 3.2)."""

    def test_permutation_count_division(self):
        """'divides the permutation count into equal chunks and assigns
        them to the available processes'"""
        plan = partition_permutations(1_000, 7)
        counts = [c.count for c in plan.chunks]
        assert max(counts) - min(counts) <= 1

    def test_every_process_has_entire_dataset(self):
        """'each of which has access to the entire dataset' — workers
        supply no data of their own, receive the full matrix via the
        master's broadcast, and the job still reproduces the serial
        result (so every rank really computed on the whole dataset)."""
        X, _ = synthetic_expression(15, 10, n_class1=5, seed=602)
        labels = two_class_labels(5, 5)
        serial = mt_maxT(X, labels, B=30)

        def job(comm):
            if comm.is_master:
                return pmaxT(X, labels, B=30, comm=comm)
            return pmaxT(None, None, B=30, comm=comm)

        parallel = run_spmd(job, 3)[0]
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)

    def test_first_permutation_special(self):
        """'The first permutation depends on the initial labelling of the
        columns, and it is thus special. This permutation only needs to be
        taken into account once by the master process.'"""
        plan = partition_permutations(100, 4)
        owners = [plan.owner_of(0)]
        assert owners == [0]
        assert sum(1 for c in plan.chunks if c.includes_observed) == 1

    def test_generators_forward(self):
        """'the generators need to be forwarded to the appropriate
        permutation' — skip() exists on every generator type."""
        from repro.permute import (
            CompleteSigns,
            RandomLabelShuffle,
            RandomSigns,
        )

        for gen in (RandomLabelShuffle(two_class_labels(3, 3), 10),
                    RandomSigns(4, 10), CompleteSigns(4)):
            gen.skip(3)
            assert gen.position == 3

    def test_identical_interface(self):
        """'The interface of the pmaxT is identical to the interface of
        mt.maxT' — same parameter names and defaults."""
        serial = inspect.signature(mt_maxT)
        parallel = inspect.signature(pmaxT)
        shared = ["test", "side", "fixed_seed_sampling", "B", "na",
                  "nonpara"]
        for name in shared:
            assert serial.parameters[name].default == \
                parallel.parameters[name].default, name
        assert serial.parameters["B"].default == 10_000
        assert serial.parameters["test"].default == "t"
        assert serial.parameters["side"].default == "abs"
        assert serial.parameters["fixed_seed_sampling"].default == "y"
        assert serial.parameters["nonpara"].default == "n"

    def test_reproduces_serial_results(self):
        """'To be able to reproduce the same results as the serial
        version...' — the headline equivalence."""
        X, _ = synthetic_expression(25, 12, n_class1=6, seed=603)
        labels = two_class_labels(6, 6)
        serial = mt_maxT(X, labels, B=100, seed=604)
        parallel = run_spmd(
            lambda c: pmaxT(X, labels, B=100, seed=604, comm=c), 4)[0]
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)

    def test_step5_master_computes_pvalues(self):
        """'The master process gathers the partial observations and
        computes the raw and adjusted p-values' — workers return None."""
        X, _ = synthetic_expression(10, 8, n_class1=4, seed=605)
        labels = two_class_labels(4, 4)
        results = run_spmd(
            lambda c: pmaxT(X, labels, B=40, comm=c), 3)
        assert results[0] is not None
        assert results[1] is None and results[2] is None


class TestSection44Observations:
    """The benchmark observations (paper Section 4.4), via the simulator."""

    def test_memory_demand_independent_of_b_on_the_fly(self):
        """'When the permutations are generated on the fly, the
        implementation demands no extra memory in order to perform a
        higher permutation count.'"""
        from repro.core.options import build_generator, validate_options
        from repro.permute import StoredPermutations

        labels = two_class_labels(10, 10)
        small = build_generator(validate_options(labels, B=100), labels)
        large = build_generator(validate_options(labels, B=1_000_000),
                                labels)
        # on-the-fly generators hold no permutation matrix at all
        assert not isinstance(small, StoredPermutations)
        assert not isinstance(large, StoredPermutations)

    def test_doubling_data_doubles_time(self):
        """'doubling the input dataset size results in a close to doubling
        of the elapsed time' (Table VI discussion)."""
        from repro.cluster import get_platform, simulate_pmaxt

        platform = get_platform("hector")
        t1 = simulate_pmaxt(platform, 256, rows=36_612,
                            permutations=500_000).total
        t2 = simulate_pmaxt(platform, 256, rows=73_224,
                            permutations=500_000).total
        assert t2 / t1 == pytest.approx(2.0, abs=0.25)

    def test_faster_execution_reduces_failure_exposure(self):
        """'an implementation that performs the same amount of work faster
        is preferred' — combined with checkpointing (future work 1), a
        crash loses at most one checkpoint interval of work."""
        from repro.core.checkpoint import CheckpointStore

        # behavioural proxy: the checkpoint store records progress
        # monotonically, bounding lost work by the interval (tested in
        # depth in test_checkpoint.py).
        assert hasattr(CheckpointStore, "save")
        assert hasattr(CheckpointStore, "load")


class TestSection6FutureWork:
    """All three future-work items are implemented."""

    def test_item1_checkpointing(self):
        from repro.core.checkpoint import CheckpointStore

        params = inspect.signature(pmaxT).parameters
        assert "checkpoint_dir" in params and "checkpoint_interval" in params
        assert callable(CheckpointStore.load)

    def test_item2_inplace_transpose(self):
        from repro.core.transpose import transpose_inplace

        X = np.arange(12.0).reshape(3, 4)
        out = transpose_inplace(X.copy())
        np.testing.assert_array_equal(out, X.T)

    def test_item3_scalar_parameter_broadcast(self):
        """'The string input parameters can be replaced with scalar integer
        values before they are broadcast.'"""
        from repro.core.options import validate_options
        from repro.core.pmaxt import _pack_options

        o = validate_options(two_class_labels(4, 4), test="wilcoxon",
                             side="lower", B=30)
        packed = _pack_options(o)
        assert not any(isinstance(v, str) for v in packed)
