"""Compute-engine tests: registry, bit-identity, exact counts, plumbing.

The contract pinned here (see ``repro.accel``):

* permutation encoding streams are **bit-identical** across engines — the
  Philox keys are host-generated and unique, so any correct sort yields
  the reference permutation;
* kernel counts are int64-exact across engines for every statistic;
* the numpy engine's scoring path is the reference arithmetic itself, so
  whole pmaxT results match the serial driver bit for bit;
* a missing engine module fails fast with
  :class:`~repro.errors.EngineUnavailableError` (on the master, before
  any worker is involved), an unknown name with ``OptionError``.

Engine-parametrised tests run for every engine importable on this host:
numpy always, torch when installed (CPU is enough — the streams must be
bit-identical there too).  CUDA-only engines are exercised by the same
parametrisation on hosts that have them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import pmaxT
from repro.accel import (
    ENGINE_CHOICES,
    ArrayOps,
    NumpyEngine,
    TorchEngine,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.accel import _REGISTRY as _ENGINE_REGISTRY
from repro.cli import build_parser
from repro.core.kernel import KernelWorkspace, compute_observed, run_kernel
from repro.core.maxt import mt_maxT
from repro.core.options import build_generator, build_statistic, validate_options
from repro.corr import cor
from repro.errors import EngineUnavailableError, OptionError
from repro.mpi import open_session

#: Every engine this host can actually run, plus visible skips for the
#: optional ones it cannot.
ENGINE_PARAMS = [
    "numpy",
    pytest.param("torch", marks=pytest.mark.skipif(
        not TorchEngine.module_available(), reason="torch not installed")),
]


def _same(a, b):
    assert np.array_equal(a.teststat, b.teststat, equal_nan=True)
    assert np.array_equal(a.rawp, b.rawp, equal_nan=True)
    assert np.array_equal(a.adjp, b.adjp, equal_nan=True)
    assert np.array_equal(a.order, b.order)
    assert a.nperm == b.nperm


# -- registry and resolution ------------------------------------------------


class TestResolveEngine:
    def test_numpy_resolves_to_reference(self):
        ops = resolve_engine("numpy")
        assert isinstance(ops, NumpyEngine)
        assert ops.name == "numpy"
        assert ops.xp is np
        assert not ops.is_device

    def test_auto_prefers_device_engines_else_numpy(self):
        ops = resolve_engine("auto")
        has_device = any(_ENGINE_REGISTRY[n].module_available()
                         and _ENGINE_REGISTRY[n].device_available()
                         for n in ("cupy", "torch"))
        if has_device:
            assert ops.is_device
        else:
            assert isinstance(ops, NumpyEngine)

    def test_none_means_auto(self):
        assert type(resolve_engine(None)) is type(resolve_engine("auto"))

    def test_instance_passes_through(self):
        ops = NumpyEngine(batch_rows=128)
        assert resolve_engine(ops) is ops

    def test_unknown_engine_is_option_error(self):
        with pytest.raises(OptionError, match="unknown engine"):
            resolve_engine("fortran")

    def test_missing_module_is_engine_unavailable(self):
        missing = [n for n in ("torch", "cupy")
                   if not _ENGINE_REGISTRY[n].module_available()]
        if not missing:
            pytest.skip("every optional engine module is installed here")
        name = missing[0]
        with pytest.raises(EngineUnavailableError) as err:
            resolve_engine(name)
        assert err.value.engine == name
        # The message tells the user how to get it and what works now.
        assert f"repro[{name}]" in str(err.value)
        assert "numpy" in str(err.value)

    def test_available_engines_always_lists_numpy(self):
        assert "numpy" in available_engines()

    def test_engine_choices_cover_registry_defaults(self):
        assert set(ENGINE_CHOICES) == {"auto", "numpy", "torch", "cupy"}

    def test_batch_rows_reaches_the_engine(self):
        assert resolve_engine("numpy", batch_rows=512).batch_rows == 512

    def test_bad_batch_rows_rejected(self):
        with pytest.raises(OptionError, match="engine_batch"):
            resolve_engine("numpy", batch_rows=0)

    def test_register_engine_plugs_into_resolution(self):
        class FakeEngine(NumpyEngine):
            name = "fake-accel"

        register_engine(FakeEngine)
        try:
            assert isinstance(resolve_engine("fake-accel"), FakeEngine)
            with pytest.raises(OptionError, match="already registered"):
                register_engine(FakeEngine)
        finally:
            _ENGINE_REGISTRY.pop("fake-accel", None)

    def test_register_rejects_non_engines(self):
        with pytest.raises(OptionError):
            register_engine(dict)  # type: ignore[arg-type]

        class Nameless(ArrayOps):
            def fill_encodings(self, spec, start, count, out):
                raise NotImplementedError

        with pytest.raises(OptionError, match="name"):
            register_engine(Nameless)


class TestOptionPlumbing:
    def test_validate_options_rejects_unknown_engine(self, small_two_class):
        _, labels, _ = small_two_class
        with pytest.raises(OptionError, match="unknown engine"):
            validate_options(labels, engine="fortran")

    def test_validate_options_fails_fast_on_missing_module(
            self, small_two_class):
        missing = [n for n in ("torch", "cupy")
                   if not _ENGINE_REGISTRY[n].module_available()]
        if not missing:
            pytest.skip("every optional engine module is installed here")
        _, labels, _ = small_two_class
        with pytest.raises(EngineUnavailableError):
            validate_options(labels, engine=missing[0])

    def test_negative_engine_batch_rejected(self, small_two_class):
        _, labels, _ = small_two_class
        with pytest.raises(OptionError, match="engine_batch"):
            validate_options(labels, engine_batch=-1)

    def test_engine_never_enters_cache_or_checkpoint_keys(
            self, small_two_class, tmp_path, monkeypatch):
        from repro.core import pmaxt as pmaxt_module
        from repro.core.checkpoint import result_cache_key

        X, labels, _ = small_two_class
        plain = validate_options(labels, B=200)
        tuned = validate_options(labels, B=200, engine="numpy",
                                 engine_batch=2048)
        assert result_cache_key("fp", plain) == result_cache_key("fp", tuned)
        # Checkpoints are keyed by the cache key plus nperm: progress
        # saved under one engine resumes under another.
        real, calls = pmaxt_module.run_kernel, []

        def crash_on_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(pmaxt_module, "run_kernel", crash_on_third)
        with pytest.raises(RuntimeError, match="injected"):
            pmaxT(X, labels, B=200, engine="numpy", engine_batch=2048,
                  checkpoint_dir=str(tmp_path), checkpoint_interval=50)
        monkeypatch.setattr(pmaxt_module, "run_kernel", real)
        assert (tmp_path / "ledger.npz").exists()
        resumed = pmaxT(X, labels, B=200, checkpoint_dir=str(tmp_path),
                        checkpoint_interval=50)
        np.testing.assert_array_equal(resumed.adjp,
                                      pmaxT(X, labels, B=200).adjp)

    def test_cli_exposes_engine_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["data.csv", "--engine", "numpy", "--engine-batch", "2048"])
        assert args.engine == "numpy"
        assert args.engine_batch == 2048


# -- encoding bit-identity --------------------------------------------------


def _generator_pair(options, labels):
    """(engine-attached, reference) generators over the same stream."""
    return (build_generator(options, labels),
            build_generator(options, labels))


class TestEncodingBitIdentity:
    """Engine-filled encodings == reference keystream rows, bit for bit."""

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize("test,labels", [
        ("t", np.array([0] * 9 + [1] * 8)),
        ("pairt", np.array([0, 1] * 14)),
        ("blockf", np.tile(np.arange(3), 5)),
    ])
    def test_streams_match_reference(self, engine, test, labels):
        ops = resolve_engine(engine, batch_rows=64)
        options = validate_options(labels, test=test, B=700, seed=17)
        accel, ref = _generator_pair(options, labels)
        assert accel.attach_engine(ops) is True
        # Windows chosen to straddle engine batch boundaries and end on
        # an odd remainder.
        for count in (1, 63, 64, 170, 402):
            np.testing.assert_array_equal(accel.take_batch(count).copy(),
                                          ref.take_batch(count).copy())

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_attach_is_refused_without_fixed_seed(self, engine):
        labels = np.array([0] * 6 + [1] * 6)
        options = validate_options(labels, fixed_seed_sampling="n", B=50)
        gen = build_generator(options, labels)
        assert gen.attach_engine(resolve_engine(engine)) is False

    def test_attach_none_detaches(self):
        labels = np.array([0] * 6 + [1] * 6)
        options = validate_options(labels, B=50, seed=3)
        gen = build_generator(options, labels)
        assert gen.attach_engine(resolve_engine("numpy")) is True
        assert gen.attach_engine(None) is False
        ref = build_generator(options, labels)
        np.testing.assert_array_equal(gen.take_batch(40).copy(),
                                      ref.take_batch(40).copy())


# -- kernel parity ----------------------------------------------------------


_DESIGNS = ("t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf")


def _design(name, request):
    if name in ("t", "t.equalvar", "wilcoxon"):
        X, labels, _ = request.getfixturevalue("small_two_class")
    elif name == "f":
        X, labels = request.getfixturevalue("small_multiclass")
    elif name == "pairt":
        X, labels, _ = request.getfixturevalue("small_paired")
    else:
        X, labels, _ = request.getfixturevalue("small_blocked")
    return X, labels


class TestKernelParity:
    """run_kernel with an engine == the engine-less reference, exactly."""

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize("test", _DESIGNS)
    def test_counts_are_int64_exact(self, engine, test, request):
        X, labels = _design(test, request)
        options = validate_options(labels, test=test, B=300, seed=9)
        stat = build_statistic(options, X, labels)
        observed = compute_observed(stat, options.side)

        gen = build_generator(options, labels)
        count = min(300, gen.nperm)  # paired design enumerates completely
        ref = run_kernel(stat, gen, observed,
                         options.side, start=0, count=count, chunk_size=64)
        got = run_kernel(stat, build_generator(options, labels), observed,
                         options.side, start=0, count=count, chunk_size=64,
                         engine=resolve_engine(engine, batch_rows=128))
        np.testing.assert_array_equal(ref.raw, got.raw)
        np.testing.assert_array_equal(ref.adjusted, got.adjusted)
        assert ref.nperm == got.nperm

    @pytest.mark.parametrize("test", _DESIGNS)
    def test_numpy_engine_scores_bit_identical(self, test, request):
        """The numpy engine runs the literal reference arithmetic."""
        from repro.stats.base import WorkBuffers

        X, labels = _design(test, request)
        options = validate_options(labels, test=test, B=100, seed=2)
        stat = build_statistic(options, X, labels)
        gen = build_generator(options, labels)
        enc = gen.take_batch(64).copy()
        ref = stat.batch(enc, work=WorkBuffers())
        got = stat.batch(enc, work=WorkBuffers(resolve_engine("numpy")))
        np.testing.assert_array_equal(ref, got)

    def test_workspace_carries_engine_identity(self, small_two_class):
        X, labels, _ = small_two_class
        options = validate_options(labels, B=100)
        stat = build_statistic(options, X, labels)
        ops = resolve_engine("numpy", batch_rows=256)
        ws = KernelWorkspace.for_stat(stat, chunk_size=64, engine=ops,
                                      engine_batch=256)
        assert ws.compatible_with(stat, 64, engine=ops, engine_batch=256)
        assert not ws.compatible_with(stat, 64, engine=None)
        assert not ws.compatible_with(stat, 64, engine=ops,
                                      engine_batch=4096)


# -- whole-pipeline parity --------------------------------------------------


class TestPmaxTEngine:
    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_serial_matches_reference_driver(self, engine, dtype,
                                             small_two_class):
        X, labels, _ = small_two_class
        ref = mt_maxT(X, labels, B=400, seed=5, dtype=dtype)
        out = pmaxT(X, labels, B=400, seed=5, dtype=dtype, engine=engine)
        _same(ref, out)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_engine_batch_split_changes_nothing(self, engine,
                                                small_two_class):
        X, labels, _ = small_two_class
        ref = pmaxT(X, labels, B=500, seed=5, engine="numpy")
        out = pmaxT(X, labels, B=500, seed=5, engine=engine,
                    engine_batch=96, chunk_size=50)
        _same(ref, out)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_multirank_backend_matches_serial(self, engine, small_two_class):
        X, labels, _ = small_two_class
        ref = mt_maxT(X, labels, B=300, seed=5)
        out = pmaxT(X, labels, B=300, seed=5, engine=engine,
                    backend="threads", ranks=3)
        _same(ref, out)

    def test_session_keeps_engine_resident(self, small_two_class):
        from repro.mpi.session import resident_cache

        X, labels, _ = small_two_class
        ref = mt_maxT(X, labels, B=300, seed=5)
        with open_session("threads", 2) as ses:
            _same(ref, pmaxT(X, labels, B=300, seed=5, engine="numpy",
                             session=ses))
            _same(ref, pmaxT(X, labels, B=300, seed=5, engine="numpy",
                             session=ses))

            def probe(comm):
                cache = resident_cache()
                resident = cache.get("compute_engine")
                return None if resident is None else (
                    resident[0], resident[1].name)

            states = ses.run(probe)
            assert all(s == (("numpy", None), "numpy") for s in states)

    def test_pmaxt_rejects_unknown_engine(self, small_two_class):
        X, labels, _ = small_two_class
        with pytest.raises(OptionError, match="unknown engine"):
            pmaxT(X, labels, B=50, engine="fortran")

    def test_pmaxt_fails_fast_on_missing_engine(self, small_two_class):
        missing = [n for n in ("torch", "cupy")
                   if not _ENGINE_REGISTRY[n].module_available()]
        if not missing:
            pytest.skip("every optional engine module is installed here")
        X, labels, _ = small_two_class
        with pytest.raises(EngineUnavailableError):
            pmaxT(X, labels, B=50, engine=missing[0])


class TestCorEngine:
    @pytest.mark.parametrize("use", ["everything", "complete"])
    def test_numpy_engine_is_bit_identical(self, use, rng):
        X = rng.normal(size=(25, 14))
        X[1, 3] = np.nan
        ref = cor(X, use=use)
        np.testing.assert_array_equal(ref, cor(X, use=use, engine="numpy"))

    @pytest.mark.skipif(not TorchEngine.module_available(),
                        reason="torch not installed")
    def test_torch_engine_matches_reference_closely(self, rng):
        X = rng.normal(size=(25, 14))
        np.testing.assert_allclose(cor(X), cor(X, engine="torch"),
                                   rtol=1e-12, atol=1e-12)

    def test_unknown_engine_rejected(self, rng):
        X = rng.normal(size=(5, 6))
        with pytest.raises(OptionError, match="unknown engine"):
            cor(X, engine="fortran")
