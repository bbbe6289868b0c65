"""Tests for dataset/result I/O and the repro-maxt CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro import mt_maxT
from repro.cli import main as cli_main
from repro.data import inject_missing, synthetic_expression, two_class_labels
from repro.data.io import (
    load_dataset_csv,
    load_dataset_npz,
    save_dataset_csv,
    save_dataset_npz,
    write_result_tsv,
)
from repro.errors import DataError


@pytest.fixture()
def dataset():
    X, _ = synthetic_expression(20, 10, n_class1=5, seed=401)
    X = inject_missing(X, 0.05, seed=402)
    labels = two_class_labels(5, 5)
    names = [f"g{i:03d}" for i in range(20)]
    return X, labels, names


class TestNpzRoundtrip:
    def test_roundtrip(self, tmp_path, dataset):
        X, labels, names = dataset
        path = tmp_path / "data.npz"
        save_dataset_npz(path, X, labels, names)
        X2, labels2, names2 = load_dataset_npz(path)
        np.testing.assert_array_equal(np.isnan(X), np.isnan(X2))
        np.testing.assert_allclose(X[~np.isnan(X)], X2[~np.isnan(X2)])
        np.testing.assert_array_equal(labels, labels2)
        assert names2 == names

    def test_without_names(self, tmp_path, dataset):
        X, labels, _ = dataset
        path = tmp_path / "data.npz"
        save_dataset_npz(path, X, labels)
        _, _, names = load_dataset_npz(path)
        assert names is None

    def test_validates_label_length(self, tmp_path, dataset):
        X, _, _ = dataset
        with pytest.raises(DataError):
            save_dataset_npz(tmp_path / "x.npz", X, np.zeros(3, dtype=int))


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, dataset):
        X, labels, names = dataset
        path = tmp_path / "data.csv"
        save_dataset_csv(path, X, labels, names)
        X2, labels2, names2 = load_dataset_csv(path)
        np.testing.assert_array_equal(np.isnan(X), np.isnan(X2))
        np.testing.assert_allclose(X[~np.isnan(X)], X2[~np.isnan(X2)],
                                   rtol=1e-15)
        np.testing.assert_array_equal(labels, labels2)
        assert names2 == names

    def test_na_cells_written_as_NA(self, tmp_path, dataset):
        X, labels, names = dataset
        path = tmp_path / "data.csv"
        save_dataset_csv(path, X, labels, names)
        assert "NA" in path.read_text()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gene,sampleA,sampleB\ng1,1.0,2.0\n")
        with pytest.raises(DataError, match="class"):
            load_dataset_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gene,class0,class1\ng1,1.0\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_dataset_csv(path)

    def test_rejects_bad_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gene,class0,class1\ng1,1.0,banana\n")
        with pytest.raises(DataError, match="bad numeric cell"):
            load_dataset_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset_csv(path)


class TestResultTsv:
    def test_written_in_significance_order(self, tmp_path, dataset):
        X, labels, names = dataset
        res = mt_maxT(X, labels, B=100, row_names=names)
        out = tmp_path / "res.tsv"
        write_result_tsv(out, res)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["gene", "index", "teststat",
                                        "rawp", "adjp"]
        assert len(lines) == 21
        first = lines[1].split("\t")
        assert int(first[1]) - 1 == res.order[0]

    def test_nan_rows_written_as_NA(self, tmp_path):
        X = np.random.default_rng(403).normal(size=(5, 8))
        X[2] = 1.0
        res = mt_maxT(X, two_class_labels(4, 4), B=50)
        out = tmp_path / "res.tsv"
        write_result_tsv(out, res)
        assert "NA" in out.read_text()


class TestCli:
    @pytest.fixture()
    def csv_path(self, tmp_path, dataset):
        X, labels, names = dataset
        path = tmp_path / "data.csv"
        save_dataset_csv(path, X, labels, names)
        return path

    def test_basic_run(self, csv_path, capsys):
        assert cli_main([str(csv_path), "--b", "100"]) == 0
        out = capsys.readouterr().out
        assert "pmaxT: 20 genes x 10 samples" in out
        assert "B=100" in out

    def test_writes_tsv(self, csv_path, tmp_path, capsys):
        out_path = tmp_path / "result.tsv"
        assert cli_main([str(csv_path), "--b", "100", "--out",
                         str(out_path), "--quiet"]) == 0
        assert out_path.exists()
        assert capsys.readouterr().out == ""

    def test_parallel_matches_serial(self, csv_path, tmp_path):
        a = tmp_path / "serial.tsv"
        b = tmp_path / "parallel.tsv"
        assert cli_main([str(csv_path), "--b", "100", "--out", str(a),
                         "--quiet"]) == 0
        assert cli_main([str(csv_path), "--b", "100", "--procs", "3",
                         "--out", str(b), "--quiet"]) == 0
        assert a.read_text() == b.read_text()

    def test_npz_input(self, tmp_path, dataset):
        X, labels, names = dataset
        path = tmp_path / "data.npz"
        save_dataset_npz(path, X, labels, names)
        assert cli_main([str(path), "--b", "50", "--quiet",
                         "--out", str(tmp_path / "r.tsv")]) == 0

    def test_complete_enumeration(self, csv_path, capsys):
        assert cli_main([str(csv_path), "--b", "0"]) == 0
        assert "complete enumeration" in capsys.readouterr().out

    def test_bad_extension(self, tmp_path, capsys):
        path = tmp_path / "data.xlsx"
        path.write_text("x")
        assert cli_main([str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_option_reported(self, csv_path, capsys):
        assert cli_main([str(csv_path), "--b", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_checkpoint_flag(self, csv_path, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert cli_main([str(csv_path), "--b", "100", "--quiet",
                         "--checkpoint-dir", str(ckpt),
                         "--out", str(tmp_path / "r.tsv")]) == 0

    @pytest.mark.parametrize("serve", [False, True], ids=["run", "serve"])
    def test_removed_blas_threads_flag_fails(self, csv_path, capsys, serve):
        """A script still passing the flag fails instead of losing it."""
        argv = ["serve"] if serve else [str(csv_path), "--b", "50"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--blas-threads", "1"])
        assert exc.value.code == 2
        assert "--blas-threads" in capsys.readouterr().err

    @pytest.mark.parametrize("serve", [False, True], ids=["run", "serve"])
    def test_removed_processes_backend_fails(self, csv_path, capsys, serve):
        """``--backend processes`` is rejected; ``shm`` is the forked world."""
        argv = ["serve"] if serve else [str(csv_path), "--b", "50"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--backend", "processes"])
        assert exc.value.code == 2
        assert "invalid choice: 'processes'" in capsys.readouterr().err

    def test_removed_pools_flag_fails(self, capsys):
        """``serve --pools`` is rejected: the service runs one session."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["serve", "--pools", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pools 2" in capsys.readouterr().err

    def test_wilcoxon_upper(self, csv_path, capsys):
        assert cli_main([str(csv_path), "--test", "wilcoxon", "--side",
                         "upper", "--b", "80"]) == 0
        out = capsys.readouterr().out
        assert "test=wilcoxon side=upper" in out
