"""Tests for the plain-text matrix format and annotated CSV tables."""
import numpy as np
import pytest

from sepnet import isotropic
from sepnet.io import (
    append_comments,
    format_complex,
    read_matrix,
    read_table,
    write_matrix,
    write_table,
)


class TestMatrixFormat:
    def test_format_complex(self):
        assert format_complex(1.5 - 0.25j) == "1.5-0.25j"
        assert format_complex(0.0) == "0.0+0.0j"
        assert complex(format_complex(1 / 3 + 1e-17j)) == 1 / 3 + 1e-17j

    def test_round_trip_exact(self, tmp_path, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        path = tmp_path / "m.txt"
        write_matrix(path, m, (2, 3))
        back, dims = read_matrix(path)
        assert dims == (2, 3)
        assert np.array_equal(back, m)  # repr round trip is bit-exact

    def test_density_matrix_round_trip(self, tmp_path):
        rho = isotropic(3, 0.7)
        path = tmp_path / "rho.txt"
        write_matrix(path, rho.matrix, rho.dims)
        back, dims = read_matrix(path)
        assert dims == (3, 3)
        assert np.array_equal(back, rho.matrix)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError, match="does not match dims"):
            write_matrix(tmp_path / "bad.txt", np.eye(4), (2, 3))
        p = tmp_path / "short.txt"
        p.write_text("2 2\n1.0+0.0j 0.0+0.0j\n")
        with pytest.raises(ValueError, match="expected a 4x4"):
            read_matrix(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n")
        with pytest.raises(ValueError, match="empty matrix file"):
            read_matrix(p)


class TestTables:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(
            path,
            ["seed = 7", "loss = trace"],
            ["q", "distance"],
            [[0.1, 0.001], [0.2, 0.05]],
        )
        comments, header, rows = read_table(path)
        assert comments == ["seed = 7", "loss = trace"]
        assert header == ["q", "distance"]
        assert rows == [["0.1", "0.001"], ["0.2", "0.05"]]

    def test_append_comments(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a = 1"], ["x"], [[1]])
        append_comments(path, ["threshold = 0.5"])
        comments, header, rows = read_table(path)
        assert comments == ["a = 1", "threshold = 0.5"]
        assert header == ["x"] and rows == [["1"]]
