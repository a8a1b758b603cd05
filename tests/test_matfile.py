"""Matrix text format: round trips and diagnostics."""

import io

import numpy as np
import pytest

from oracles import random_complex
from pfdamp.matfile import (
    MatrixFormatError,
    format_complex,
    matrix_from_string,
    matrix_to_string,
    read_matrix,
    write_matrix,
)


class TestFormatComplex:
    def test_plain_values(self):
        assert format_complex(1) == "1+0j"
        assert format_complex(-2.5 + 0.25j) == "-2.5+0.25j"
        assert format_complex(1j) == "0+1j"
        assert format_complex(3 - 4j) == "3-4j"

    def test_seventeen_digits_round_trip(self):
        z = complex(1.0 / 3.0, -np.pi)
        assert complex(format_complex(z)) == z


class TestRoundTrip:
    def test_exact_float64_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(5):
            d = int(rng.integers(1, 9))
            m = random_complex(rng, d, rng.uniform(0.001, 1000.0))
            path = tmp_path / f"m{k}.txt"
            write_matrix(path, m)
            got = read_matrix(path)
            assert got.shape == m.shape
            assert np.array_equal(got, m)

    def test_comments_preserved_on_read(self, tmp_path):
        path = tmp_path / "c.txt"
        write_matrix(path, np.eye(2), comments=["first line", "second line"])
        text = path.read_text()
        assert text.startswith("# first line\n# second line\n")
        assert np.array_equal(read_matrix(path), np.eye(2))

    def test_string_round_trip(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, 3)
        assert np.array_equal(matrix_from_string(matrix_to_string(m)), m)

    def test_file_object_round_trip(self):
        m = np.array([[1.0 + 2.0j]])
        buf = io.StringIO()
        write_matrix(buf, m)
        buf.seek(0)
        assert np.array_equal(read_matrix(buf), m)

    def test_inline_comments_and_blank_lines(self):
        text = "\n# header\ndim 2   # trailing\n1+0j 0+0j\n\n0+0j 1+0j  # row\n"
        assert np.array_equal(matrix_from_string(text), np.eye(2))


class TestDiagnostics:
    def test_empty_input(self):
        with pytest.raises(MatrixFormatError, match="no data lines"):
            matrix_from_string("# only comments\n")

    def test_missing_dim_header(self):
        with pytest.raises(MatrixFormatError, match="expected 'dim"):
            matrix_from_string("1+0j\n")

    def test_non_integer_dimension(self):
        with pytest.raises(MatrixFormatError, match="not an integer"):
            matrix_from_string("dim x\n1+0j\n")

    def test_nonpositive_dimension(self):
        with pytest.raises(MatrixFormatError, match="positive"):
            matrix_from_string("dim 0\n")

    def test_wrong_row_count(self):
        with pytest.raises(MatrixFormatError, match="expected 2 matrix rows"):
            matrix_from_string("dim 2\n1+0j 0+0j\n")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(MatrixFormatError, match="line 3: expected 2 entries"):
            matrix_from_string("dim 2\n1+0j 0+0j\n1+0j\n")

    def test_bad_token_reports_line_and_field(self):
        with pytest.raises(MatrixFormatError, match="line 2, field 2"):
            matrix_from_string("dim 2\n1+0j spam\n0+0j 1+0j\n")

    @pytest.mark.parametrize("token", ["nan", "inf+0j", "0-infj", "1e999"])
    def test_nonfinite_token_reports_line_and_field(self, token):
        with pytest.raises(MatrixFormatError, match="line 3, field 1: .* is not finite"):
            matrix_from_string(f"dim 2\n1+0j 0+0j\n{token} 1+0j\n")

    def test_write_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            write_matrix(io.StringIO(), np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.txt")
