import numpy as np
import pytest
from numpy.testing import assert_allclose

from netcontract.matrixio import read_matrix, read_vector, write_matrix_csv

MM_COORDINATE = """%%MatrixMarket matrix coordinate real general
% comment line
3 3 4
1 1 -1.5
1 2 2.0
2 3 0.25
3 1 7.0
"""

MM_ARRAY = """%%MatrixMarket matrix array real general
2 2
1.0
3.0
2.0
4.0
"""


def test_matrix_market_coordinate(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(MM_COORDINATE)
    M = read_matrix(path)
    expected = np.zeros((3, 3))
    expected[0, 0], expected[0, 1], expected[1, 2], expected[2, 0] = -1.5, 2.0, 0.25, 7.0
    assert_allclose(M, expected)


def test_matrix_market_array(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(MM_ARRAY)
    assert_allclose(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("body, shape", [
    ("array real general\n0 0", (0, 0)),
    ("array real general\n0 3", (0, 3)),
    ("coordinate real general\n0 0 0", (0, 0)),
])
def test_matrix_market_empty(tmp_path, body, shape):
    # An empty array-format file used to reach scipy's reader, which dies of
    # a floating-point exception on it.
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix {body}\n")
    assert read_matrix(path).shape == shape


def test_matrix_market_complex_rejected(tmp_path):
    # mmread returns the complex matrix, and a float cast would drop its
    # imaginary parts with only a ComplexWarning.
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                    "2 2 2\n1 2 1.0 5.0\n2 1 2.0 0.0\n")
    with pytest.raises(ValueError, match="complex Matrix Market entries"):
        read_matrix(path)


def test_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("-1.0,2.5\n0.125,3e-2\n")
    assert_allclose(read_matrix(path), [[-1.0, 2.5], [0.125, 0.03]])


def test_csv_single_row_is_2d(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0,3.0\n")
    assert read_matrix(path).shape == (1, 3)


def test_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((37, 41)) * np.exp(rng.uniform(-30, 30, size=(37, 41)))
    M[0, 0] = -0.0
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back = read_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)
    assert np.signbit(back[0, 0])


def test_vector_column_and_row(tmp_path):
    col = tmp_path / "v.csv"
    col.write_text("1.0\n2.0\n3.0\n")
    assert_allclose(read_vector(col), [1.0, 2.0, 3.0])
    row = tmp_path / "w.csv"
    row.write_text("4.0,5.0\n")
    assert_allclose(read_vector(row), [4.0, 5.0])


def test_vector_round_trip(tmp_path):
    v = np.array([1.0, -2.0 / 3.0, 1e-300, 4e250])
    path = tmp_path / "v.csv"
    write_matrix_csv(path, v)
    assert np.array_equal(read_vector(path), v)


def test_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError):
        read_vector(path)


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_non_numeric_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,foo\n2,3\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_missing_file():
    with pytest.raises(OSError):
        read_matrix("/definitely/not/here.csv")
