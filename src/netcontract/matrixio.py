"""Matrix and vector file I/O.

Reads Matrix Market files (coordinate or array format, sniffed from the
``%%MatrixMarket`` banner) and headerless CSV.  Writes CSV with 17
significant digits so float64 values survive a round trip bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse

CSV_FLOAT_FMT = "%.17g"


def read_matrix(path) -> np.ndarray:
    """Load a dense 2-D real array from a Matrix Market or CSV file; a
    complex Matrix Market file raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline()
    if head.startswith("%%MatrixMarket"):
        rows, cols, _, _, kind, _ = scipy.io.mminfo(path)
        if kind == "complex":
            raise ValueError(f"{path}: complex Matrix Market entries are not supported")
        if rows == 0 or cols == 0:  # scipy's reader can die of SIGFPE on these
            return np.empty((rows, cols))
        M = scipy.io.mmread(path)
        if scipy.sparse.issparse(M):
            M = M.toarray()
        return np.asarray(M, dtype=float)
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)


def read_vector(path) -> np.ndarray:
    """Load a 1-D array: a single CSV row or column, or an n-by-1/1-by-n matrix."""
    M = read_matrix(path)
    if 1 in M.shape:
        return M.ravel()
    raise ValueError(
        f"{path}: expected a vector (one row or one column), got shape {M.shape}")


def write_matrix_csv(path, M) -> None:
    """Write an array as headerless CSV; 1-D input becomes a single row."""
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)),
               delimiter=",", fmt=CSV_FLOAT_FMT)
