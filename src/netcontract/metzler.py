"""Metzler matrix foundations.

Sign-pattern validation, directed-graph classification (irreducible /
completely reducible / other), spectral abscissa and Perron pairs via power
iteration, and matrix measures (logarithmic norms) with optional diagonal
scaling.  Each public call scans its matrix once, into the off-diagonal CSR
(a MetzlerMatrix caches its own), the only picture of the graph: an edge is
an entry above STRUCTURAL_ZERO.  A Perron step costs O(nnz + n), not O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

# Off-diagonal magnitudes below this are structural zeros: numerical noise
# must neither fabricate graph edges nor flag a Metzler violation.
STRUCTURAL_ZERO = 1e-14

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

NOT_METZLER = "not_metzler"
IRREDUCIBLE = "irreducible"
COMPLETELY_REDUCIBLE = "completely_reducible"
REDUCIBLE_OTHER = "reducible_other"


class NonIrreducibleError(ValueError):
    """Operation defined for irreducible Metzler matrices got something else."""


class NoConvergenceError(RuntimeError):
    """Iteration cap was hit first; ``residual`` holds the last bracket width."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _as_square(A) -> np.ndarray:
    M = A.entries if isinstance(A, MetzlerMatrix) else np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {M.shape}")
    return M


def _positive_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def _strongly_connected(edges: scipy.sparse.csr_array) -> bool:
    """Whether node 0 reaches every node and every node reaches node 0, for
    edges at the positive entries: a breadth-first search from node 0 along
    the edges, then along the reversed edges, one sparse mat-vec per level."""
    for step in (edges, edges.T):
        frontier = seen = np.arange(edges.shape[0]) == 0
        while frontier.any():
            frontier = (step @ frontier.astype(float) > 0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def _strong_components(edges) -> np.ndarray:
    """Strong-component label of each node."""
    # Imported here, not at module level: scipy.sparse.csgraph adds about
    # 11 MB of resident memory, and irreducible input never needs it.
    import scipy.sparse.csgraph

    return scipy.sparse.csgraph.connected_components(
        edges, directed=True, connection="strong")[1]


@dataclass(frozen=True)
class Classification:
    """Graph classification of a square matrix.

    ``blocks`` holds the index sets of the irreducible diagonal blocks and is
    populated only for completely reducible matrices.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...] | None = None
    # Strong-component label of each node of reducible input, kept so that
    # no later kernel computes the components again.
    _labels: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        if self.kind == COMPLETELY_REDUCIBLE:
            return f"{self.kind}({len(self.blocks)} blocks)"
        return self.kind


def _classify(off: scipy.sparse.csr_array) -> Classification:
    """Classification of a square matrix from its off-diagonal CSR: the
    graph has an edge at each entry above STRUCTURAL_ZERO."""
    # An implicit zero of the CSR cannot fail the sign test.
    if off.nnz and off.data.min() < -STRUCTURAL_ZERO:
        return Classification(NOT_METZLER)
    keep = off.data > STRUCTURAL_ZERO
    # Weight 1 on edges, 0 on other stored entries; off's index arrays are
    # shared, so nothing here may write to them.
    if _strongly_connected(scipy.sparse.csr_array(
            (keep.astype(float), off.indices, off.indptr), shape=off.shape)):
        return Classification(IRREDUCIBLE)
    rows = np.repeat(np.arange(off.shape[0]), np.diff(off.indptr))[keep]
    cols = off.indices[keep]
    # csgraph counts a stored zero as an edge, so it gets the edges alone.
    labels = _strong_components(scipy.sparse.csr_matrix(
        (np.ones(cols.size), (rows, cols)), shape=off.shape))
    if np.any(labels[rows] != labels[cols]):
        return Classification(REDUCIBLE_OTHER, _labels=labels)
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    blocks = tuple(sorted((tuple(c.tolist()) for c in comps), key=lambda c: c[0]))
    return Classification(COMPLETELY_REDUCIBLE, blocks, labels)


def classify(A) -> Classification:
    """Classify the sign/graph structure of a square matrix.

    Non-Metzler input yields kind ``"not_metzler"`` rather than an error; a
    NaN or infinite entry raises ValueError.  Edges are the off-diagonal
    entries above ``STRUCTURAL_ZERO``.  A matrix is completely reducible when
    no edge joins two distinct strongly connected components, i.e. it is
    block-diagonal over its components up to a symmetric permutation.
    """
    if isinstance(A, MetzlerMatrix):
        return A.classification
    return _classify(_off_diagonal(_as_square(A)))


class MetzlerMatrix:
    """Immutable dense square matrix with a validated Metzler sign pattern.

    Off-diagonal entries must be nonnegative up to ``STRUCTURAL_ZERO`` noise.
    The off-diagonal CSR is built once, here, and cached read-only next to
    the graph classification read from its entries above ``STRUCTURAL_ZERO``;
    every public call given this matrix uses both.
    """

    def __init__(self, entries):
        M, self.classification, self._off = _metzler_classified(_as_square(entries).copy())
        for arr in (M, self._off.data, self._off.indices, self._off.indptr):
            arr.setflags(write=False)
        self.entries = M

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"MetzlerMatrix(n={self.n}, {self.classification})"


def _off_diagonal(M: np.ndarray) -> scipy.sparse.csr_array:
    """Every nonzero off-diagonal entry of M in CSR form, entries at or below
    STRUCTURAL_ZERO included, so that off @ v + diag(M) * v is M @ v up to
    summation order.  About two words per nonzero.  Raises ValueError for a
    NaN or infinite entry, which the mask would keep as a non-edge."""
    n = M.shape[0]
    mask = M != 0
    np.fill_diagonal(mask, False)
    # Row-major flat indices: a sixth of the time of np.nonzero on the 2-D mask.
    rows, cols = np.divmod(np.flatnonzero(mask), n)
    data = M[rows, cols]
    if not (np.isfinite(data).all() and np.isfinite(M.diagonal()).all()):
        raise ValueError("matrix has non-finite entries")
    indptr = np.zeros(n + 1, dtype=rows.dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_array((data, cols, indptr), shape=(n, n))


def _by_component(off: scipy.sparse.csr_array, cls: Classification) -> tuple:
    """(matrix, order, starts): off permuted to node order[k] at position k,
    each strong component a segment from one of ``starts`` on, with the
    entries between components dropped.  Irreducible input is off itself."""
    n, labels = off.shape[0], cls._labels
    if labels is None:
        return off, np.arange(n), np.zeros(1, dtype=np.intp)
    order = np.argsort(labels, kind="stable")
    position = np.argsort(order)
    rows = np.repeat(np.arange(n), np.diff(off.indptr))
    keep = labels[rows] == labels[off.indices]
    within = scipy.sparse.csr_array(
        (off.data[keep], (position[rows[keep]], position[off.indices[keep]])), shape=(n, n))
    return within, order, np.flatnonzero(np.diff(labels[order], prepend=-1))


def _metzler_classified(A) -> tuple[np.ndarray, Classification, scipy.sparse.csr_array]:
    """Validated entries, classification and off-diagonal CSR of a public
    call's matrix argument."""
    if isinstance(A, MetzlerMatrix):
        return A.entries, A.classification, A._off
    M = _as_square(A)
    off = _off_diagonal(M)
    cls = _classify(off)
    if cls.kind == NOT_METZLER:
        raise ValueError("not a Metzler matrix: negative off-diagonal entry")
    return M, cls, off


@dataclass(frozen=True)
class PerronPair:
    abscissa: float
    eigenvector: np.ndarray
    # Collatz-Wielandt bracket [min_i (Md)_i / d_i, max_i (Md)_i / d_i] of d,
    # at most tol wide; it contains alpha(M) up to rounding.
    bracket: tuple[float, float]


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def _perron(off: scipy.sparse.csr_array, diag: np.ndarray, tol: float,
            max_iter: int, starts=(0,)) -> PerronPair:
    """Shifted power iteration on the irreducible diagonal blocks, from each of
    ``starts`` on, of a validated Metzler matrix (off-diagonal CSR, diagonal):
    one shift, scale and Collatz-Wielandt bracket per block, until every
    bracket is at most tol wide.  Returns the pair of the largest upper end."""
    _check_tol(tol)
    starts = np.asarray(starts)
    seg = np.repeat(np.arange(starts.size), np.diff(starts, append=diag.size))
    shift = 1.0 + np.maximum.reduceat(np.abs(diag), starts)
    shifted = diag + shift[seg]
    v, width = np.ones(diag.size), np.inf
    for _ in range(max_iter):
        Sv = off @ v + shifted * v
        ratio = Sv / v
        hi, lo = np.maximum.reduceat(ratio, starts), np.minimum.reduceat(ratio, starts)
        width = float(np.max(hi - lo))
        if width <= tol:
            break
        v = Sv / np.maximum.reduceat(Sv, starts)[seg]
    else:
        raise NoConvergenceError(
            f"Perron iteration did not reach bracket width {tol:g} within {max_iter} "
            f"iterations (current width {width:.3e})", width)
    k = int(np.argmax(hi - shift))
    lo, hi = float(lo[k] - shift[k]), float(hi[k] - shift[k])
    return PerronPair(hi, v[seg == k] / v[starts[k]], (lo, hi))


def perron_pair(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> PerronPair:
    """Spectral abscissa and positive eigenvector of an irreducible Metzler matrix.

    Power iteration on A + rI with r = 1 + max|a_ii|; the shift makes the
    iteration matrix primitive, so the positive start vector always overlaps
    the Perron direction.  It stops when ``bracket``, the Collatz-Wielandt
    interval of the iterate d (first entry 1), is at most ``tol`` wide, and
    returns its upper end, max_i (A d)_i / d_i, as ``abscissa``: like every
    abscissa this library reports, an upper bound on alpha(A), here within
    tol of it, with ||A d - abscissa d||_inf <= tol * ||d||_inf.  A 1 x 1
    matrix [a] gives the rounded (a + r) - r: exact for small integers and
    halves, otherwise within a few ulps of r of a.
    """
    M, cls, off = _metzler_classified(A)
    if cls.kind != IRREDUCIBLE:
        raise NonIrreducibleError(
            f"perron_pair requires an irreducible Metzler matrix, got {cls.kind}")
    return _perron(off, np.diag(M), tol, max_iter)


def spectral_abscissa(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest real part among the eigenvalues of a Metzler matrix.

    Exact for any Metzler matrix: a symmetric permutation to block-triangular
    form over the strongly connected components leaves the spectrum the union
    of the diagonal blocks' spectra, and each block is irreducible.  One
    power iteration runs on all the blocks at once, as in ``perron_pair``,
    and returns the largest upper end of their brackets.
    """
    M, cls, off = _metzler_classified(A)
    within, order, starts = _by_component(off, cls)
    return _perron(within, np.diag(M)[order], tol, max_iter, starts).abscissa


_NORM_ALIASES = {
    "one": "one", "1": "one",
    "two": "two", "2": "two",
    "inf": "inf", "infinity": "inf",
}


def norm_kind(norm) -> str:
    """Normalize a norm selector (1/2/inf, numeric or string) to a canonical name."""
    if isinstance(norm, str):
        key = norm.strip().lower()
    elif norm == 1:
        key = "one"
    elif norm == 2:
        key = "two"
    elif norm == np.inf:
        key = "inf"
    else:
        key = None
    if key not in _NORM_ALIASES:
        raise ValueError(f"unknown norm {norm!r}; expected one of 1, 2, inf")
    return _NORM_ALIASES[key]


def matrix_measure(A, norm="two", scaling=None) -> float:
    """Matrix measure (logarithmic norm) of a square matrix.

    mu_1 is the worst column (diagonal entry plus off-diagonal absolute
    column sum), mu_inf the row analogue, mu_2 the largest eigenvalue of the
    symmetric part, computed exactly by ``eigvalsh`` (an iterate would only
    bound it from below, which is the unsafe side for a certificate).  A
    positive diagonal scaling t computes the measure of T A T^{-1} with
    T = diag(t).
    """
    M = _as_square(A)
    if scaling is not None:
        t = _positive_vector(scaling, M.shape[0], "scaling")
        M = M * (t[:, None] / t[None, :])
    return float(_measure(M, norm_kind(norm)))


def _measure(M: np.ndarray, kind: str) -> np.ndarray:
    """Measure of every square matrix in a stack (..., k, k), kind canonical."""
    if kind == "two":
        return np.linalg.eigvalsh((M + np.swapaxes(M, -2, -1)) / 2.0)[..., -1]
    d = np.diagonal(M, axis1=-2, axis2=-1)
    sums = np.abs(M).sum(axis=-2 if kind == "one" else -1)
    return np.max(d + sums - np.abs(d), axis=-1)
