"""Metzler matrix foundations.

Sign-pattern validation, directed-graph classification (irreducible /
completely reducible / other), spectral abscissa and Perron pairs via a
power iteration that lifts every row's diagonal to one level, and matrix
measures (logarithmic norms) with optional diagonal scaling.  Each public
call scans its matrix once, into the off-diagonal CSR (a MetzlerMatrix
caches its own), the only picture of the graph: an edge is an entry above
STRUCTURAL_ZERO.  A Perron step costs O(nnz + n), not O(n^2).
"""

from __future__ import annotations

import itertools
import numbers
import sys
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


class NotBalancableError(NonIrreducibleError):
    """A call that also takes completely reducible matrices got other reducible
    input, which no positive diagonal similarity balances."""


class NoConvergenceError(RuntimeError):
    """Iteration cap hit, or the bracket overflowed; ``residual`` holds its last width."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class CertificateCheck:
    name: str
    passed: bool
    residual: float


# Verdict slacks: certificate checks, FHN eta floor, relative distance to target.
_CERT_SLACK = 1e-9
_FLOOR_SLACK = 1e-12
_FEASIBILITY_SLACK = 1e-8


def _check(name: str, value, bound, slack: float = 0.0) -> CertificateCheck:
    """The one verdict rule of the library: value passes when it is at most
    bound + slack; the residual value - bound is at most 0 when there is room."""
    return CertificateCheck(name, bool(value <= bound + slack), value - bound)


def _as_square(A) -> np.ndarray:
    M = A.entries if isinstance(A, MetzlerMatrix) else np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {M.shape}")
    return M


def _finite_entries(M: np.ndarray) -> np.ndarray:
    """M, once no entry is NaN or infinite; otherwise ValueError."""
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


# The sign rule of each domain, for a number or for every entry of an array.
_DOMAINS = {"real": lambda x: True,
            "nonnegative": lambda x: np.all(x >= 0),
            "positive": lambda x: np.all(x > 0)}


def _finite(name: str, value, domain: str = "real") -> float:
    """A finite number in the domain ("real", "nonnegative" or "positive") as
    a float: a Python or numpy scalar or a 0-d array, not a bool; else ValueError."""
    if isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0:
        value = value.item()
    # The bound rejects NaN, infinities and ints beyond the float range.
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and _DOMAINS[domain](value)):
        raise ValueError(f"{name} must be a finite {domain} number, got {value!r}")
    return float(value)


def _integer(name: str, value, domain: str = "real") -> int:
    """An integer of the domain ("real" for any, "nonnegative" or
    "positive") as an int; a bool or anything else raises ValueError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not _DOMAINS[domain](value)):
        kind = "an integer" if domain == "real" else f"a {domain} integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _float_array(name: str, value) -> np.ndarray:
    """value as a float array; a string, a bool or other entry that is not a
    number raises ValueError, where numpy would read "1" and True as 1.0."""
    # The entries' types, level by level through nested lists, since numpy
    # makes a bool among numbers a number; a numeric array has none to check.
    numeric = isinstance(value, np.ndarray) and value.dtype.kind in "iuf"
    items = [] if numeric else [value.tolist() if isinstance(value, np.ndarray) else value]
    while (types := set(map(type, items))) and types <= {list, tuple}:
        items = list(itertools.chain.from_iterable(items))
    try:
        if any(issubclass(t, (str, bytes, bool, np.bool_)) for t in types):
            raise ValueError
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numbers, got {value!r}") from None


def _vector(name: str, value, n: int, domain: str = "real") -> np.ndarray:
    """value flattened to n finite floats in the domain; else ValueError."""
    arr = _float_array(name, value).ravel()
    if arr.shape[0] != n:
        raise ValueError(f"{name} have length {arr.shape[0]}, expected {n}")
    if not (np.isfinite(arr).all() and _DOMAINS[domain](arr)):
        kind = "" if domain == "real" else f" {domain}"
        raise ValueError(f"{name} must have finite{kind} entries")
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
    if off.data.min(initial=0.0) < -STRUCTURAL_ZERO:
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
    data = _finite_entries(M[rows, cols])
    _finite_entries(M.diagonal())
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


def _metzler_classified(A, caller: str = "", *kinds: str) -> tuple:
    """Validated entries, classification and off-diagonal CSR of a public
    call's Metzler argument.  A kind outside ``kinds`` (if given) raises a
    NonIrreducibleError naming ``caller``, the accepted kinds and the kind
    found; a NotBalancableError where completely reducible input is taken."""
    if isinstance(A, MetzlerMatrix):
        M, cls, off = A.entries, A.classification, A._off
    else:
        M = _as_square(A)
        off = _off_diagonal(M)
        cls = _classify(off)
        if cls.kind == NOT_METZLER:
            raise ValueError("not a Metzler matrix: negative off-diagonal entry")
    if kinds and cls.kind not in kinds:
        accepted = " or ".join(kind.replace("_", " ") for kind in kinds)
        hint = ("; spectral_abscissa, balance, minimal_effort_stabilize and "
                "synthesize_gains take it"
                if cls.kind == COMPLETELY_REDUCIBLE else "")
        error = NotBalancableError if COMPLETELY_REDUCIBLE in kinds else NonIrreducibleError
        raise error(f"{caller} requires an {accepted} Metzler matrix, got {cls.kind}{hint}")
    return M, cls, off


@dataclass(frozen=True, eq=False)
class PerronPair:
    """Result of ``perron_pair``; equality and hashing are by identity."""

    abscissa: float
    eigenvector: np.ndarray
    # Collatz-Wielandt bracket [min_i (Md)_i / d_i, max_i (Md)_i / d_i] of d,
    # at most tol wide; it contains alpha(M) up to rounding.
    bracket: tuple[float, float]
    iterations: int  # power steps taken before the bracket was narrow enough


def _perron(off: scipy.sparse.csr_array, diag: np.ndarray, tol: float,
            max_iter: int, starts=(0,)) -> PerronPair:
    """Power iteration with a lift per row on the irreducible diagonal blocks,
    from each of ``starts`` on, of a validated Metzler matrix (off-diagonal
    CSR ``off``, diagonal c), until every block's Collatz-Wielandt bracket is
    at most tol wide.  Returns the pair of the largest upper end.

    Each step lifts every row's diagonal to one level delta per block and
    divides the row by its own gap to the block's upper end sigma:
    v <- (off v + delta v) / (sigma - c + delta), then v over its block
    maximum.  delta = 1 + max|c| + min c is the lowest diagonal entry of the
    uniform shift A + (1 + max|c|) I, so with a constant diagonal the iterates
    are those of that shifted power iteration.  A spread diagonal no longer
    divides every row by one common sigma + 1 + max|c|: 57 rather than 148
    steps on an n = 2000 closed loop whose diagonal spans [-26.2, -4.8].  A
    block whose off-diagonal entries dwarf its diagonal can take more steps
    than under the uniform shift, which lifts its higher rows further.  The
    fixed point is the Perron vector, where sigma v = A v.  Every
    denominator is at least delta >= 1, as sigma >= (off v)_i / v_i + c_i
    >= c_i, so v stays positive; the bracket is sound for any v > 0, so the
    iteration decides only how fast it narrows.  A step whose bracket width
    is infinite or NaN raises NoConvergenceError, with no RuntimeWarning."""
    tol = _finite("tol", tol, "positive")
    max_iter = _integer("max_iter", max_iter, "positive")
    starts = np.asarray(starts)
    seg = np.repeat(np.arange(starts.size), np.diff(starts, append=diag.size))
    with np.errstate(all="ignore"):  # an overflowing step raises below, unwarned
        lift = (1.0 + np.maximum.reduceat(np.abs(diag), starts)
                + np.minimum.reduceat(diag, starts))[seg]
        v, width = np.ones(diag.size), np.inf
        for step in range(max_iter):
            ov = off @ v
            # No shift added and taken away again: a 1 x 1 block is exact.
            ratio = ov / v + diag
            hi, lo = np.maximum.reduceat(ratio, starts), np.minimum.reduceat(ratio, starts)
            width = float(np.max(hi - lo))
            if width <= tol:
                break
            if not width < np.inf:  # inf or nan
                raise NoConvergenceError(f"Perron iteration overflowed at step {step}", width)
            v = (ov + lift * v) / (hi[seg] - diag + lift)
            v /= np.maximum.reduceat(v, starts)[seg]
        else:
            raise NoConvergenceError(
                f"Perron iteration did not reach bracket width {tol:g} within {max_iter} "
                f"iterations (current width {width:.3e})", width)
    k = int(np.argmax(hi))
    return PerronPair(float(hi[k]), v[seg == k] / v[starts[k]],
                      (float(lo[k]), float(hi[k])), step)


def perron_pair(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> PerronPair:
    """Spectral abscissa and positive eigenvector of an irreducible Metzler matrix.

    Power iteration in which every row's diagonal is lifted to one level
    (see ``_perron``); the lift makes the iteration matrix primitive, so the
    positive start vector always overlaps the Perron direction.  It stops
    when ``bracket``, the Collatz-Wielandt interval of the iterate d (first
    entry 1), is at most ``tol`` wide, and returns its upper end,
    max_i (A d)_i / d_i, as ``abscissa``: like every abscissa this library
    reports, an upper bound on alpha(A), here within tol of it, with
    ||A d - abscissa d||_inf <= tol * ||d||_inf.  ``iterations`` counts
    the power steps; a 1 x 1 matrix [a] takes none and gives a exactly.
    """
    M, cls, off = _metzler_classified(A, "perron_pair", IRREDUCIBLE)
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
    M = _finite_entries(_as_square(A))
    if scaling is not None:
        t = _vector("scaling", scaling, M.shape[0], "positive")
        M = M * (t[:, None] / t[None, :])
    return float(_measure(M, norm_kind(norm)))


def _halves(M: np.ndarray) -> tuple:
    """Halved entries a, b, c, d of each matrix [[a, b], [c, d]] of a stack
    (..., 2, 2), and hypot(a - d, b + c), the half-spread of the eigenvalues
    of the matrix's symmetric part.  Halving first keeps every sum finite
    wherever the closed forms built on them are."""
    h = M / 2.0
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    return a, b, c, d, np.hypot(a - d, b + c)


def _measure(M: np.ndarray, kind: str) -> np.ndarray:
    """Measure of every square matrix in a stack (..., k, k), kind canonical.

    mu_2 of a 2x2 matrix is the closed form a + d + hypot(a - d, b + c) on
    its halved entries; larger ones take the top ``eigvalsh`` eigenvalue of
    S + S^T with S = M / 2, which equals (M + M^T) / 2 whenever the halves
    are normal numbers and cannot overflow where the measure is finite.
    """
    if kind == "two":
        if M.shape[-2:] == (2, 2):
            a, _, _, d, spread = _halves(M)
            return a + d + spread
        S = M / 2.0
        return np.linalg.eigvalsh(S + np.swapaxes(S, -2, -1))[..., -1]
    d = np.diagonal(M, axis1=-2, axis2=-1)
    sums = np.abs(M).sum(axis=-2 if kind == "one" else -1)
    return np.max(d + sums - np.abs(d), axis=-1)
