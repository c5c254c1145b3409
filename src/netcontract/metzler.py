"""Metzler matrix foundations.

Sign-pattern validation, directed-graph classification (irreducible /
completely reducible / other), spectral abscissa and Perron pairs via power
iteration, and matrix measures (logarithmic norms) with optional diagonal
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    """Iteration cap was hit before the requested residual was reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _as_square(A) -> np.ndarray:
    M = A.entries if isinstance(A, MetzlerMatrix) else np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def _off_diagonal_min(M: np.ndarray) -> float:
    n = M.shape[0]
    if n == 1:
        return 0.0
    # Flattened, the entries after each diagonal entry up to the next one
    # form the rows of an (n-1) x (n+1) view whose last column is diagonal.
    return float(M.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].min())


def _positive_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def _edge_mask(M: np.ndarray) -> np.ndarray:
    """Edge j -> i whenever off-diagonal entry (i, j) is structurally positive."""
    mask = M > STRUCTURAL_ZERO
    np.fill_diagonal(mask, False)
    return mask


def _reaches_all(mask: np.ndarray) -> bool:
    """Whether a breadth-first search from node 0, stepping from i to every j
    with mask[i, j], reaches every node.  Each level ORs the frontier's rows."""
    seen = np.zeros(mask.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = mask[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _strong_components(mask: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Strong-component label of each node, and the components as sorted
    index tuples ordered by their smallest member."""
    # Imported here, not at module level: scipy.sparse.csgraph adds about
    # 11 MB of resident memory, and irreducible input never needs it.
    import scipy.sparse.csgraph

    _, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(mask), directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return labels, tuple(sorted((tuple(c.tolist()) for c in comps), key=lambda c: c[0]))


@dataclass(frozen=True)
class Classification:
    """Graph classification of a square matrix.

    ``blocks`` holds the index sets of the irreducible diagonal blocks and is
    populated only for completely reducible matrices.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...] | None = None
    # The strong components of reducible_other input, kept so that
    # spectral_abscissa does not compute them again.
    _components: tuple[tuple[int, ...], ...] | None = field(
        default=None, repr=False, compare=False)

    def __str__(self) -> str:
        if self.kind == COMPLETELY_REDUCIBLE:
            return f"{self.kind}({len(self.blocks)} blocks)"
        return self.kind


def classify(A) -> Classification:
    """Classify the sign/graph structure of a square matrix.

    Total function: non-Metzler input yields kind ``"not_metzler"`` rather
    than an error.  A matrix is completely reducible when no edge joins two
    distinct strongly connected components, i.e. it is block-diagonal over
    its components up to a symmetric permutation.
    """
    M = _as_square(A)
    if _off_diagonal_min(M) < -STRUCTURAL_ZERO:
        return Classification(NOT_METZLER)
    mask = _edge_mask(M)
    if _reaches_all(mask) and _reaches_all(mask.T):
        return Classification(IRREDUCIBLE)
    labels, blocks = _strong_components(mask)
    rows, cols = np.nonzero(mask)
    if np.any(labels[rows] != labels[cols]):
        return Classification(REDUCIBLE_OTHER, _components=blocks)
    return Classification(COMPLETELY_REDUCIBLE, blocks)


class MetzlerMatrix:
    """Immutable dense square matrix with a validated Metzler sign pattern.

    Off-diagonal entries must be nonnegative up to ``STRUCTURAL_ZERO`` noise.
    The graph classification is computed on first use and cached.
    """

    def __init__(self, entries):
        M = _as_square(entries).copy()
        if _off_diagonal_min(M) < -STRUCTURAL_ZERO:
            raise ValueError("not a Metzler matrix: negative off-diagonal entry")
        M.setflags(write=False)
        self.entries = M

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def classification(self) -> Classification:
        return classify(self.entries)

    def __repr__(self) -> str:
        return f"MetzlerMatrix(n={self.n}, {self.classification})"


def _metzler_classified(A) -> tuple[np.ndarray, Classification]:
    if isinstance(A, MetzlerMatrix):
        return A.entries, A.classification
    M = _as_square(A)
    cls = classify(M)
    if cls.kind == NOT_METZLER:
        raise ValueError("not a Metzler matrix: negative off-diagonal entry")
    return M, cls


@dataclass(frozen=True)
class PerronPair:
    abscissa: float
    eigenvector: np.ndarray


def _perron(M: np.ndarray, tol: float, max_iter: int) -> PerronPair:
    """Shifted power iteration on a validated irreducible Metzler matrix."""
    n = M.shape[0]
    if n == 1:
        return PerronPair(float(M[0, 0]), np.ones(1))
    shift = 1.0 + float(np.max(np.abs(np.diag(M))))
    v = np.full(n, 1.0 / n)
    residual = np.inf
    lam = 0.0
    for _ in range(max_iter):
        Sv = M @ v + shift * v
        lam = float(v @ Sv) / float(v @ v)
        residual = float(np.max(np.abs(Sv - lam * v))) / float(np.max(v))
        if residual <= tol:
            break
        v = Sv / np.linalg.norm(Sv)
    else:
        raise NoConvergenceError(
            f"Perron iteration did not reach residual {tol:g} within {max_iter} "
            f"iterations (current residual {residual:.3e})", residual)
    return PerronPair(lam - shift, v / v[0])


def perron_pair(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> PerronPair:
    """Spectral abscissa and positive eigenvector of an irreducible Metzler matrix.

    Power iteration on A + rI with r = 1 + max|a_ii|; the shift makes the
    iteration matrix primitive, so the positive start vector always overlaps
    the Perron direction.  The returned eigenvector has first entry 1 and
    satisfies ||A d - alpha d||_inf <= tol * ||d||_inf.
    """
    M, cls = _metzler_classified(A)
    if cls.kind != IRREDUCIBLE:
        raise NonIrreducibleError(
            f"perron_pair requires an irreducible Metzler matrix, got {cls.kind}")
    return _perron(M, tol, max_iter)


def spectral_abscissa(A, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest real part among the eigenvalues of a Metzler matrix.

    Exact for any Metzler matrix: a symmetric permutation to block-triangular
    form over the strongly connected components leaves the spectrum the union
    of the diagonal blocks' spectra, and each block is irreducible.
    """
    M, cls = _metzler_classified(A)
    if cls.kind == IRREDUCIBLE:
        return _perron(M, tol, max_iter).abscissa
    comps = cls.blocks if cls.blocks is not None else cls._components
    return max(_perron(M[np.ix_(c, c)], tol, max_iter).abscissa for c in comps)


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
