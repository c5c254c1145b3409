"""Diagonal similarity scaling of Metzler matrices to balanced form.

A square matrix is balanced when every row's off-diagonal sum equals the
matching column's off-diagonal sum.  Irreducible (and completely reducible)
Metzler matrices admit a positive diagonal D with D^{-1} A D balanced.  The
potential f(d) = sum_ij a_ij d_j / d_i is convex in x = log d and its
minimizers are exactly the balancing scalings, so it is found by damped
Newton steps on f(e^x) (Kalantari, Khachiyan and Shokoufandeh 1997; Cohen,
Madry, Tsipras and Vladu 2017), matrix-free over the positive entries, which
it takes from the off-diagonal CSR the public call builds once.  Newton's
Hessian products and row and column sums take one of two forms, chosen by
the kept entry count alone: np.bincount scatters over (row, column) triplets
below ``_CSR_MIN_ENTRIES``, and mat-vecs with a CSR array of the scaled
entries at or above it (see ``balance``).  The potential is also a cheap
independent optimality oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from netcontract.metzler import (
    COMPLETELY_REDUCIBLE,
    DEFAULT_TOL,
    IRREDUCIBLE,
    STRUCTURAL_ZERO,
    Classification,
    NotBalancableError,  # re-exported as balancing.NotBalancableError
    _as_square,
    _by_component,
    _finite,
    _finite_entries,
    _integer,
    _metzler_classified,
    _vector,
)

MAX_SWEEPS = 100_000  # cap on Newton steps (``max_sweeps``)
# Step halvings tried before balancing gives up; 2^-60 of a step is below the
# rounding of x.
_MAX_HALVINGS = 60

# Scaling entries are clamped to this range to prevent overflow on badly
# conditioned input; hitting the clamp is surfaced via BalancingResult.clamped.
SCALING_CLAMP = (1e-150, 1e150)

# Kept off-diagonal entries from which Newton's products are CSR mat-vecs
# instead of (row, column) scatters.  Below it the scatters are faster: each
# iterate's csr_array and each mat-vec with it cost microseconds of scipy
# overhead, which on small inputs outweighs their cheaper per-entry work.
_CSR_MIN_ENTRIES = 4096


class BalanceConvergenceError(RuntimeError):
    """Step cap exceeded or no step makes progress; carries the last imbalance
    as ``residual``."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class BalancingResult:
    d: np.ndarray
    balanced: np.ndarray
    iterations: int
    residual: float
    clamped: bool = False


def _imbalance(r: np.ndarray, c: np.ndarray, starts=(0,)) -> float:
    """The worst imbalance of the blocks that begin at ``starts``."""
    return float(np.max(np.maximum.reduceat(np.abs(r - c), starts)
                        / (1.0 + np.maximum.reduceat(np.abs(r) + np.abs(c), starts))))


def imbalance(A) -> float:
    """Normalized worst mismatch between off-diagonal row and column sums.

    Zero exactly when the matrix is balanced; the denominator 1 + max_i
    (|r_i| + |c_i|) makes the figure scale-free.  Any square matrix is taken;
    a NaN or infinite entry, on the diagonal too, raises ValueError.
    """
    M = _finite_entries(_as_square(A))
    off = M.copy()
    np.fill_diagonal(off, 0.0)
    return _imbalance(off.sum(axis=1), off.sum(axis=0))


def _pcg(hess, b: np.ndarray, m: np.ndarray, rtol: float, max_iter: int) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for H x = b, with H symmetric
    positive semidefinite given as the product ``hess``, m its positive
    diagonal and b in its range.  Stops once the preconditioned residual
    r^T m^{-1} r falls to rtol^2 times its start value (r^T r alone would
    overflow on badly scaled input), or on breakdown: a direction p with
    p^T H p <= 0 in floating point, which can occur once the residual is at
    rounding level, returns the iterate reached so far."""
    x = np.zeros_like(b)
    r = b.copy()
    z = r / m
    p = z.copy()
    rz = float(r @ z)
    stop = rtol * rtol * rz
    for _ in range(max_iter):
        if rz <= stop:
            break
        q = hess(p)
        pq = float(p @ q)
        if pq <= 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = r / m
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x


def _newton_balance(off: scipy.sparse.csr_array, starts: np.ndarray, tol: float,
                    max_steps: int, x0: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Damped Newton on f(x) = sum_ij off_ij e^(x_j - x_i), x = log d, for an
    off-diagonal CSR whose irreducible diagonal blocks begin at ``starts``; f
    sums over them, so one step moves all.  Stops when every block's imbalance
    is <= tol: (x, 0 at each block's start, Newton steps, clamped)."""
    n = off.shape[0]
    block = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
    # The positive entries only: f has no term for a zero or negative one.
    keep = off.data > 0.0
    rows = np.repeat(np.arange(n), np.diff(off.indptr))[keep]
    cols = off.indices[keep]
    log_a = np.log(off.data[keep])
    lo, hi = np.log(SCALING_CLAMP)
    csr = cols.size >= _CSR_MIN_ENTRIES
    if csr:
        # The kept pattern's row pointers: the kept entries before each row.
        indptr = np.cumsum(np.concatenate(([False], keep)), dtype=cols.dtype)[off.indptr]
        ones = np.ones(n)

    def clamp(x):
        # d is defined up to scale on each block: centre each, then clip.
        x = x - (np.maximum.reduceat(x, starts) + np.minimum.reduceat(x, starts))[block] / 2.0
        return np.clip(x, lo, hi), bool(np.any(np.abs(x) > hi))

    def scaled(x):
        # W = D^{-1} off D on the kept entries, its row sums r and column
        # sums c, the product v -> H v for H = diag(r + c) - W - W^T, the
        # Hessian of f at x, then f and the worst block's imbalance; f = inf
        # on overflow.
        with np.errstate(over="ignore"):
            w = np.exp(log_a + x[cols] - x[rows])
            f = float(w.sum())
        if not np.isfinite(f):
            return None, None, None, np.inf, np.inf
        if csr:
            W = scipy.sparse.csr_array((w, cols, indptr), shape=(n, n))
            Wt = W.T
            r, c = W @ ones, Wt @ ones
            h = r + c

            def hess(v):
                return h * v - W @ v - Wt @ v
        else:
            r = np.bincount(rows, w, n)
            c = np.bincount(cols, w, n)

            def hess(v):
                t = w * (v[rows] - v[cols])
                return np.bincount(rows, t, n) - np.bincount(cols, t, n)
        return hess, r, c, f, _imbalance(r, c, starts)

    x, clamped = clamp(x0)
    hess, r, c, f, residual = scaled(x)
    if not np.isfinite(f):
        raise BalanceConvergenceError("the start scaling overflows the matrix", np.inf)
    for step in range(max_steps):
        if residual <= tol:
            return x - x[starts][block], step, clamped
        # The gradient c - r sums to zero on each block, so H dx = r - c is
        # consistent; solving it only to sqrt(imbalance) keeps the steps
        # superlinear without spending CG iterations far from the optimum.
        # A 1 x 1 block has r + c = 0, so its Jacobi weight is 1.
        dx = _pcg(hess, r - c, np.where(r + c > 0, r + c, 1.0),
                  min(0.5, np.sqrt(residual)), n)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new, hit = clamp(x + t * dx)
            hess_new, r_new, c_new, f_new, res_new = scaled(x_new)
            # Near the optimum f falls by less than its rounding while the
            # imbalance still falls, so either one decreasing is progress.
            if f_new < f or res_new < residual:
                break
            t /= 2.0
        else:
            raise BalanceConvergenceError(
                f"balancing stalled at imbalance {residual:.3e} above {tol:g}: "
                "no step lowers the potential or the imbalance", residual)
        x, hess, r, c, f, residual = x_new, hess_new, r_new, c_new, f_new, res_new
        clamped |= hit
    raise BalanceConvergenceError(
        f"balancing did not reach imbalance {tol:g} within {max_steps} Newton "
        f"steps (current imbalance {residual:.3e})", residual)


def _balance(off: scipy.sparse.csr_array, cls: Classification, tol: float,
             max_sweeps: int, d0) -> tuple[np.ndarray, int, bool]:
    """Balancing scaling of the off-diagonal CSR of an irreducible or completely
    reducible Metzler matrix: (d, Newton steps, clamped), each block's d led
    by 1."""
    tol = _finite("tol", tol, "positive")
    max_sweeps = _integer("max_sweeps", max_sweeps, "positive")
    n = off.shape[0]
    start = np.zeros(n) if d0 is None else np.log(_vector("d0", d0, n, "positive"))
    within, order, starts = _by_component(off, cls)
    x, iterations, clamped = _newton_balance(within, starts, tol, max_sweeps, start[order])
    d = np.empty(n)
    d[order] = np.exp(x)
    return d, iterations, clamped


def balance(A, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS,
            d0=None) -> BalancingResult:
    """Find d > 0 such that D^{-1} A D is balanced (D = diag(d), d[0] = 1).

    Damped Newton steps on the convex potential f(x) = sum_ij a_ij
    e^(x_j - x_i), x = log d, whose gradient is the column minus the row sums
    of the scaled off-diagonal part.  Each step solves with the Hessian, a
    weighted graph Laplacian, by Jacobi-preconditioned conjugate gradients
    over the positive entries, and is halved until it lowers f or the
    imbalance.  The nonzeros come from one off-diagonal CSR (about two words
    per nonzero); the positive ones are held as (row, column, log entry)
    triplets, about three words per entry more, and each iterate's scaled
    entries W = D^{-1} A D as one word per entry.  The products with W take
    one of two forms, by the kept entry count alone.  Below
    ``_CSR_MIN_ENTRIES`` (4,096) each Hessian product gathers and scatters
    over the triplets with np.bincount, with about three words per entry of
    temporaries.  At or above it the scaled entries are the data of a CSR
    array on the kept pattern, sharing the triplets' column indices (the row
    pointers, n + 1 words, are built once per call), and each product is
    the mat-vecs W v and W^T v, with O(n) temporaries.  The two forms take
    the same steps to the same d up to rounding.  Completely reducible
    input is balanced by one Newton iteration over all its blocks, each
    block's leading scaling entry normalized to 1.  Convergence means
    imbalance <= tol on every block; ``max_sweeps`` caps the Newton steps
    (``iterations`` counts them), and exceeding it or stalling raises
    BalanceConvergenceError with the last residual.  Other reducible input
    raises NotBalancableError.
    """
    M, cls, off = _metzler_classified(A, "balance", IRREDUCIBLE, COMPLETELY_REDUCIBLE)
    d, iterations, clamped = _balance(off, cls, tol, max_sweeps, d0)
    # The dense result: scale the off-diagonal part in place, take the
    # residual from its sums, then restore the diagonal, which the similarity
    # leaves unchanged.
    balanced = M.copy()
    np.fill_diagonal(balanced, 0.0)
    balanced *= d[None, :] / d[:, None]
    residual = _imbalance(balanced.sum(axis=1), balanced.sum(axis=0))
    np.fill_diagonal(balanced, np.diag(M))
    return BalancingResult(d=d, balanced=balanced, iterations=iterations,
                           residual=residual, clamped=clamped)


def _tridiagonal_bands(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # NaN fails none of the comparisons below, so it is rejected first.
    _finite_entries(M)
    sub, sup = np.diag(M, -1), np.diag(M, 1)
    # Off-band entries are rejected by magnitude, so the bands' signs decide
    # the Metzler test; a 1 x 1 matrix has empty bands.
    lowest = min(np.min(sub, initial=np.inf), np.min(sup, initial=np.inf))
    if lowest < -STRUCTURAL_ZERO:
        raise ValueError("not a Metzler matrix: negative off-diagonal entry")
    if float(np.max(np.abs(M - np.tril(np.triu(M, -1), 1)))) > STRUCTURAL_ZERO:
        raise ValueError("matrix has entries outside the tridiagonal bands")
    if lowest <= STRUCTURAL_ZERO:
        raise ValueError(
            "zero sub- or super-diagonal entry: tridiagonal matrix is reducible")
    return sub, sup


def balance_tridiagonal(A) -> np.ndarray:
    """Closed-form balancing scaling for an irreducible tridiagonal Metzler matrix.

    d_1 = 1 and d_i = prod_{j<i} sqrt(a_{j+1,j} / a_{j,j+1}); the scaled
    matrix D^{-1} A D is symmetric, hence balanced.  Taking the square roots
    before the product keeps every partial product no larger than d itself.
    """
    sub, sup = _tridiagonal_bands(_as_square(A))
    return np.concatenate(([1.0], np.cumprod(np.sqrt(sub) / np.sqrt(sup))))


def potential(A, d) -> float:
    """Balancing potential f(d) = sum_ij a_ij d_j / d_i (d > 0); a NaN or
    infinite entry of A, or a d that is not n finite positive numbers, raises
    ValueError."""
    M = _finite_entries(_as_square(A))
    dd = _vector("d", d, M.shape[0], "positive")
    return float((M * (dd[None, :] / dd[:, None])).sum())
