"""Diagonal similarity scaling of Metzler matrices to balanced form.

A square matrix is balanced when every row's off-diagonal sum equals the
matching column's off-diagonal sum.  Irreducible (and completely reducible)
Metzler matrices admit a positive diagonal D with D^{-1} A D balanced; it is
found by Osborne-style cyclic updates, which monotonically decrease the
potential f(d) = sum_ij a_ij d_j / d_i.  The potential is convex in log d and
its minimizers are exactly the balancing scalings, which makes it a cheap
independent optimality oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netcontract.metzler import (
    COMPLETELY_REDUCIBLE,
    DEFAULT_TOL,
    IRREDUCIBLE,
    STRUCTURAL_ZERO,
    Classification,
    _as_square,
    _metzler_classified,
    _off_diagonal_min,
    _positive_vector,
)

MAX_SWEEPS = 100_000

# Scaling entries are clamped to this range to prevent overflow on badly
# conditioned input; hitting the clamp is surfaced via BalancingResult.clamped.
SCALING_CLAMP = (1e-150, 1e150)


class NotBalancableError(ValueError):
    """No positive diagonal similarity can balance this matrix
    (reducible but not completely reducible)."""


class BalanceConvergenceError(RuntimeError):
    """Sweep cap exceeded; carries the last imbalance as ``residual``."""

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


def _imbalance(r: np.ndarray, c: np.ndarray) -> float:
    return float(np.max(np.abs(r - c)) / (1.0 + np.max(np.abs(r) + np.abs(c))))


def imbalance(A) -> float:
    """Normalized worst mismatch between off-diagonal row and column sums.

    Zero exactly when the matrix is balanced; the denominator 1 + max_i
    (|r_i| + |c_i|) makes the figure scale-free.
    """
    M = _as_square(A)
    off = M.copy()
    np.fill_diagonal(off, 0.0)
    return _imbalance(off.sum(axis=1), off.sum(axis=0))


def _balance_block(off: np.ndarray, tol: float, max_sweeps: int,
                   d0: np.ndarray) -> tuple[np.ndarray, int, bool]:
    n = off.shape[0]
    if n == 1:
        return np.ones(1), 0, False
    d = d0.copy()
    dinv = 1.0 / d  # kept equal to 1 / d entry by entry
    lo, hi = SCALING_CLAMP
    clamped = False
    residual = np.inf
    for sweep in range(max_sweeps):
        # Row and column sums of D^{-1} off D from two mat-vecs; forming the
        # scaled matrix would copy it on every sweep.
        residual = _imbalance((off @ d) / d, (off.T @ dinv) * d)
        if residual <= tol:
            return d, sweep, clamped
        for i in range(n):
            r = float(off[i, :] @ d) / d[i]
            c = float(off[:, i] @ dinv) * d[i]
            if r <= 0.0 or c <= 0.0:
                continue
            di = d[i] * np.sqrt(r / c)
            if di < lo or di > hi:
                di = min(max(di, lo), hi)
                clamped = True
            d[i] = di
            dinv[i] = 1.0 / di
    raise BalanceConvergenceError(
        f"balancing did not reach imbalance {tol:g} within {max_sweeps} sweeps "
        f"(current imbalance {residual:.3e})", residual)


def _balance(off: np.ndarray, cls: Classification, tol: float, max_sweeps: int,
             d0) -> tuple[np.ndarray, int, bool]:
    """Balancing scaling of a zero-diagonal irreducible or completely reducible
    Metzler matrix: (d, total sweeps, clamped), each block's d led by 1."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = off.shape[0]
    start = np.ones(n) if d0 is None else _positive_vector(d0, n, "d0")
    blocks = [slice(None)] if cls.kind == IRREDUCIBLE else [list(b) for b in cls.blocks]
    d = np.empty(n)
    iterations = 0
    clamped = False
    for block in blocks:
        sub = off if len(blocks) == 1 else off[np.ix_(block, block)]
        bd, sweeps, bclamped = _balance_block(sub, tol, max_sweeps, start[block])
        d[block] = bd / bd[0]
        iterations += sweeps
        clamped |= bclamped
    return d, iterations, clamped


def balance(A, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS,
            d0=None) -> BalancingResult:
    """Find d > 0 such that D^{-1} A D is balanced (D = diag(d), d[0] = 1).

    Osborne cyclic updates d_i <- d_i * sqrt(r_i / c_i) equalize the i-th
    off-diagonal row and column sums one coordinate at a time.  Completely
    reducible input is balanced block by block (each block's leading scaling
    entry is normalized to 1).  Convergence means imbalance <= tol; exceeding
    ``max_sweeps`` raises BalanceConvergenceError with the last residual.
    """
    M, cls = _metzler_classified(A)
    if cls.kind not in (IRREDUCIBLE, COMPLETELY_REDUCIBLE):
        raise NotBalancableError(
            f"matrix is {cls.kind}: balancing requires an irreducible or "
            "completely reducible Metzler matrix")
    off = M.copy()
    np.fill_diagonal(off, 0.0)
    d, iterations, clamped = _balance(off, cls, tol, max_sweeps, d0)
    # Scale the off-diagonal part in place, take the residual from its sums,
    # then restore the diagonal, which the similarity leaves unchanged.
    off *= d[None, :] / d[:, None]
    residual = _imbalance(off.sum(axis=1), off.sum(axis=0))
    np.fill_diagonal(off, np.diag(M))
    return BalancingResult(d=d, balanced=off, iterations=iterations,
                           residual=residual, clamped=clamped)


def _tridiagonal_bands(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if _off_diagonal_min(M) < -STRUCTURAL_ZERO:
        raise ValueError("not a Metzler matrix: negative off-diagonal entry")
    n = M.shape[0]
    band = np.tril(np.triu(M, -1), 1)
    if n > 2 and float(np.max(np.abs(M - band))) > STRUCTURAL_ZERO:
        raise ValueError("matrix has entries outside the tridiagonal bands")
    if n == 1:
        return np.empty(0), np.empty(0)
    sub = np.diag(M, -1).astype(float)
    sup = np.diag(M, 1).astype(float)
    if float(np.min(sub)) <= STRUCTURAL_ZERO or float(np.min(sup)) <= STRUCTURAL_ZERO:
        raise ValueError(
            "zero sub- or super-diagonal entry: tridiagonal matrix is reducible")
    return sub, sup


def balance_tridiagonal(A) -> np.ndarray:
    """Closed-form balancing scaling for an irreducible tridiagonal Metzler matrix.

    d_1 = 1 and d_i = sqrt(prod_{j<i} a_{j+1,j} / a_{j,j+1}); the scaled
    matrix D^{-1} A D is symmetric, hence balanced.
    """
    sub, sup = _tridiagonal_bands(_as_square(A))
    return np.concatenate(([1.0], np.sqrt(np.cumprod(sub / sup))))


def potential(A, d) -> float:
    """Balancing potential f(d) = sum_ij a_ij d_j / d_i (d > 0)."""
    M = _as_square(A)
    dd = _positive_vector(d, M.shape[0], "d")
    return float((M * (dd[None, :] / dd[:, None])).sum())
