"""Minimum-effort diagonal stabilization of irreducible Metzler matrices.

For weights w > 0 and a target abscissa, the cheapest diagonal perturbation
(minimizing w^T ell subject to alpha(A - diag(ell)) <= target) is read off a
balancing of diag(w) A: with D the balancing scaling, ell* = D^{-1} A D 1 -
target 1, and D 1 is a Perron eigenvector of the closed loop, which therefore
sits exactly on the target.  The reported abscissa is the Collatz-Wielandt
bound alpha(C) <= max_i (C d)_i / d_i, valid for every Metzler C and d > 0,
so the closed loop is never solved again.  Also provides the
marginal-stability certificate (a positive d with A d <= 0) and an
a-posteriori optimality checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netcontract.balancing import MAX_SWEEPS, balance, imbalance
from netcontract.metzler import (
    COMPLETELY_REDUCIBLE,
    DEFAULT_TOL,
    IRREDUCIBLE,
    NonIrreducibleError,
    _metzler_classified,
    perron_pair,
)


@dataclass
class StabilizationResult:
    ell_star: np.ndarray
    d_star: np.ndarray
    target: float
    achieved: float
    cost: float
    positive_gains: bool
    eigen_residual: float
    feasibility_residual: float


@dataclass
class MarginalStabilityResult:
    certified: bool
    abscissa: float
    d: np.ndarray | None = None
    slack: np.ndarray | None = None  # A d, elementwise <= 0 when certified


@dataclass
class OptimalityReport:
    feasible: bool
    abscissa: float
    balanced_ok: bool
    balanced_residual: float
    eigen_ok: bool
    eigen_residual: float
    cost: float

    @property
    def optimal(self) -> bool:
        return self.feasible and self.balanced_ok and self.eigen_ok


def _positive_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def _collatz_wielandt_max(M: np.ndarray, ell: np.ndarray, d: np.ndarray):
    """Upper bound max_i (C d)_i / d_i on alpha(C), C = M - diag(ell), and C d."""
    cd = M @ d - ell * d
    return float(np.max(cd / d)), cd


def _stabilization_result(M: np.ndarray, w: np.ndarray, target: float,
                          ell: np.ndarray, d: np.ndarray) -> StabilizationResult:
    achieved, cd = _collatz_wielandt_max(M, ell, d)
    return StabilizationResult(
        ell_star=ell,
        d_star=d,
        target=float(target),
        achieved=achieved,
        cost=float(w @ ell),
        positive_gains=bool(np.all(ell > 0)),
        eigen_residual=float(np.max(np.abs(cd - target * d)) / np.max(d)),
        feasibility_residual=abs(achieved - target) / (1.0 + abs(target)),
    )


def minimal_effort_stabilize(A, w, target: float, tol: float = DEFAULT_TOL,
                             max_sweeps: int = MAX_SWEEPS, d0=None) -> StabilizationResult:
    """Cheapest diagonal gains driving the abscissa of A - diag(ell) to target.

    The target may exceed alpha(A), in which case some gains are negative.
    Raises NonIrreducibleError for non-irreducible input; completely reducible
    matrices decompose into independent per-block problems (stabilize_blocks).
    """
    M, cls = _metzler_classified(A)
    if cls.kind != IRREDUCIBLE:
        raise NonIrreducibleError(
            f"minimal_effort_stabilize requires an irreducible matrix (got "
            f"{cls.kind}); use stabilize_blocks for completely reducible input")
    n = M.shape[0]
    w = _positive_vector(w, n, "w")
    d = balance(w[:, None] * M, tol=tol, max_sweeps=max_sweeps, d0=d0).d
    ell = (M @ d) / d - target
    return _stabilization_result(M, w, target, ell, d)


def stabilize_blocks(A, w, target: float, tol: float = DEFAULT_TOL,
                     max_sweeps: int = MAX_SWEEPS) -> StabilizationResult:
    """minimal_effort_stabilize applied per irreducible diagonal block.

    Accepts irreducible or completely reducible input; every block is driven
    to the same target, so the concatenated d remains a Perron eigenvector of
    the block-diagonal closed loop.
    """
    M, cls = _metzler_classified(A)
    if cls.kind == IRREDUCIBLE:
        return minimal_effort_stabilize(M, w, target, tol=tol, max_sweeps=max_sweeps)
    if cls.kind != COMPLETELY_REDUCIBLE:
        raise NonIrreducibleError(
            f"stabilize_blocks requires an irreducible or completely reducible "
            f"matrix, got {cls.kind}")
    n = M.shape[0]
    w = _positive_vector(w, n, "w")
    ell = np.empty(n)
    d = np.empty(n)
    for block in cls.blocks:
        idx = list(block)
        sub = minimal_effort_stabilize(M[np.ix_(idx, idx)], w[idx], target,
                                       tol=tol, max_sweeps=max_sweeps)
        ell[idx] = sub.ell_star
        d[idx] = sub.d_star
    return _stabilization_result(M, w, target, ell, d)


def marginal_stability_certificate(A, tol: float = DEFAULT_TOL) -> MarginalStabilityResult:
    """Certificate of marginal stability for an irreducible Metzler matrix.

    alpha(A) <= 0 holds iff some d > 0 satisfies A d <= 0; the Perron
    eigenvector is such a d.  When the abscissa exceeds tol no certificate
    exists and only the abscissa is reported.
    """
    M, _ = _metzler_classified(A)
    pair = perron_pair(M, tol=tol)
    if pair.abscissa <= tol:
        d = pair.eigenvector
        return MarginalStabilityResult(True, pair.abscissa, d, M @ d)
    return MarginalStabilityResult(False, pair.abscissa)


def verify_optimality(A, w, target: float, ell, tol: float = 1e-8) -> OptimalityReport:
    """First-order optimality check for candidate gains ell.

    ell solves the minimum-effort problem iff, with d the Perron eigenvector
    of the closed loop A - diag(ell): (i) diag(w) D^{-1} (A - diag(ell)) D is
    balanced, and (ii) d achieves the target abscissa exactly.  Both residuals
    are reported; `optimal` requires feasibility plus both conditions.
    Feasibility is judged on the Collatz-Wielandt upper bound from d.
    """
    M, cls = _metzler_classified(A)
    if cls.kind != IRREDUCIBLE:
        raise NonIrreducibleError(
            f"verify_optimality requires an irreducible matrix, got {cls.kind}")
    n = M.shape[0]
    w = _positive_vector(w, n, "w")
    ell = np.asarray(ell, dtype=float).ravel()
    if ell.shape[0] != n:
        raise ValueError(f"ell has length {ell.shape[0]}, expected {n}")
    closed = M - np.diag(ell)
    d = perron_pair(closed).eigenvector
    abscissa, cd = _collatz_wielandt_max(M, ell, d)
    feasible = abscissa <= target + tol * (1.0 + abs(target))
    scaled = w[:, None] * (closed * (d[None, :] / d[:, None]))
    balanced_residual = imbalance(scaled)
    eigen_residual = float(np.max(np.abs(cd - target * d)) / np.max(d))
    return OptimalityReport(
        feasible=bool(feasible),
        abscissa=abscissa,
        balanced_ok=bool(balanced_residual <= tol),
        balanced_residual=balanced_residual,
        eigen_ok=bool(eigen_residual <= tol * (1.0 + abs(target))),
        eigen_residual=eigen_residual,
        cost=float(w @ ell),
    )
