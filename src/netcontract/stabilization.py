"""Minimum-effort diagonal stabilization of Metzler matrices.

For weights w > 0 and a target abscissa, the cheapest diagonal perturbation
(minimizing w^T ell subject to alpha(A - diag(ell)) <= target) is read off a
balancing of diag(w) A: with D the balancing scaling, ell* = D^{-1} A D 1 -
target 1, and D 1 is a Perron eigenvector of the closed loop, which therefore
sits exactly on the target.  The reported abscissa is the Collatz-Wielandt
bound alpha(C) <= max_i (C d)_i / d_i, valid for every Metzler C and d > 0,
so the closed loop is never solved again.  A completely reducible matrix is
balanced block by block, every block driven to the same target.  Also
provides the marginal-stability certificate (a positive d with A d <= 0)
and an a-posteriori optimality checker.

Each public call builds the off-diagonal part of its matrix once, as a CSR
array of about two words per nonzero, and no n x n array after that: the
balancing's Newton products, the Perron iteration and every residual mat-vec
come from it, with the diagonal applied as a vector, so a mat-vec costs
O(nnz + n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netcontract.balancing import MAX_SWEEPS, _balance, _imbalance
from netcontract.metzler import (
    COMPLETELY_REDUCIBLE,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    IRREDUCIBLE,
    _FEASIBILITY_SLACK,
    _check,
    _finite,
    _metzler_classified,
    _perron,
    _vector,
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
    feasibility_residual: float  # |achieved - target| / (1 + |target|)
    feasible: bool  # feasibility_residual <= 1e-8
    iterations: int  # Newton steps of the one balancing of all blocks
    clamped: bool  # a balancing scaling entry hit SCALING_CLAMP


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


def _stabilize(A, caller: str, w, target: float, tol: float, max_sweeps: int,
               d0) -> StabilizationResult:
    """The gains of minimal_effort_stabilize and synthesize_gains, behind the
    one kind check of both, which names ``caller``."""
    M, cls, off = _metzler_classified(A, caller, IRREDUCIBLE, COMPLETELY_REDUCIBLE)
    w = _vector("w", w, M.shape[0], "positive")
    target = _finite("target", target)
    # diag(w) off: each stored entry scaled by its row's weight.
    weighted = off.copy()
    weighted.data *= np.repeat(w, np.diff(off.indptr))
    d, iterations, clamped = _balance(weighted, cls, tol, max_sweeps, d0)
    md = off @ d + np.diag(M) * d
    ell = md / d - target
    cd = md - ell * d
    achieved = float(np.max(cd / d))
    residual = abs(achieved - target) / (1.0 + abs(target))
    return StabilizationResult(
        ell_star=ell,
        d_star=d,
        target=target,
        achieved=achieved,
        cost=float(w @ ell),
        positive_gains=bool(np.all(ell > 0)),
        eigen_residual=float(np.max(np.abs(cd - target * d)) / np.max(d)),
        feasibility_residual=residual,
        feasible=_check("feasible", residual, 0.0, _FEASIBILITY_SLACK).passed,
        iterations=iterations,
        clamped=clamped,
    )


def minimal_effort_stabilize(A, w, target: float, tol: float = DEFAULT_TOL,
                             max_sweeps: int = MAX_SWEEPS, d0=None) -> StabilizationResult:
    """Cheapest diagonal gains driving the abscissa of A - diag(ell) to target.

    The target may exceed alpha(A), in which case some gains are negative.
    Takes irreducible or completely reducible A; a completely reducible A
    splits into independent per-block problems, each driven to the target,
    so the concatenated d remains a Perron eigenvector of the block-diagonal
    closed loop.  Other reducible input raises NotBalancableError, as in
    ``balance``.
    """
    return _stabilize(A, "minimal_effort_stabilize", w, target, tol, max_sweeps, d0)


def marginal_stability_certificate(A, tol: float = DEFAULT_TOL) -> MarginalStabilityResult:
    """Certificate of marginal stability for an irreducible Metzler matrix.

    alpha(A) <= 0 holds iff some d > 0 satisfies A d <= 0; the Perron
    eigenvector (iterated to bracket width ``tol``) is such a d whenever one
    exists.  Only a d with A d <= 0 in every entry is certified; the reported
    abscissa is the Perron bracket's upper end max_i (A d)_i / d_i >= alpha(A).
    Irreducible input only: a completely reducible A has one Perron vector
    per block, so other kinds raise NonIrreducibleError.
    """
    M, cls, off = _metzler_classified(A, "marginal_stability_certificate", IRREDUCIBLE)
    diag = np.diag(M)
    pair = _perron(off, diag, tol, DEFAULT_MAX_ITER)
    d = pair.eigenvector
    slack = off @ d + diag * d
    if _check("certified", np.max(slack), 0.0).passed:
        return MarginalStabilityResult(True, pair.abscissa, d, slack)
    return MarginalStabilityResult(False, pair.abscissa)


def verify_optimality(A, w, target: float, ell, tol: float = 1e-8) -> OptimalityReport:
    """First-order optimality check for candidate gains ell.

    ell solves the minimum-effort problem iff, with d the Perron eigenvector
    of the closed loop A - diag(ell): (i) diag(w) D^{-1} (A - diag(ell)) D is
    balanced, and (ii) d achieves the target abscissa exactly.  Both residuals
    are reported; `optimal` requires feasibility plus both conditions.
    Feasibility is judged on ``abscissa``, the Perron bracket's upper end.
    Irreducible input only: a completely reducible A has one Perron vector
    per block, so other kinds raise NonIrreducibleError.
    """
    M, cls, off = _metzler_classified(A, "verify_optimality", IRREDUCIBLE)
    n = M.shape[0]
    w = _vector("w", w, n, "positive")
    ell = _vector("ell", ell, n)
    target = _finite("target", target)
    tol = _finite("tol", tol, "positive")
    # The closed loop C = A - diag(ell) is the CSR off-diagonal part of A and
    # the diagonal vector diag(A) - ell; no n x n working copy is made.
    diag = np.diag(M) - ell
    pair = _perron(off, diag, DEFAULT_TOL, DEFAULT_MAX_ITER)
    d = pair.eigenvector
    od = off @ d
    cd = od + diag * d
    scaled_tol = tol * (1.0 + abs(target))
    # Off-diagonal row and column sums of diag(w) D^{-1} C D from two mat-vecs.
    balanced_residual = _imbalance(w * od / d, d * (off.T @ (w / d)))
    eigen_residual = float(np.max(np.abs(cd - target * d)) / np.max(d))
    return OptimalityReport(
        feasible=_check("feasible", pair.abscissa, target, scaled_tol).passed,
        abscissa=pair.abscissa,
        balanced_ok=_check("balanced", balanced_residual, 0.0, tol).passed,
        balanced_residual=balanced_residual,
        eigen_ok=_check("eigen", eigen_residual, 0.0, scaled_tol).passed,
        eigen_residual=eigen_residual,
        cost=float(w @ ell),
    )
