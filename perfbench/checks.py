"""Checks of the program's outputs, each made apart from the program.

Every function returns None when the output is right and a one-line reason
when it is not.  They use plain numpy (mat-vecs, eigvalsh, eig) and the
defining properties of each result, never a stored copy of an earlier run.
"""

from __future__ import annotations

import numpy as np

# Collatz-Wielandt brackets and KKT residuals must sit on the target to this
# (times 1 + |target|); balancing at tol 1e-10 leaves them near 1e-9.
BRACKET_TOL = 1e-8
# The certificate's own comparison slack; the reference verdict uses the same.
CERT_SLACK = 1e-9


def collatz_wielandt(apply, d: np.ndarray) -> tuple[float, float]:
    """min_i (C d)_i / d_i and max_i (C d)_i / d_i for C given as a mat-vec.

    For irreducible Metzler C and any d > 0 the pair brackets the spectral
    abscissa of C (Collatz 1942, Wielandt 1950).
    """
    ratio = apply(d) / d
    return float(ratio.min()), float(ratio.max())


def _off_target(bracket, target: float) -> float:
    return max(abs(bracket[0] - target), abs(bracket[1] - target))


def stabilization(A, w, target, ell, d) -> str | None:
    """Closed loop A - diag(ell) sits on the target, and the gains are optimal.

    Right bracket with d: the abscissa equals the target.  Left bracket with
    u = w / d on the transpose: u is a left Perron vector, so w = u * d,
    which is the KKT condition of the convex minimum-effort problem.
    """
    ell = np.asarray(ell, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.shape != w.shape or ell.shape != w.shape:
        return f"shapes: ell {ell.shape}, d {d.shape}, expected {w.shape}"
    if not (np.all(np.isfinite(ell)) and np.all(d > 0)):
        return "gains not finite or scaling not positive"
    tol = BRACKET_TOL * (1.0 + abs(target))
    right = collatz_wielandt(lambda x: A @ x - ell * x, d)
    if _off_target(right, target) > tol:
        return f"closed-loop bracket {right} is off target {target}"
    left = collatz_wielandt(lambda x: A.T @ x - ell * x, w / d)
    if _off_target(left, target) > tol:
        return f"KKT: left bracket {left} with u = w/d is off target {target}"
    return None


def optimality_report(report, A, ell, d, target) -> str | None:
    """verify_optimality says optimal, and its abscissa lies in the bracket."""
    if not report.optimal:
        return f"verify_optimality reports not optimal: {report}"
    tol = BRACKET_TOL * (1.0 + abs(target))
    lo, hi = collatz_wielandt(lambda x: A @ x - ell * x, np.asarray(d, dtype=float))
    if not lo - tol <= report.abscissa <= hi + tol:
        return f"reported abscissa {report.abscissa} outside bracket [{lo}, {hi}]"
    return None


def laplacian(adj: np.ndarray) -> np.ndarray:
    return np.diag(adj.sum(axis=1)) - adj


def closed_form_gains(adj, c, gamma, eta) -> np.ndarray:
    """Minimum FHN voltage gains (c + eta) 1 - (gamma / 2) L^T 1."""
    return (c + eta) - 0.5 * gamma * laplacian(adj).sum(axis=0)


def _closed_voltage_bound(adj, gains, c, gamma) -> np.ndarray:
    L = laplacian(adj)
    n = adj.shape[0]
    return c * np.eye(n) - gamma * (L + L.T) / 2.0 - np.diag(gains)


def certificate_verdict(adj, gains, c, gamma, eta, b) -> bool:
    """The FHN certificate's verdict computed with an exact eigensolver.

    mu_2 of the closed-loop voltage bound is the top eigenvalue from
    eigvalsh; the other two conditions are elementwise.
    """
    n = adj.shape[0]
    mu = max(float(np.linalg.eigvalsh(_closed_voltage_bound(adj, gains, c, gamma))[-1]),
             -b / c)
    open_bound = c * np.eye(n) - gamma * laplacian(adj)
    return (eta <= b / c + CERT_SLACK
            and float(np.min(open_bound + eta * np.eye(n))) >= -1e-12
            and mu <= -eta + CERT_SLACK)


def fhn_gains(adj, gains, c, gamma, eta) -> str | None:
    """The minimum gains put mu_2 of the closed-loop bound exactly at -eta."""
    top = float(np.linalg.eigvalsh(_closed_voltage_bound(adj, gains, c, gamma))[-1])
    if abs(top + eta) > CERT_SLACK:
        return f"mu_2 with the minimum gains is {top!r}, expected {-eta!r}"
    return None


def trajectory(traj, x0, t_end) -> str | None:
    states = np.asarray(traj.states)
    if states.shape[1:] != x0.shape:
        return f"state shape {states.shape[1:]}, expected {x0.shape}"
    if not np.array_equal(states[0], x0):
        return "first state differs from x0"
    if not np.all(np.isfinite(states)):
        return "non-finite state"
    if abs(float(traj.times[-1]) - t_end) > 1e-9:
        return f"trajectory ends at {traj.times[-1]}, expected {t_end}"
    return None


# Periodicity over the last input period after 18 periods; the measured
# residual is about 2e-3 at the benchmark's rate and step.
PERIODICITY_TOL = 1e-2


def entrainment(report, eta) -> str | None:
    """The contraction envelope holds, the fitted rate reaches eta, and the
    orbit has become periodic."""
    if not report.gap_slack <= 1.0 + CERT_SLACK:
        return f"gap_slack {report.gap_slack} > 1: the e^(-eta t) envelope fails"
    if not report.decay_rate >= eta:
        return f"decay_rate {report.decay_rate} < eta {eta}"
    if not report.periodicity_residual <= PERIODICITY_TOL:
        return f"periodicity residual {report.periodicity_residual} > {PERIODICITY_TOL}"
    return None


def fhn_block_bound(j_hat, adj, v_samples, c, gamma, b) -> str | None:
    """Block bound of the FHN Jacobian with (v_i, w_i) blocks scaled by (1, c).

    A coupling block is gamma * a_ij in the voltage entry only, so its norm is
    gamma * a_ij.  A diagonal block's scaled symmetric part is
    diag(c (1 - v_i^2), -b / c), so the entry is at least the closed form
    over the sampled points and at most its supremum c.
    """
    j_hat = np.asarray(j_hat, dtype=float)
    m = adj.shape[0]
    if j_hat.shape != (m, m):
        return f"j_hat shape {j_hat.shape}, expected {(m, m)}"
    off = ~np.eye(m, dtype=bool)
    if not np.allclose(j_hat[off], gamma * adj[off], rtol=1e-12, atol=0.0):
        return "coupling entries differ from gamma * adjacency"
    lower = np.maximum(c * (1.0 - v_samples ** 2), -b / c).max(axis=0)
    diag = np.diag(j_hat)
    tol = BRACKET_TOL * (1.0 + c)
    if np.any(diag < lower - tol) or np.any(diag > c + tol):
        return f"diagonal {diag} outside [sampled closed form {lower}, c = {c}]"
    return None


def synthesis(j_hat, w, eta, v) -> str | None:
    """Gains for the reduced bound: bracket and KKT with an eig Perron vector."""
    J = np.asarray(j_hat, dtype=float)
    vals, vecs = np.linalg.eig(J - np.diag(v))
    d = np.real(vecs[:, int(np.argmax(vals.real))])
    d = d / d[np.argmax(np.abs(d))]
    if not np.all(d > 0):
        return "closed loop has no positive Perron vector"
    return stabilization(J, w, -eta, v, d)
