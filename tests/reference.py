"""Reference implementations that tests compare the library against."""

import itertools
import math

import numpy as np

from netcontract.fhn import (DivergedError, EntrainmentReport, fhn_gains, laplacian,
                             scaled_state_norm)
from netcontract.metzler import NoConvergenceError, _measure


def reference_rk4(f, x0, t0, t_end, step):
    """Classical RK4 written plainly: fresh arrays for every stage, and a
    finiteness check after every step."""
    n_steps = max(int(round((t_end - t0) / step)), 1)
    times = t0 + step * np.arange(n_steps + 1)
    x = np.asarray(x0, dtype=float)
    out = np.empty((n_steps + 1,) + x.shape)
    out[0] = x
    half = step / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = times[k]
            k1 = f(t, x)
            k2 = f(t + half, x + half * k1)
            k3 = f(t + half, x + half * k2)
            k4 = f(t + step, x + step * k3)
            x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise DivergedError(times[k + 1])
            out[k + 1] = x
    return times, out


def reference_block_bound_matrix(M, partition):
    """The block bound matrix pair by pair: the scalings applied to the whole
    stack, then one ``_measure`` or ``np.linalg.norm`` call per block pair."""
    M = np.asarray(M, dtype=float)
    kind = partition.block_norms[0].kind
    t = np.concatenate([np.ones(size) if bn.scaling is None else bn.scaling
                        for size, bn in zip(partition.sizes, partition.block_norms)])
    M = M * (t[:, None] / t[None, :])
    sl = partition.slices()
    m = len(sl)
    B = np.empty(M.shape[:-2] + (m, m))
    for i, j in itertools.product(range(m), repeat=2):
        blk = M[..., sl[i], sl[j]]
        B[..., i, j] = (_measure(blk, kind) if i == j else
                        np.linalg.norm(blk, {"one": 1, "two": 2, "inf": np.inf}[kind],
                                       axis=(-2, -1)))
    return B


def reference_closed_loop_jacobian(config, x):
    """The FitzHugh-Nagumo closed-loop Jacobian at x written from scratch per
    call: the gains resolved, a zeroed 2N x 2N array, then every block."""
    n = config.n_neurons
    v = np.asarray(x, dtype=float)[:n]
    c, gamma, A = config.c, config.gamma, config.adjacency
    ell = (config.gains if config.gains is not None else
           fhn_gains(laplacian(A), c, gamma, config.eta))
    i = np.arange(n)
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = gamma * A
    J[i, i] = c * (1.0 - v * v) - gamma * A.sum(axis=1) - ell
    J[i, n + i] = c
    J[n + i, i] = -1.0 / c
    J[n + i, n + i] = -config.b / c
    return J


def reference_voltage_jacobian_bound(L, c, gamma):
    """The state-independent bound c I - gamma (L + L^T)/2 on the symmetric
    part of the FitzHugh-Nagumo voltage block, built from L; unvalidated."""
    L = np.asarray(L, dtype=float)
    return c * np.eye(L.shape[0]) - gamma * (L + L.T) / 2.0


def reference_perron(A, tol=1e-10, max_iter=100_000):
    """The Collatz-Wielandt power iteration with one uniform shift, written
    plainly for an irreducible Metzler matrix: iterate A + (1 + max|a_ii|) I
    from the ones vector until the bracket of ratios (A v)_i / v_i is at most
    tol wide.  Returns (upper end of the bracket, power steps taken)."""
    A = np.asarray(A, dtype=float)
    shift = 1.0 + np.max(np.abs(np.diag(A)))
    S = A + shift * np.eye(A.shape[0])
    v = np.ones(A.shape[0])
    for step in range(max_iter):
        Sv = S @ v
        ratio = Sv / v
        if ratio.max() - ratio.min() <= tol:
            return ratio.max() - shift, step
        v = Sv / Sv.max()
    raise NoConvergenceError("reference Perron iteration did not converge", np.inf)


def reference_entrainment_check(config, trajectories, period=None, fit_start=1.0):
    """The entrainment diagnostics pair by pair, written plainly for valid
    arguments: each gap from ``scaled_state_norm``, its envelope
    g0 e^{-eta (t - t0)} formed per pair from the grid's first time t0, and
    the decay rate from ``np.polyfit``."""
    trajs = list(trajectories)
    times = trajs[0].times
    if period is None:
        period = config.input.period
    gap_slack, decay_rate, gaps = 0.0, math.inf, []
    fit_mask = times >= fit_start
    for ti, tj in itertools.combinations(trajs, 2):
        gap = scaled_state_norm(ti.states - tj.states, config.c)
        gaps.append(gap)
        g0 = float(gap[0])
        if g0 == 0.0:
            continue
        envelope = g0 * np.exp(-config.eta * (times - times[0]))
        gap_slack = max(gap_slack, float(np.max(gap[1:] / envelope[1:])))
        valid = fit_mask & (gap > 0.0)
        if int(valid.sum()) >= 2:
            slope = float(np.polyfit(times[valid], np.log(gap[valid]), 1)[0])
            decay_rate = min(decay_rate, -slope)
    k = int(round(period / float(times[1] - times[0])))
    periodicity, spread = 0.0, 0.0
    for tr in trajs:
        tail = tr.states[-(k + 1):]
        prev = tr.states[-(2 * k + 1):-k]
        periodicity = max(periodicity, float(np.max(np.abs(tail - prev))))
        v_tail = tr.v[-(k + 1):]
        spread = max(spread, float(np.max(v_tail.max(axis=-1) - v_tail.min(axis=-1))))
    return EntrainmentReport(eta=config.eta, period=period, gap_slack=gap_slack,
                             decay_rate=decay_rate, periodicity_residual=periodicity,
                             sync_spread=spread, n_pairs=len(gaps), gaps=np.array(gaps))
