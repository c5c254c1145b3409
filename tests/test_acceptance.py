"""Acceptance suite: one test per release criterion, each reporting a single
PASS/FAIL line (echoed in the terminal summary via conftest).  Tolerances and
runtime budgets are stated inline and are not to be loosened.
"""

import time

import numpy as np

from netcontract.balancing import balance, imbalance, potential
from netcontract.fhn import (
    FhnConfig,
    SinusoidInput,
    Trajectory,
    entrainment_check,
    fhn_gains,
    initial_state,
    laplacian,
    simulate,
)
from netcontract.hierarchy import (
    BlockPartition,
    block_bound_matrix,
    composite_norm,
    synthesize_gains,
    tridiagonal_gains,
)
from netcontract.metzler import matrix_measure, perron_pair, spectral_abscissa
from netcontract.stabilization import (
    marginal_stability_certificate,
    minimal_effort_stabilize,
)

from generators import (
    random_connected_adjacency,
    random_irreducible_metzler,
    random_metzler,
    random_tridiagonal_metzler,
)
from reference import reference_rk4, reference_voltage_jacobian_bound

SIX_RING = np.array([
    [0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
], dtype=float)


REPORT_LINES = []


def _report(num: int, label: str, ok: bool, detail: str = "") -> str:
    line = f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    REPORT_LINES.append(line)
    print(line)
    return line


def test_criterion_1_flow_example():
    start = time.perf_counter()
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])  # flow rate f = 1

    res_a = minimal_effort_stabilize(A, [1.0, 4.0], target=-1.0)     # eps = 0
    gain_err_a = float(np.max(np.abs(res_a.ell_star - [2.0, 0.5])))
    eigs = np.linalg.eigvals(A - np.diag(res_a.ell_star))
    eig_err = float(np.max(np.abs(np.sort(eigs.real) - [-3.5, -1.0])))
    eig_err = max(eig_err, float(np.max(np.abs(eigs.imag))))

    res_b = minimal_effort_stabilize(A, [1.0, 1.0], target=-1.25)    # eps = 0.25
    gain_err_b = float(np.max(np.abs(res_b.ell_star - [1.25, 1.25])))

    elapsed = time.perf_counter() - start
    ok = gain_err_a <= 1e-9 and eig_err <= 1e-8 and gain_err_b <= 1e-9 and elapsed < 1.0
    line = _report(1, "two-node flow gains", ok,
                   f"gain err {max(gain_err_a, gain_err_b):.1e}, "
                   f"eig err {eig_err:.1e}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_2_balancing_fixed_point():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    sizes = [5] * 34 + [20] * 33 + [100] * 33
    worst_imbalance = 0.0
    worst_scale_dev = 0.0
    worst_potential_margin = np.inf
    for n in sizes:
        A = random_irreducible_metzler(rng, n)
        res = balance(A)
        worst_imbalance = max(worst_imbalance, res.residual)

        d0 = rng.uniform(0.2, 5.0, size=n)
        res2 = balance(A, d0=d0)
        worst_scale_dev = max(worst_scale_dev,
                              float(np.max(np.abs(res2.d / res.d - 1.0))))

        if n <= 8:
            f_star = potential(A, res.d)
            rand_d = np.exp(rng.uniform(-2.0, 2.0, size=(1000, n)))
            f_rand = min(potential(A, dr) for dr in rand_d)
            worst_potential_margin = min(worst_potential_margin, f_rand - f_star)

    elapsed = time.perf_counter() - start
    ok = (worst_imbalance <= 1e-10 and worst_scale_dev <= 1e-6
          and worst_potential_margin >= -1e-12 and elapsed < 30.0)
    line = _report(2, "balancing fixed point", ok,
                   f"imbalance {worst_imbalance:.1e}, init dev {worst_scale_dev:.1e}, "
                   f"oracle margin {worst_potential_margin:.1e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_3_stabilization_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    worst_feas = 0.0
    worst_eigen = 0.0
    accepted = 0
    costlier = 0
    for k in range(100):
        n = int(rng.integers(2, 9))
        A = random_irreducible_metzler(rng, n)
        w = rng.uniform(0.2, 3.0, size=n)
        target = spectral_abscissa(A) - (0.1, 1.0, 10.0)[k % 3]
        res = minimal_effort_stabilize(A, w, target)
        worst_feas = max(worst_feas, abs(res.achieved - target))
        closed = A - np.diag(res.ell_star)
        worst_eigen = max(worst_eigen,
                          float(np.max(np.abs(closed @ res.d_star - target * res.d_star))
                                / np.max(res.d_star)))
        cost_star = res.cost
        # boundary-feasible alternatives: any d > 0 gives ell with the closed
        # loop's Perron pair (target, d); adding nonnegative noise stays feasible
        for j in range(10):
            d = np.exp(rng.uniform(-1.5, 1.5, size=n))
            ell = (A @ d) / d - target
            if j % 2:
                ell = ell + rng.uniform(0.0, 0.5, size=n)
            if spectral_abscissa(A - np.diag(ell)) <= target + 1e-9:
                accepted += 1
                if float(w @ ell) >= cost_star - 1e-7:
                    costlier += 1
    elapsed = time.perf_counter() - start
    ok = (worst_feas <= 1e-8 and worst_eigen <= 1e-8
          and accepted == 1000 and costlier == accepted and elapsed < 60.0)
    line = _report(3, "minimum-effort stabilization", ok,
                   f"|achieved-target| {worst_feas:.1e}, eigen residual {worst_eigen:.1e}, "
                   f"{costlier}/{accepted} alternatives costlier, {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_tridiagonal_agreement():
    start = time.perf_counter()
    worked = tridiagonal_gains([[1.0, 2.0, 0.0], [8.0, 1.0, 3.0], [0.0, 12.0, 1.0]], 0.5)
    worked_err = float(np.max(np.abs(worked - [5.5, 11.5, 7.5])))
    rng = np.random.default_rng(40)
    worst = worked_err
    for _ in range(100):
        n = int(rng.integers(2, 13))
        J = random_tridiagonal_metzler(rng, n, diag_low=0.0, diag_high=2.0)
        eta = float(rng.uniform(0.1, 1.0))
        closed_form = tridiagonal_gains(J, eta)
        iterative = synthesize_gains(J, np.ones(n), eta, tol=1e-12).v_star
        worst = max(worst, float(np.max(np.abs(closed_form - iterative))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    line = _report(4, "tridiagonal closed form", ok,
                   f"max |closed-form - iterative| {worst:.1e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_5_measure_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        A = random_metzler(rng, n)
        B = A + rng.uniform(0.01, 0.8, size=(n, n))  # A <= B, both Metzler
        for kind in ("one", "two", "inf"):
            worst = max(worst, matrix_measure(A, kind) - matrix_measure(B, kind))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    line = _report(5, "measure monotonicity", ok,
                   f"max mu(A)-mu(B) {worst:.1e} over 3000 comparisons, {elapsed:.1f}s")
    assert ok, line


def test_criterion_6_fhn_gains():
    start = time.perf_counter()
    L = laplacian(SIX_RING)
    ell = fhn_gains(L, c=6.0, gamma=0.05, eta=0.05)
    gain_err = float(np.max(np.abs(ell - [6.025, 6.05, 6.05, 6.05, 6.075, 6.05])))
    closed = reference_voltage_jacobian_bound(L, 6.0, 0.05) - np.diag(ell)
    abscissa_err = abs(float(np.max(np.linalg.eigvalsh(closed))) + 0.05)

    adj = random_connected_adjacency(np.random.default_rng(6), 8)
    uniform_exact = np.array_equal(fhn_gains(laplacian(adj), 6.0, 0.05, 0.05),
                                   6.05 * np.ones(8))
    elapsed = time.perf_counter() - start
    ok = gain_err <= 1e-9 and abscissa_err <= 1e-8 and uniform_exact and elapsed < 1.0
    line = _report(6, "FHN network gains", ok,
                   f"gain err {gain_err:.1e}, abscissa err {abscissa_err:.1e}, "
                   f"symmetric case exact: {uniform_exact}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_7_fhn_entrainment():
    start = time.perf_counter()
    cfg = FhnConfig(adjacency=SIX_RING, input=SinusoidInput(4.0, 4.0, 1.0),
                    t_end=25.0, step=1e-3)
    x0 = np.stack([initial_state(cfg, np.random.default_rng(s)) for s in (0, 1)])
    traj = simulate(cfg, x0=x0)
    trajs = [Trajectory(traj.times, traj.states[:, i], traj.input_trace)
             for i in range(2)]
    report = entrainment_check(cfg, trajs)
    elapsed = time.perf_counter() - start
    ok = (report.gap_slack <= 1.05 and report.decay_rate >= 0.045
          and report.periodicity_residual <= 1e-3 and elapsed < 60.0)
    line = _report(7, "FHN entrainment", ok,
                   f"gap slack {report.gap_slack:.3f}, decay {report.decay_rate:.3f}, "
                   f"periodicity {report.periodicity_residual:.1e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_8_marginal_stability_certificate():
    start = time.perf_counter()
    rng = np.random.default_rng(80)
    agree = 0
    slack_ok = True
    certified_count = 0
    for k in range(200):
        n = int(rng.integers(2, 9))
        A = random_irreducible_metzler(rng, n)
        target_alpha = (1.0 if k % 2 else -1.0) * rng.uniform(0.1, 2.0)
        A = A + (target_alpha - float(np.max(np.linalg.eigvals(A).real))) * np.eye(n)
        truth = float(np.max(np.linalg.eigvals(A).real)) <= 1e-10
        cert = marginal_stability_certificate(A)
        if cert.certified == truth:
            agree += 1
        if cert.certified:
            certified_count += 1
            d = cert.d
            if not (np.all(d > 0)
                    and np.all(A @ d <= 1e-9 * np.max(np.abs(d)))):
                slack_ok = False
    elapsed = time.perf_counter() - start
    ok = agree == 200 and slack_ok and certified_count == 100 and elapsed < 10.0
    line = _report(8, "marginal stability certificate", ok,
                   f"{agree}/200 match the eigenvalue oracle, "
                   f"{certified_count} certified with valid d, {elapsed:.1f}s")
    assert ok, line


def test_criterion_9_block_bound_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(90)
    worst_excess = -np.inf
    for _ in range(50):
        m = int(rng.integers(2, 5))
        block_sizes = [int(rng.integers(1, 4)) for _ in range(m)]
        n = sum(block_sizes)
        part = BlockPartition.uniform(block_sizes,
                                      kind=("one", "two", "inf")[int(rng.integers(3))])
        A = rng.uniform(-1.5, 1.5, size=(n, n))
        # shift each diagonal block until the bound's row sums are negative
        B0 = block_bound_matrix(A, part)
        for i, sl in enumerate(part.slices()):
            shift = float(B0[i].sum()) + float(rng.uniform(0.2, 1.0))
            A[sl, sl] -= shift * np.eye(block_sizes[i])
        B = block_bound_matrix(A, part)
        alpha = spectral_abscissa(B)
        assert alpha < 0  # Hurwitz by construction
        weights = perron_pair(B).eigenvector

        x0 = rng.uniform(-1.0, 1.0, size=(4, n))
        times, states = reference_rk4(lambda t, x: x @ A.T, x0, 0.0, 2.0, 1e-3)
        norms = composite_norm(states, part, weights=weights)
        for i in range(4):
            slope = float(np.polyfit(times, np.log(norms[:, i]), 1)[0])
            worst_excess = max(worst_excess, slope - alpha)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-3 and elapsed < 60.0
    line = _report(9, "block bound soundness", ok,
                   f"max (fitted slope - alpha(B)) {worst_excess:.1e} over 200 "
                   f"trajectories, {elapsed:.1f}s")
    assert ok, line
