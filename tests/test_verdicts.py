"""Every pass or fail of the library comes from one rule, ``metzler._check``:
value passes when value <= bound + slack.  These tests pin the rule at its
limit for each slack, and one passing and one failing real input at each
site that decides a verdict.

Ids that start with ``unsafe-`` pin verdicts that pass on the unsafe side of
a rounding slack today: a safe-side error term in ``_check`` is meant to
turn each of them into a fail, and these tests then show it."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from netcontract.fhn import FhnConfig, certify, fhn_gains, laplacian, load_config, resolved_gains
from netcontract.hierarchy import HypothesisViolatedError, synthesize_gains
from netcontract.metzler import (_CERT_SLACK, _FEASIBILITY_SLACK, _FLOOR_SLACK,
                                  CertificateCheck, _check)
from netcontract.stabilization import (marginal_stability_certificate,
                                       minimal_effort_stabilize, verify_optimality)

from generators import large_entry_metzler, random_irreducible_metzler

FHN6 = Path(__file__).resolve().parents[1] / "configs" / "fhn6.json"

# verify_optimality's default tol, alone (balanced_ok) and scaled by
# 1 + |target| at target -1 (feasible and eigen_ok).
TOL = 1e-8
SLACKS = {"none": 0.0, "cert": _CERT_SLACK, "floor": _FLOOR_SLACK,
          "feasibility": _FEASIBILITY_SLACK, "tol": TOL, "scaled-tol": TOL * 2.0}


@pytest.mark.parametrize("bound", [-1.0, -0.05, 0.0, 1.0 / 3.0, 1e3])
@pytest.mark.parametrize("slack", list(SLACKS.values()), ids=list(SLACKS))
def test_rule_at_its_limit(slack, bound):
    limit = bound + slack
    assert _check("c", limit, bound, slack) == CertificateCheck("c", True, limit - bound)
    above = np.nextafter(limit, np.inf)
    assert _check("c", above, bound, slack).passed is False


def test_passed_is_a_python_bool():
    # The CLI writes it to JSON, which takes no numpy bool.
    assert type(_check("c", np.float64(1.0), np.float64(2.0)).passed) is bool


# Inputs of the sites.
SIX_RING = load_config(FHN6).adjacency
FLOW = np.array([[-1.0, 1.0], [1.0, -1.0]])
FLOW_W = np.array([1.0, 4.0])
FLOW_GAINS = np.array([2.0, 0.5])  # its optimum at target -1
K4 = np.ones((4, 4)) - np.eye(4)
# gamma * max degree - c = 3 * 3 - 0.05, less a gap in (0, 1e-12].
K4_FLOOR = 3.0 * 3.0 - 0.05
K4_ETA = K4_FLOOR - 5e-13


def _certify_check(name, **config):
    """The verdict of one of certify's checks on the fhn6 network."""
    cfg = load_config(FHN6)
    if "gains_shift" in config:
        config["gains"] = resolved_gains(cfg) + config.pop("gains_shift")
    return {c.name: c.passed for c in certify(dataclasses.replace(cfg, **config)).checks}[name]


def _raises(call, error):
    """False when call raises error, True when it returns."""
    try:
        call()
    except error:
        return False
    return True


def _optimality(ell, field):
    return getattr(verify_optimality(FLOW, FLOW_W, -1.0, ell), field)


def _n50_lowered():
    """verify_optimality on an n = 50 network at target -1, with its optimal
    gains lowered by 5e-9."""
    A = random_irreducible_metzler(np.random.default_rng(3), 50, density=0.2)
    ell = minimal_effort_stabilize(A, np.ones(50), -1.0).ell_star - 5e-9
    return verify_optimality(A, np.ones(50), -1.0, ell)


def _synthesize_feasible(J):
    return synthesize_gains(J, np.ones(J.shape[0]), 1.0).feasible


def _zero_diagonal(J):
    np.fill_diagonal(J, 0.0)
    return J


SITES = {
    # fhn.certify
    "certify-eta_le_b_over_c-pass": (lambda: _certify_check("eta_le_b_over_c"), True),
    "certify-eta_le_b_over_c-fail": (
        lambda: _certify_check("eta_le_b_over_c", eta=0.5), False),  # b/c = 1/3
    "certify-bound_plus_eta_nonneg-pass": (
        lambda: _certify_check("bound_plus_eta_nonneg"), True),
    "certify-bound_plus_eta_nonneg-fail": (
        lambda: _certify_check("bound_plus_eta_nonneg", c=0.05, gamma=3.0, gains=np.ones(6)),
        False),
    "certify-scaled_measure_le_minus_eta-pass": (
        lambda: _certify_check("scaled_measure_le_minus_eta"), True),
    "certify-scaled_measure_le_minus_eta-fail": (
        lambda: _certify_check("scaled_measure_le_minus_eta", gains_shift=-2e-9), False),
    "unsafe-certify-fhn6-gains-lowered-5e-10-pass": (
        lambda: _certify_check("scaled_measure_le_minus_eta", gains_shift=-5e-10), True),
    "unsafe-certify-floor-gap-5e-13-passes-bound_plus_eta_nonneg": (
        lambda: certify(FhnConfig(adjacency=K4, c=0.05, gamma=3.0, eta=K4_ETA,
                                  gains=np.ones(4))).checks[1].passed, True),
    # fhn.fhn_gains: eta >= gamma * max degree - c, with no slack
    "fhn_gains-pass": (lambda: _raises(
        lambda: fhn_gains(laplacian(SIX_RING), 6.0, 0.05, 0.05), ValueError), True),
    "fhn_gains-fail": (lambda: _raises(
        lambda: fhn_gains(laplacian(K4), 0.05, 3.0, 1.0), ValueError), False),
    "fhn_gains-floor-gap-5e-13-fail": (lambda: _raises(
        lambda: fhn_gains(laplacian(K4), 0.05, 3.0, K4_ETA), ValueError), False),
    # stabilization.marginal_stability_certificate: max (A d)_i <= 0
    "marginal-pass-at-zero": (lambda: marginal_stability_certificate(FLOW).certified, True),
    "marginal-pass": (lambda: marginal_stability_certificate(FLOW - np.eye(2)).certified,
                      True),
    "marginal-fail": (
        lambda: marginal_stability_certificate([[-1.0, 2.0], [1.0, -1.0]]).certified, False),
    # stabilization.verify_optimality
    "verify_optimality-feasible-pass": (lambda: _optimality(FLOW_GAINS, "feasible"), True),
    "verify_optimality-feasible-fail": (
        lambda: _optimality(FLOW_GAINS - 1e-3, "feasible"), False),
    "verify_optimality-balanced_ok-pass": (
        lambda: _optimality(FLOW_GAINS + 1.0, "balanced_ok"), True),
    "verify_optimality-balanced_ok-fail": (
        lambda: _optimality(FLOW_GAINS + [1.0, 0.0], "balanced_ok"), False),
    "verify_optimality-eigen_ok-pass": (lambda: _optimality(FLOW_GAINS, "eigen_ok"), True),
    "verify_optimality-eigen_ok-fail": (
        lambda: _optimality(FLOW_GAINS + 1.0, "eigen_ok"), False),
    # optimal is feasible and balanced_ok and eigen_ok
    "unsafe-verify_optimality-n50-gains-lowered-5e-9-feasible-and-optimal": (
        lambda: _n50_lowered().optimal, True),
    # hierarchy._check_hypothesis: J_hat + eta*I >= 0
    "hypothesis-pass": (lambda: _raises(
        lambda: synthesize_gains([[-0.25, 1.0], [1.0, -0.25]], [1.0, 1.0], 0.25),
        HypothesisViolatedError), True),
    "hypothesis-fail": (lambda: _raises(
        lambda: synthesize_gains([[-1.0, 1.0], [1.0, -1.0]], [1.0, 1.0], 0.25),
        HypothesisViolatedError), False),
    # StabilizationResult.feasible, the exit code of `netcontract stabilize`
    "stabilize-feasible-pass": (
        lambda: minimal_effort_stabilize(FLOW, FLOW_W, -1.0).feasible, True),
    "stabilize-feasible-fail": (
        lambda: minimal_effort_stabilize(large_entry_metzler(), np.ones(50), -1.0).feasible,
        False),
    # GainSynthesisResult.feasible, the exit code of `netcontract synthesize`
    "synthesize-feasible-pass": (lambda: _synthesize_feasible(
        np.array([[1.0, 2.0, 0.0], [8.0, 1.0, 3.0], [0.0, 12.0, 1.0]])), True),
    "synthesize-feasible-fail": (
        lambda: _synthesize_feasible(_zero_diagonal(large_entry_metzler())), False),
}


@pytest.mark.parametrize("site", list(SITES))
def test_site_verdict(site):
    verdict, expected = SITES[site]
    assert verdict() is expected


@pytest.mark.parametrize("rate, residual, multiplied, divided", [
    (0.5, 1.5000000000000002e-08, True, False),
    (1.5, 2.5000000000000002e-08, False, True),
], ids=["rate-0.5-multiplied-passes", "rate-1.5-divided-passes"])
def test_synthesize_rule_moved_to_divided_form(rate, residual, multiplied, divided):
    # `netcontract synthesize` exited 0 when |a + rate| <= 1e-8 (1 + rate);
    # it now reads `feasible`, |a + rate| / (1 + rate) <= 1e-8.  The two
    # forms differ only at one rounding of the limit, at these |a + rate|.
    assert (residual <= 1e-8 * (1.0 + rate)) is multiplied
    assert _check("feasible", residual / (1.0 + rate), 0.0, _FEASIBILITY_SLACK).passed is divided
    # No closed-loop abscissa a near -rate makes fl(a + rate) one of them:
    # a + rate is exact there, a multiple of a's spacing.
    a = -rate + residual + np.spacing(-rate) * np.arange(-1000, 1001)
    assert not np.any(np.abs(a + rate) == residual)


def test_feasible_follows_from_the_reported_residual():
    # A reader of the manifest can re-derive `feasible`.
    for A, w in ((FLOW, FLOW_W), (large_entry_metzler(), np.ones(50))):
        res = minimal_effort_stabilize(A, w, -1.0)
        assert res.feasible is (res.feasibility_residual <= 1e-8)


def test_unsafe_cases_pass_only_by_their_slack():
    # Each unsafe- verdict above is a pass with a positive residual.
    cfg = load_config(FHN6)
    lowered = certify(dataclasses.replace(cfg, gains=resolved_gains(cfg) - 5e-10))
    assert 0.0 < lowered.checks[2].residual <= _CERT_SLACK
    gap = certify(FhnConfig(adjacency=K4, c=0.05, gamma=3.0, eta=K4_ETA, gains=np.ones(4)))
    assert 0.0 < gap.checks[1].residual <= _FLOOR_SLACK
    assert -1.0 < _n50_lowered().abscissa <= -1.0 + 2 * TOL
