import numpy as np
import pytest
from numpy.testing import assert_allclose

import netcontract.metzler
from netcontract.balancing import balance
from netcontract.metzler import NonIrreducibleError, spectral_abscissa
from netcontract.stabilization import (
    marginal_stability_certificate,
    minimal_effort_stabilize,
    stabilize_blocks,
    verify_optimality,
)

from generators import random_irreducible_metzler, weighted_ring_metzler

FLOW = np.array([[-1.0, 1.0], [1.0, -1.0]])


class TestWorkedFlowExample:
    def test_weighted(self):
        res = minimal_effort_stabilize(FLOW, [1.0, 4.0], -1.0)
        assert_allclose(res.ell_star, [2.0, 0.5], atol=1e-9)
        assert_allclose(res.d_star, [1.0, 2.0], atol=1e-9)
        eigs = np.sort(np.linalg.eigvals(FLOW - np.diag(res.ell_star)).real)
        assert_allclose(eigs, [-3.5, -1.0], atol=1e-8)
        assert res.positive_gains
        assert_allclose(res.cost, 4.0, atol=1e-8)

    def test_uniform_weights(self):
        res = minimal_effort_stabilize(FLOW, [1.0, 1.0], -1.25)
        assert_allclose(res.ell_star, [1.25, 1.25], atol=1e-9)

    def test_already_stable_needs_nothing(self):
        res = minimal_effort_stabilize([[-2.0, 1.0], [1.0, -2.0]], [1.0, 1.0], -1.0)
        assert_allclose(res.ell_star, [0.0, 0.0], atol=1e-12)

    def test_target_above_abscissa_gives_negative_gains(self):
        res = minimal_effort_stabilize(FLOW, [1.0, 1.0], 1.0)
        assert np.all(res.ell_star < 0)
        assert_allclose(res.achieved, 1.0, atol=1e-8)


class TestFeasibilityAndResiduals:
    def test_achieved_equals_target(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 20, 100):
            A = random_irreducible_metzler(rng, n)
            w = rng.uniform(0.2, 3.0, size=n)
            target = float(rng.uniform(-2.0, 0.5))
            res = minimal_effort_stabilize(A, w, target)
            assert abs(res.achieved - target) <= 1e-8 * (1 + abs(target))
            # achieved is an upper bound on the closed-loop abscissa
            alpha = np.max(np.linalg.eigvals(A - np.diag(res.ell_star)).real)
            assert res.achieved >= alpha - 1e-12 * (1 + abs(target))
            assert res.eigen_residual <= 1e-8
            assert res.feasibility_residual <= 1e-8

    def test_reports_balancing_sweeps(self):
        rng = np.random.default_rng(8)
        A = random_irreducible_metzler(rng, 30)
        w = rng.uniform(0.5, 2.0, size=30)
        res = minimal_effort_stabilize(A, w, -1.0)
        assert res.iterations == balance(w[:, None] * A).iterations
        assert res.iterations > 0
        assert res.clamped is False

    def test_long_ring_bracket_on_target(self):
        rng = np.random.default_rng(13)
        A = weighted_ring_metzler(rng, 500)
        w = rng.uniform(0.5, 2.0, size=500)
        target = -1.0
        res = minimal_effort_stabilize(A, w, target)
        assert res.iterations <= 50
        ratio = (A @ res.d_star - res.ell_star * res.d_star) / res.d_star
        assert max(abs(ratio.min() - target), abs(ratio.max() - target)) <= 1e-8 * (1 + abs(target))

    def test_d_star_is_closed_loop_perron_vector(self):
        rng = np.random.default_rng(1)
        A = random_irreducible_metzler(rng, 9)
        res = minimal_effort_stabilize(A, np.ones(9), -0.5)
        closed = A - np.diag(res.ell_star)
        gap = closed @ res.d_star - (-0.5) * res.d_star
        assert np.max(np.abs(gap)) <= 1e-8 * np.max(res.d_star)


class TestOptimality:
    def test_grid_oracle_over_feasible_boundary(self):
        # Every d > 0 gives boundary-feasible gains (A d)/d - target; the
        # returned gains must be the cheapest of them all.
        rng = np.random.default_rng(2)
        for _ in range(4):
            A = random_irreducible_metzler(rng, 3)
            w = rng.uniform(0.2, 3.0, size=3)
            target = -0.5
            res = minimal_effort_stabilize(A, w, target)
            grid = np.exp(np.linspace(-2.5, 2.5, 81))
            best = np.inf
            for g2 in grid:
                for g3 in grid:
                    d = np.array([1.0, g2, g3])
                    ell = (A @ d) / d - target
                    best = min(best, float(w @ ell))
            assert res.cost <= best + 1e-9
            assert best - res.cost <= 0.05 * (1 + abs(best))

    def test_random_feasible_candidates_cost_more(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            A = random_irreducible_metzler(rng, n)
            w = rng.uniform(0.2, 3.0, size=n)
            target = float(rng.uniform(-1.5, 0.0))
            res = minimal_effort_stabilize(A, w, target)
            accepted = 0
            while accepted < 200:
                ell = res.ell_star + rng.uniform(-0.05, 0.25, size=n)
                if spectral_abscissa(A - np.diag(ell)) <= target + 1e-9:
                    accepted += 1
                    assert w @ ell >= res.cost - 1e-7

    def test_unique_solution_independent_of_init(self):
        rng = np.random.default_rng(4)
        A = random_irreducible_metzler(rng, 7)
        w = rng.uniform(0.5, 2.0, size=7)
        r1 = minimal_effort_stabilize(A, w, -1.0)
        r2 = minimal_effort_stabilize(A, w, -1.0, d0=rng.uniform(0.2, 5.0, size=7))
        assert_allclose(r1.ell_star, r2.ell_star, rtol=1e-7, atol=1e-9)

    def test_abscissa_convex_along_gain_lines(self):
        rng = np.random.default_rng(5)
        A = random_irreducible_metzler(rng, 5)
        res = minimal_effort_stabilize(A, np.ones(5), -0.5)
        for _ in range(5):
            delta = rng.uniform(-1.0, 1.0, size=5)
            s = np.linspace(-1.0, 1.0, 9)
            vals = [spectral_abscissa(A - np.diag(res.ell_star + si * delta)) for si in s]
            for i in range(1, len(s) - 1):
                assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-9

    def test_positive_gains_when_entrywise_above_target(self):
        # A - target*I >= 0 entrywise forces strictly positive gains
        rng = np.random.default_rng(6)
        A = random_irreducible_metzler(rng, 6, diag_low=0.5, diag_high=2.0)
        res = minimal_effort_stabilize(A, rng.uniform(0.5, 2.0, size=6), 0.2)
        assert np.min(A - 0.2 * np.eye(6)) >= 0
        assert res.positive_gains
        assert np.all(res.ell_star > 0)


class TestValidationAndBlocks:
    def test_requires_irreducible_with_hint(self):
        with pytest.raises(NonIrreducibleError, match="stabilize_blocks"):
            minimal_effort_stabilize(np.eye(3), np.ones(3), -1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            minimal_effort_stabilize(FLOW, [1.0, -1.0], -1.0)
        with pytest.raises(ValueError):
            minimal_effort_stabilize(FLOW, [1.0], -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_reject_nan_and_inf(self, bad):
        with pytest.raises(ValueError):
            minimal_effort_stabilize(FLOW, [1.0, bad], -1.0)

    def test_blockwise_matches_per_block(self):
        A = np.zeros((4, 4))
        A[:2, :2] = FLOW
        A[2:, 2:] = [[0.0, 2.0], [8.0, 0.0]]
        w = np.array([1.0, 4.0, 1.0, 1.0])
        res = stabilize_blocks(A, w, -1.0)
        top = minimal_effort_stabilize(FLOW, [1.0, 4.0], -1.0)
        bottom = minimal_effort_stabilize([[0.0, 2.0], [8.0, 0.0]], [1.0, 1.0], -1.0)
        assert_allclose(res.ell_star, np.concatenate([top.ell_star, bottom.ell_star]),
                        atol=1e-9)
        assert abs(res.achieved + 1.0) <= 1e-8
        closed = A - np.diag(res.ell_star)
        assert np.max(np.abs(closed @ res.d_star + res.d_star)) <= 1e-8

    def test_blocks_rejects_reducible_other(self):
        with pytest.raises(NonIrreducibleError):
            stabilize_blocks([[0.0, 1.0], [0.0, 0.0]], np.ones(2), -1.0)

    def test_scalar(self):
        res = minimal_effort_stabilize([[2.0]], [3.0], -1.0)
        assert_allclose(res.ell_star, [3.0])
        assert_allclose(res.achieved, -1.0)


class TestMarginalStabilityCertificate:
    def test_marginally_stable(self):
        cert = marginal_stability_certificate([[-1.0, 1.0], [1.0, -1.0]])
        assert cert.certified
        assert np.all(cert.d > 0)
        assert np.max(cert.slack) <= 1e-9

    def test_strictly_stable(self):
        cert = marginal_stability_certificate([[-3.0, 1.0], [2.0, -2.0]])
        assert cert.certified
        assert np.max(cert.slack) < 0

    def test_positive_slack_not_certified(self):
        # alpha = 5e-11 > 0: a Perron vector with A d > 0 certifies nothing
        cert = marginal_stability_certificate(FLOW + 5e-11 * np.eye(2))
        assert not cert.certified
        assert cert.d is None
        assert cert.abscissa > 0

    def test_unstable_has_no_certificate(self):
        cert = marginal_stability_certificate([[0.0, 2.0], [8.0, 0.0]])
        assert not cert.certified
        assert cert.d is None
        assert_allclose(cert.abscissa, 4.0, atol=1e-9)

    def test_iff_characterization(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            A = random_irreducible_metzler(rng, n)
            alpha = np.max(np.linalg.eigvals(A).real)
            u = float(rng.uniform(0.1, 2.0))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            shifted = A + (sign * u - alpha) * np.eye(n)
            cert = marginal_stability_certificate(shifted)
            assert cert.certified == (sign < 0)
            if cert.certified:
                assert np.all(cert.d > 0)
                assert np.max(shifted @ cert.d) <= 1e-9 * np.max(cert.d)


class TestVerifyOptimality:
    def test_optimal_gains_pass(self):
        res = minimal_effort_stabilize(FLOW, [1.0, 4.0], -1.0)
        rep = verify_optimality(FLOW, [1.0, 4.0], -1.0, res.ell_star)
        assert rep.optimal
        assert rep.balanced_residual <= 1e-8
        assert rep.eigen_residual <= 1e-8

    def test_overstabilized_fails_eigen_condition(self):
        res = minimal_effort_stabilize(FLOW, [1.0, 4.0], -1.0)
        rep = verify_optimality(FLOW, [1.0, 4.0], -1.0, res.ell_star + [0.1, 0.0])
        assert rep.feasible
        assert not rep.eigen_ok
        assert not rep.optimal
        assert rep.cost > 4.0

    def test_understabilized_infeasible(self):
        res = minimal_effort_stabilize(FLOW, [1.0, 4.0], -1.0)
        rep = verify_optimality(FLOW, [1.0, 4.0], -1.0, res.ell_star - [0.1, 0.0])
        assert not rep.feasible
        assert rep.abscissa > -1.0


class TestOneClassificationPerCall:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        classify = netcontract.metzler.classify

        def counting(A):
            seen.append(1)
            return classify(A)

        monkeypatch.setattr(netcontract.metzler, "classify", counting)
        return seen

    def test_each_entry_point_classifies_once(self, calls):
        rng = np.random.default_rng(9)
        A = random_irreducible_metzler(rng, 6)
        w = rng.uniform(0.5, 2.0, size=6)
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = FLOW
        blocks[2:, 2:] = [[0.0, 2.0], [8.0, 0.0]]
        other = np.zeros((4, 4))
        other[:2, :2] = FLOW
        other[2:, 2:] = FLOW
        other[0, 2] = 1.0  # block 2 feeds block 1, not back
        res = minimal_effort_stabilize(A, w, -1.0)
        cases = [
            lambda: minimal_effort_stabilize(A, w, -1.0),
            lambda: stabilize_blocks(blocks, np.ones(4), -1.0),
            lambda: verify_optimality(A, w, -1.0, res.ell_star),
            lambda: marginal_stability_certificate(A),
            lambda: spectral_abscissa(other),
        ]
        for call in cases:
            calls.clear()
            call()
            assert len(calls) == 1
