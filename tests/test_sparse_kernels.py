"""The Perron iteration, the residual mat-vecs and the stabilizer work on one
off-diagonal CSR per call: their results must match dense recomputations,
sub-threshold entries included, and no n x n float array may be allocated."""

import tracemalloc

import numpy as np
import pytest

from netcontract.balancing import _imbalance
from netcontract.metzler import (
    IRREDUCIBLE,
    REDUCIBLE_OTHER,
    STRUCTURAL_ZERO,
    _off_diagonal,
    classify,
    perron_pair,
    spectral_abscissa,
)
from netcontract.stabilization import (
    marginal_stability_certificate,
    minimal_effort_stabilize,
    verify_optimality,
)

from generators import random_irreducible_metzler

EPS = np.finfo(float).eps


def _with_noise(rng, A, sign):
    """A with every zero off-diagonal entry set to sign * U(0, 1] * 1e-14:
    noise at or below STRUCTURAL_ZERO, which changes no graph edge."""
    noisy = A.copy()
    zero = noisy == 0.0
    np.fill_diagonal(zero, False)
    noisy[zero] = sign * STRUCTURAL_ZERO * (1.0 - rng.uniform(size=int(zero.sum())))
    return noisy


def _corpus(kind):
    """Seeded irreducible (or reducible_other) inputs, without noise and with
    positive and negative sub-threshold noise filling every structural zero."""
    cases = []
    for seed, n in ((1, 8), (2, 40), (3, 40)):
        rng = np.random.default_rng(seed)
        if kind == IRREDUCIBLE:
            A = random_irreducible_metzler(rng, n, density=0.1)
        else:
            # Two irreducible blocks; the second feeds the first, not back.
            A = np.zeros((n, n))
            h = n // 2
            A[:h, :h] = random_irreducible_metzler(rng, h, density=0.1)
            A[h:, h:] = random_irreducible_metzler(rng, n - h, density=0.1)
            A[0, h] = 0.5
        cases += [A, _with_noise(rng, A, 1.0), _with_noise(rng, A, -1.0)]
    return cases


def _matvec_tol(A, d):
    """Twice the worst-case rounding error gamma_n (|A| d) of a dense or a
    sparse A @ d (Higham, ch. 3): two computations of A @ d differ by less."""
    n = A.shape[0]
    return 2.0 * n * EPS / (1.0 - n * EPS) * (np.abs(A) @ np.abs(d))


class TestCorpus:
    def test_noise_is_below_the_threshold_and_kept(self):
        for kind in (IRREDUCIBLE, REDUCIBLE_OTHER):
            for A in _corpus(kind):
                assert classify(A).kind == kind
                off = A.copy()
                np.fill_diagonal(off, 0.0)
                assert _off_diagonal(A).nnz == np.count_nonzero(off)
        positive, negative = (A[~np.eye(A.shape[0], dtype=bool)]
                              for A in _corpus(IRREDUCIBLE)[4:6])
        assert 0.0 < positive[positive > 0].min() <= STRUCTURAL_ZERO
        assert -STRUCTURAL_ZERO <= negative.min() < 0.0


class TestMatchesDenseOracle:
    @pytest.mark.parametrize("A", _corpus(IRREDUCIBLE))
    def test_perron_pair(self, A):
        pair = perron_pair(A)
        d = pair.eigenvector
        alpha = np.max(np.linalg.eigvals(A).real)
        assert abs(pair.abscissa - alpha) <= 1e-9
        # The bracket comes from the last iterate, a multiple of d, so the
        # dense ratios A d / d reproduce it to rounding; the shift 1 + max|a_ii|
        # the iteration adds and removes again enters the error as well.
        shift = 1.0 + np.max(np.abs(np.diag(A)))
        ratio = A @ d / d
        tol = (_matvec_tol(A, d) + 4.0 * A.shape[0] * EPS * shift * d) / d
        assert abs(pair.bracket[0] - ratio.min()) <= tol[np.argmin(ratio)]
        assert abs(pair.bracket[1] - ratio.max()) <= tol[np.argmax(ratio)]

    @pytest.mark.parametrize("kind", [IRREDUCIBLE, REDUCIBLE_OTHER])
    def test_spectral_abscissa(self, kind):
        for A in _corpus(kind):
            assert abs(spectral_abscissa(A) - np.max(np.linalg.eigvals(A).real)) <= 1e-9

    @pytest.mark.parametrize("A", _corpus(IRREDUCIBLE))
    def test_marginal_stability_certificate(self, A):
        # Shift the spectrum to alpha = -0.01, so the certificate holds.
        A = A - (np.max(np.linalg.eigvals(A).real) + 0.01) * np.eye(A.shape[0])
        cert = marginal_stability_certificate(A)
        assert cert.certified
        assert np.all(np.abs(cert.slack - A @ cert.d) <= _matvec_tol(A, cert.d))

    @pytest.mark.parametrize("A", _corpus(IRREDUCIBLE))
    def test_verify_optimality(self, A):
        n = A.shape[0]
        w = np.random.default_rng(n).uniform(0.5, 2.0, n)
        target = -1.0
        ell = minimal_effort_stabilize(A, w, target).ell_star
        rep = verify_optimality(A, w, target, ell)
        assert rep.optimal
        # The check's Perron vector: perron_pair on the same closed loop runs
        # the same iteration on the same CSR and diagonal.
        C = A - np.diag(ell)
        d = perron_pair(C).eigenvector
        cd = C @ d
        tol = _matvec_tol(C, d)
        assert abs(rep.abscissa - np.max(cd / d)) <= np.max(tol / d)
        assert abs(rep.eigen_residual
                   - np.max(np.abs(cd - target * d)) / np.max(d)) <= 2 * np.max(tol) / np.max(d)
        off = C - np.diag(np.diag(C))
        balanced = _imbalance(w * (off @ d) / d, d * (off.T @ (w / d)))
        scale = np.max(np.abs(w * (off @ d) / d)) + np.max(np.abs(d * (off.T @ (w / d))))
        assert abs(rep.balanced_residual - balanced) <= 4.0 * n * EPS * scale


class TestNoDenseCopies:
    """At n = 1000 and 1 % density an n x n float array is 8 MB, the bound."""

    n = 1000

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(0)
        A = random_irreducible_metzler(rng, self.n, density=0.01)
        w = rng.uniform(0.5, 2.0, self.n)
        return A, w, minimal_effort_stabilize(A, w, -1.0).ell_star

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_minimal_effort_stabilize(self, problem):
        A, w, _ = problem
        assert self._peak(lambda: minimal_effort_stabilize(A, w, -1.0)) < 8 * self.n ** 2

    def test_verify_optimality(self, problem):
        A, w, ell = problem
        assert self._peak(lambda: verify_optimality(A, w, -1.0, ell)) < 8 * self.n ** 2
