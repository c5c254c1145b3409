"""The closed forms for 2x2 blocks against a 50-digit mpmath oracle.

``metzler._measure`` takes mu_2 of a 2x2 matrix as a + d + hypot(a - d, b + c)
and ``hierarchy._norm`` its largest singular value as
hypot(a + d, c - b) + hypot(a - d, b + c), both on the halved entries.  The
oracle takes neither route: it solves the characteristic polynomials of the
symmetric part and of M^T M.
"""

import warnings

import mpmath
import numpy as np
import pytest

from netcontract.hierarchy import BlockPartition, _norm, block_bound_matrix, operator_norm
from netcontract.metzler import _measure

EPS = np.finfo(float).eps
# What halving a subnormal entry can lose, summed over the terms.
SUBNORMAL = 2.0 ** -1072
FLOAT_MAX = np.finfo(float).max


def _exact(M):
    """mu_2, sigma_max and the Frobenius norm of a 2x2 float matrix, at 50 digits."""
    with mpmath.workdps(50):
        p, q, r, s = (mpmath.mpf(float(x)) for x in M.ravel())
        # Symmetric part [[p, h], [h, s]]: its larger eigenvalue.
        h = (q + r) / 2
        mu = (p + s) / 2 + mpmath.sqrt(((p + s) / 2) ** 2 - (p * s - h * h))
        # M^T M has trace F^2 and determinant det(M)^2.
        f2 = p * p + q * q + r * r + s * s
        det = p * s - q * r
        sigma = mpmath.sqrt((f2 + mpmath.sqrt(max(f2 * f2 - 4 * det * det, 0))) / 2)
        return mu, sigma, mpmath.sqrt(f2)


def _corpus():
    """Seeded 2x2 blocks: random ones over scales 1e-300 to 1e300, the
    special shapes the formulas branch on in exact arithmetic, the hier
    coupling shape and subnormal entries."""
    rng = np.random.default_rng(20261020)
    scales = 10.0 ** rng.uniform(-300, 300, size=400)
    blocks = list(rng.normal(size=(400, 2, 2)) * scales[:, None, None])
    for x, y, z, u in rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-300, 300, size=(40, 1)):
        blocks += [
            np.array([[x, y], [-y, x]]),            # a = d and b + c = 0
            np.array([[x, y], [z, x]]),             # a = d
            np.array([[x, y], [-y, z]]),            # b + c = 0
            np.array([[0.0, y], [-y, 0.0]]),        # skew
            np.array([[x, 0.0], [0.0, z]]),         # diagonal
            np.outer([x, y], [1.0, u / abs(z)]),    # rank one
            np.array([[abs(x), 0.0], [0.0, 0.0]]),  # hier coupling [[gamma a_ij, 0], [0, 0]]
        ]
    blocks += [np.zeros((2, 2)), np.full((2, 2), 5e-324),
               np.array([[3e-320, -7e-322], [1e-310, 4e-323]])]
    return np.array(blocks)


CORPUS = _corpus()
EXACT = [_exact(M) for M in CORPUS]


@pytest.mark.parametrize("which", ["mu", "sigma"])
def test_within_4_eps_of_mpmath(which):
    got = _measure(CORPUS, "two") if which == "mu" else _norm(CORPUS, "two")
    for M, value, (mu, sigma, fro) in zip(CORPUS, got, EXACT):
        exact = mu if which == "mu" else sigma
        with mpmath.workdps(50):
            err = abs(mpmath.mpf(float(value)) - exact)
            assert err <= 4 * EPS * fro + SUBNORMAL, (M, value, exact)


def test_hier_coupling_is_exact():
    gamma_a = 0.05 * np.random.default_rng(3).uniform(0.5, 1.5, size=50)
    blocks = np.zeros((50, 2, 2))
    blocks[:, 0, 0] = gamma_a
    assert np.array_equal(_norm(blocks, "two"), gamma_a)
    assert operator_norm([[0.05, 0.0], [0.0, 0.0]]) == 0.05


def test_near_float_max_without_warning():
    # Entries up to 1e308: where the exact result is finite, so is the
    # closed form's, with no overflow on the way.
    rng = np.random.default_rng(7)
    blocks = np.concatenate([1e308 * rng.uniform(-1.0, 1.0, size=(300, 2, 2)),
                             [[[1e308, 1e308], [-1e308, 1e308]],
                              [[1e308, -1e308], [1e308, -1e308]]]])
    exact = [_exact(M) for M in blocks]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, k in ((lambda B: _measure(B, "two"), 0), (lambda B: _norm(B, "two"), 1)):
            finite = np.array([e[k] < FLOAT_MAX for e in exact])
            assert finite.sum() >= 100
            got = fn(blocks[finite])
            assert np.isfinite(got).all()
            for value, e in zip(got, [e for e, f in zip(exact, finite) if f]):
                with mpmath.workdps(50):
                    assert abs(mpmath.mpf(float(value)) - e[k]) <= 4 * EPS * e[2]


@pytest.mark.parametrize("seed", range(3))
def test_coupling_matches_operator_norm_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    sizes = (2, 2, 3, 2, 1)
    part = BlockPartition.uniform(sizes)
    A = rng.normal(size=(5, part.total, part.total)) * 10.0 ** rng.uniform(-5, 5)
    B = block_bound_matrix(A, part)
    sl = part.slices()
    for i in range(len(sizes)):
        for j in range(len(sizes)):
            if i != j and sizes[i] == sizes[j] == 2:
                for k in range(A.shape[0]):
                    assert B[k, i, j] == operator_norm(A[k, sl[i], sl[j]], "two")
