import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import netcontract.balancing
from netcontract.balancing import (
    BalanceConvergenceError,
    NotBalancableError,
    _balance,
    _pcg,
    balance,
    balance_tridiagonal,
    imbalance,
    potential,
)
from netcontract.metzler import IRREDUCIBLE, Classification, _off_diagonal, classify
from netcontract.stabilization import stabilize_blocks

from generators import (
    grid_metzler,
    random_irreducible_metzler,
    random_tridiagonal_metzler,
    weighted_ring_metzler,
)
from strategies import metzler_matrices

# A chain whose balancing scaling spans 200 decades.
CHAIN_1E200 = np.array([[0.0, 1.0, 0.0], [1e200, 0.0, 1.0], [0.0, 1e200, 0.0]])


class TestImbalance:
    def test_symmetric_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        S = rng.uniform(0, 2, size=(6, 6))
        S = S + S.T
        np.fill_diagonal(S, rng.uniform(-3, 0, size=6))
        assert imbalance(S) == 0.0

    def test_doubly_stochastic(self):
        assert imbalance([[0.5, 0.5], [0.5, 0.5]]) == 0.0

    def test_positive_mismatch(self):
        # row 1 off-diagonal sum is 2, column 1 off-diagonal sum is 0.5
        assert imbalance([[-1, 2], [0.5, -1]]) > 0

    def test_diagonal_irrelevant(self):
        A = np.array([[-1.0, 2.0], [0.5, -1.0]])
        B = A + np.diag([17.0, -4.0])
        assert imbalance(A) == imbalance(B)


class TestBalance:
    def test_worked_example(self):
        res = balance([[-1.0, 1.0], [4.0, -4.0]])
        assert_allclose(res.d, [1.0, 2.0], atol=1e-9)
        assert_allclose(res.balanced, [[-1.0, 2.0], [2.0, -4.0]], atol=1e-9)
        assert res.residual <= 1e-10

    def test_symmetric_fixed_point(self):
        A = np.array([[-2.0, 1.0], [1.0, -2.0]])
        res = balance(A)
        assert np.array_equal(res.d, [1.0, 1.0])
        assert res.iterations == 0
        assert np.array_equal(res.balanced, A)

    def test_tridiagonal_instance(self):
        res = balance([[0.0, 2.0, 0.0], [8.0, 0.0, 3.0], [0.0, 12.0, 0.0]])
        assert_allclose(res.d, [1.0, 2.0, 4.0], rtol=1e-9)
        assert_allclose(res.balanced, res.balanced.T, atol=1e-9)

    def test_exact_scaling_identity_and_diagonal_preserved(self):
        rng = np.random.default_rng(1)
        A = random_irreducible_metzler(rng, 8)
        res = balance(A)
        assert np.array_equal(res.balanced, A * (res.d[None, :] / res.d[:, None]))
        assert np.array_equal(np.diag(res.balanced), np.diag(A))
        assert classify(res.balanced).kind == "irreducible"

    def test_row_equals_column_sums(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 20, 60):
            A = random_irreducible_metzler(rng, n)
            res = balance(A)
            off = res.balanced.copy()
            np.fill_diagonal(off, 0.0)
            assert np.max(np.abs(off.sum(0) - off.sum(1))) <= 1e-9 * (1 + off.sum())
            assert res.d[0] == 1.0
            assert np.all(res.d > 0)

    def test_unique_up_to_scale(self):
        rng = np.random.default_rng(3)
        A = random_irreducible_metzler(rng, 6)
        r1 = balance(A, tol=1e-12)
        r2 = balance(A, tol=1e-12, d0=rng.uniform(0.5, 2.0, size=6))
        assert_allclose(r1.d, r2.d, rtol=1e-6)

    def test_diagonal_invariance(self):
        rng = np.random.default_rng(4)
        A = random_irreducible_metzler(rng, 5)
        shifted = A + np.diag(rng.uniform(-10, 10, size=5))
        assert_allclose(balance(A).d, balance(shifted).d, rtol=1e-9)

    def test_completely_reducible_blockwise(self):
        A = np.zeros((4, 4))
        A[:2, :2] = [[-1.0, 1.0], [4.0, -4.0]]
        A[2:, 2:] = [[0.0, 3.0], [12.0, 0.0]]
        res = balance(A)
        assert_allclose(res.d, [1.0, 2.0, 1.0, 2.0], rtol=1e-9)
        assert res.residual <= 1e-10

    def test_reducible_other_rejected(self):
        with pytest.raises(NotBalancableError):
            balance([[0.0, 1.0], [0.0, 0.0]])

    def test_not_metzler_rejected(self):
        with pytest.raises(ValueError):
            balance([[0.0, -1.0], [1.0, 0.0]])

    def test_scalar(self):
        res = balance([[-3.0]])
        assert np.array_equal(res.d, [1.0])
        assert res.residual == 0.0

    def test_sweep_cap_raises_with_residual(self):
        A = random_irreducible_metzler(np.random.default_rng(8), 5)
        with pytest.raises(BalanceConvergenceError) as info:
            balance(A, tol=1e-300, max_sweeps=5)
        assert info.value.residual > 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            balance([[-1.0, 1.0], [4.0, -4.0]], tol=0.0)
        with pytest.raises(ValueError):
            balance([[-1.0, 1.0], [4.0, -4.0]], d0=[1.0, -1.0])
        with pytest.raises(ValueError):
            balance([[-1.0, 1.0], [4.0, -4.0]], d0=[1.0, 1.0, 1.0])

    @given(metzler_matrices(irreducible=True))
    @settings(max_examples=30, deadline=None)
    def test_residual_contract_property(self, A):
        res = balance(A)
        assert res.residual <= 1e-10
        assert imbalance(res.balanced) == res.residual


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNewtonBalancing:
    """Inputs on which cyclic coordinate updates need thousands of sweeps or
    overflow; each must converge without a numpy RuntimeWarning."""

    def test_long_ring_within_50_steps(self):
        A = weighted_ring_metzler(np.random.default_rng(10), 500)
        res = balance(A)
        assert res.residual <= 1e-10
        assert 0 < res.iterations <= 50

    def test_large_grid_within_50_steps(self):
        A = grid_metzler(np.random.default_rng(11), 40)
        res = balance(A)
        assert res.residual <= 1e-10
        assert 0 < res.iterations <= 50

    def test_scaling_ratio_1e150(self):
        # 1e-150 is below STRUCTURAL_ZERO, so `balance` calls this matrix
        # reducible; the kernel is driven directly as if it were irreducible.
        A = np.array([[0.0, 1e-150], [1e150, 0.0]])
        d, _, clamped = _balance(_off_diagonal(A), Classification(IRREDUCIBLE), 1e-10,
                                 100_000, None)
        assert_allclose(d, [1.0, 1e150], rtol=1e-9)
        assert not clamped

    def test_chain_spanning_1e200(self):
        res = balance(CHAIN_1E200)
        assert_allclose(res.d, [1.0, 1e100, 1e200], rtol=1e-9)
        assert res.residual <= 1e-10
        assert not res.clamped

    def test_overflowing_warm_start_raises(self):
        with pytest.raises(BalanceConvergenceError) as info:
            balance([[0.0, 1e10], [1.0, 0.0]], d0=[1e-150, 1e150])
        assert info.value.residual == np.inf

    def test_tight_tolerance_does_not_stall(self):
        A = random_irreducible_metzler(np.random.default_rng(12), 200)
        res = balance(A, tol=1e-12)
        assert res.residual <= 1e-12


def _one_by_one_blocks():
    # Completely reducible: two irreducible blocks and three 1 x 1 blocks,
    # whose rows of the off-diagonal part are empty, interleaved.
    rng = np.random.default_rng(13)
    A = np.zeros((15, 15))
    A[:6, :6] = random_irreducible_metzler(rng, 6)
    A[6:12, 6:12] = random_irreducible_metzler(rng, 6)
    A[12:, 12:] = np.diag([-1.0, 0.5, -2.0])
    order = rng.permutation(15)
    return A[np.ix_(order, order)]


PINNED_INPUTS = {
    "random-50": lambda: random_irreducible_metzler(np.random.default_rng(50), 50),
    "random-120": lambda: random_irreducible_metzler(np.random.default_rng(120), 120, density=0.1),
    "random-300": lambda: random_irreducible_metzler(np.random.default_rng(300), 300, density=0.05),
    "ring": lambda: weighted_ring_metzler(np.random.default_rng(14), 200),
    "grid": lambda: grid_metzler(np.random.default_rng(15), 12),
    "one-by-one-blocks": _one_by_one_blocks,
    "extreme-pair": lambda: np.array([[0.0, 1e-13], [1e13, 0.0]]),
    "chain-1e200": lambda: CHAIN_1E200,
}


class TestProductPaths:
    """Newton's Hessian products and row and column sums come from (row,
    column) triplet scatters below _CSR_MIN_ENTRIES kept entries and from CSR
    mat-vecs at or above it; both must take the same steps to the same d."""

    @staticmethod
    def _solve(monkeypatch, A, threshold):
        monkeypatch.setattr(netcontract.balancing, "_CSR_MIN_ENTRIES", threshold)
        w = np.random.default_rng(16).uniform(0.5, 2.0, A.shape[0])
        return balance(A, tol=1e-10), stabilize_blocks(A, w, -1.0, tol=1e-10)

    @pytest.mark.parametrize("name", PINNED_INPUTS)
    def test_paths_agree(self, monkeypatch, name):
        A = PINNED_INPUTS[name]()
        triplet, triplet_gains = self._solve(monkeypatch, A, np.iinfo(np.intp).max)
        csr, csr_gains = self._solve(monkeypatch, A, 0)
        for a, b in ((triplet, csr), (triplet_gains, csr_gains)):
            assert (a.iterations, a.clamped) == (b.iterations, b.clamped)
        assert_allclose(csr.d, triplet.d, rtol=1e-10, atol=0.0)
        assert_allclose(csr_gains.d_star, triplet_gains.d_star, rtol=1e-10, atol=0.0)
        assert_allclose(csr_gains.ell_star, triplet_gains.ell_star, rtol=1e-10, atol=1e-10)
        assert csr.residual <= 1e-10

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("n, density", [(200, 0.7), (1000, 0.02)])
    def test_large_inputs_converge_on_csr_path(self, n, density, tol):
        A = random_irreducible_metzler(np.random.default_rng(n), n, density=density)
        assert _off_diagonal(A).nnz >= netcontract.balancing._CSR_MIN_ENTRIES
        res = balance(A, tol=tol)
        assert res.residual <= tol

    def test_size_rule(self):
        # The 15 x 15 grid (840 entries) and a dense 8 x 8 stay on the triplet
        # path, where it is faster; n = 2000 at 1 % density (about 42,000
        # entries) takes the CSR path.
        rng = np.random.default_rng(0)
        small = [grid_metzler(rng, 15), random_irreducible_metzler(rng, 8, density=1.0)]
        threshold = netcontract.balancing._CSR_MIN_ENTRIES
        assert all(_off_diagonal(A).nnz < threshold for A in small)
        A = random_irreducible_metzler(rng, 2000, density=0.01)
        assert _off_diagonal(A).nnz >= threshold


class TestConjugateGradientBreakdown:
    """A CG direction with p^T H p <= 0 ends the solve with its iterate; the
    Newton step then converges or raises BalanceConvergenceError."""

    @pytest.mark.parametrize("hess", [np.zeros_like, np.negative], ids=["zero", "negative"])
    def test_breakdown_returns_iterate(self, hess):
        b = np.array([1.0, -1.0])
        x = _pcg(hess, b, np.ones(2), 1e-8, 10)
        assert np.array_equal(x, np.zeros(2))

    def test_tight_tolerance(self, product_path):
        A = random_irreducible_metzler(np.random.default_rng(0), 200, density=0.05)
        try:
            res = balance(A, tol=1e-13)
        except BalanceConvergenceError as err:
            assert 1e-13 < err.residual < 1e-10
        else:
            assert res.residual <= 1e-13


class TestBalanceTridiagonal:
    def test_two_by_two(self):
        assert_allclose(balance_tridiagonal([[0.0, 2.0], [8.0, 0.0]]), [1.0, 2.0])

    def test_three_by_three(self):
        d = balance_tridiagonal([[0.0, 2.0, 0.0], [8.0, 0.0, 3.0], [0.0, 12.0, 0.0]])
        assert_allclose(d, [1.0, 2.0, 4.0])

    def test_scaled_matrix_symmetric(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 9):
            A = random_tridiagonal_metzler(rng, n)
            d = balance_tridiagonal(A)
            B = A * (d[None, :] / d[:, None])
            assert_allclose(B, B.T, rtol=1e-12, atol=1e-14)

    def test_agrees_with_iterative_balance(self):
        rng = np.random.default_rng(6)
        A = random_tridiagonal_metzler(rng, 7)
        d_closed = balance_tridiagonal(A)
        d_iter = balance(A, tol=1e-13).d
        assert_allclose(d_iter, d_closed, rtol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_chain_spanning_1e200_does_not_overflow(self):
        assert_allclose(balance_tridiagonal(CHAIN_1E200), [1.0, 1e100, 1e200], rtol=1e-12)

    def test_structure_validation(self):
        with pytest.raises(ValueError, match="outside the tridiagonal bands"):
            balance_tridiagonal([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="reducible"):
            balance_tridiagonal([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="not a Metzler matrix"):
            balance_tridiagonal([[0.0, -2.0], [8.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (0, 0)])
    def test_non_finite_rejected(self, where, bad):
        # Unchecked, a NaN band entry gave d = [1, nan].
        A = np.array([[0.0, 2.0], [1.0, 0.0]])
        A[where] = bad
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            balance_tridiagonal(A)

    def test_sign_checked_on_the_bands(self):
        # A negative band entry fails the Metzler test; a negative entry off
        # the bands is rejected by its magnitude, as any off-band entry is.
        with pytest.raises(ValueError, match="not a Metzler matrix"):
            balance_tridiagonal([[0.0, 1.0, 0.0], [1.0, 0.0, -3.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="outside the tridiagonal bands"):
            balance_tridiagonal([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="reducible"):
            balance_tridiagonal([[0.0, -1e-15], [8.0, 0.0]])


class TestPotential:
    A = np.array([[-1.0, 1.0], [4.0, -4.0]])

    def test_ones_gives_entry_sum(self):
        assert potential(self.A, [1.0, 1.0]) == self.A.sum()

    def test_worked_value(self):
        assert_allclose(potential(self.A, [1.0, 2.0]), -1.0)

    def test_minimum_at_balancing_scaling(self):
        # f([1, s]) = -5 + s + 4/s is minimized at s = 2
        for s in np.linspace(0.05, 10.0, 400):
            assert potential(self.A, [1.0, s]) >= -1.0 - 1e-12

    @given(metzler_matrices(irreducible=True), st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, A, c):
        n = A.shape[0]
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 2.0, size=n)
        assert_allclose(potential(A, c * d), potential(A, d), rtol=1e-9)

    def test_balance_beats_random_scalings(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            A = random_irreducible_metzler(rng, 6)
            f_star = potential(A, balance(A).d)
            for _ in range(200):
                d = np.exp(rng.uniform(-2, 2, size=6))
                assert f_star <= potential(A, d) + 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            potential(self.A, [1.0, -1.0])
        with pytest.raises(ValueError):
            potential(self.A, [1.0, 2.0, 3.0])


def test_balance_tridiagonal_scalar():
    assert np.array_equal(balance_tridiagonal([[2.0]]), [1.0])
