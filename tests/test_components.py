"""Reducible input runs one Perron iteration and one Newton balancing over
all of its strong components at once; each component must still meet the
accuracy it would meet alone."""

import numpy as np
import pytest
import scipy.sparse.csgraph
from numpy.testing import assert_allclose

import netcontract.balancing
import netcontract.metzler
from netcontract.balancing import balance, imbalance
from netcontract.metzler import (
    COMPLETELY_REDUCIBLE,
    REDUCIBLE_OTHER,
    NoConvergenceError,
    classify,
    perron_pair,
    spectral_abscissa,
)
from netcontract.stabilization import minimal_effort_stabilize

from generators import grid_metzler, random_irreducible_metzler, weighted_ring_metzler
from reference import reference_perron

TOL = 1e-10
TARGET = -1.0


def block_diagonal(blocks):
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n))
    s = 0
    for b in blocks:
        k = b.shape[0]
        A[s:s + k, s:s + k] = b
        s += k
    return A


def chained(blocks, rng):
    """The blocks on the diagonal, each feeding the next through one edge."""
    A = block_diagonal(blocks)
    s = 0
    for b, following in zip(blocks, blocks[1:]):
        k = b.shape[0]
        A[s + k + rng.integers(0, following.shape[0]), s + rng.integers(0, k)] = \
            rng.uniform(0.1, 1.0)
        s += k
    return A


def permuted(A, rng):
    p = rng.permutation(A.shape[0])
    return A[np.ix_(p, p)]


def corpus():
    """(name, matrix) pairs, every one randomly permuted."""
    rng = np.random.default_rng(2024)
    cases = []
    for t in range(12):
        sizes = rng.choice([1, 2, 3, 5, 8], size=rng.integers(2, 7))
        blocks = [random_irreducible_metzler(rng, int(k)) for k in sizes]
        cases.append((f"blocks{t}", permuted(block_diagonal(blocks), rng)))
        cases.append((f"chain{t}", permuted(chained(blocks, rng), rng)))
    for t in range(4):
        # Two components 1e-7 apart in abscissa, among others well below.
        a = random_irreducible_metzler(rng, 3)
        b = random_irreducible_metzler(rng, 5)
        alpha = lambda M: np.max(np.linalg.eigvals(M).real)
        b += (alpha(a) + 1e-7 - alpha(b)) * np.eye(5)
        low = random_irreducible_metzler(rng, 2) - 10.0 * np.eye(2)
        cases.append((f"near_tie{t}", permuted(block_diagonal([a, low, b]), rng)))
    for t in range(6):
        sizes = rng.choice([1, 2, 3, 5, 8], size=4)
        blocks = [random_irreducible_metzler(rng, int(k), scale=scale)
                  for k, scale in zip(sizes, 10.0 ** rng.uniform(-3, 3, size=4))]
        cases.append((f"scales{t}", permuted(block_diagonal(blocks), rng)))
    return cases


CORPUS = corpus()


@pytest.mark.parametrize("name,A", CORPUS, ids=[name for name, _ in CORPUS])
class TestJointIterationOracle:
    def test_spectral_abscissa_matches_eigvals(self, name, A):
        ref = np.max(np.linalg.eigvals(A).real)
        assert abs(spectral_abscissa(A) - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_spectral_abscissa_bounds_eigvals_from_above(self, name, A):
        # Rounding of eigvals and of the shifted mat-vec, gamma_n times its size.
        ref = np.max(np.linalg.eigvals(A).real)
        slack = 2 * A.shape[0] * np.finfo(float).eps * (1 + 2 * np.abs(A).sum(axis=1).max())
        assert spectral_abscissa(A) >= ref - slack

    def test_every_block_balanced(self, name, A):
        cls = classify(A)
        if cls.kind != COMPLETELY_REDUCIBLE:
            assert name.startswith("chain") and cls.kind == REDUCIBLE_OTHER
            return
        balanced = balance(A, tol=TOL).balanced
        for b in cls.blocks:
            assert imbalance(balanced[np.ix_(b, b)]) <= TOL

    def test_every_block_on_target(self, name, A):
        cls = classify(A)
        if cls.kind != COMPLETELY_REDUCIBLE:
            return
        w = np.random.default_rng(A.shape[0]).uniform(0.5, 2.0, A.shape[0])
        res = minimal_effort_stabilize(A, w, TARGET)
        closed = A - np.diag(res.ell_star)
        for b in map(list, cls.blocks):
            d = res.d_star[b]
            ratio = closed[np.ix_(b, b)] @ d / d
            lo, hi = ratio.min(), ratio.max()
            assert max(abs(lo - TARGET), abs(hi - TARGET)) <= 1e-8 * (1.0 + abs(TARGET))


def many_blocks(count, rng):
    blocks = [random_irreducible_metzler(rng, 2) for _ in range(count)]
    return permuted(block_diagonal(blocks), rng), permuted(chained(blocks, rng), rng)


def counting(monkeypatch, module, name):
    """The list of results of module.name, one per call from now on."""
    results = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, counted)
    return results


class TestOneIterationPerCall:
    def test_spectral_abscissa_runs_perron_once(self, monkeypatch):
        blocks, chain = many_blocks(1000, np.random.default_rng(5))
        calls = counting(monkeypatch, netcontract.metzler, "_perron")
        for A in (blocks, chain, random_irreducible_metzler(np.random.default_rng(6), 8),
                  [[3.0]]):
            calls.clear()
            spectral_abscissa(A)
            assert len(calls) == 1

    def test_balancing_runs_newton_once(self, monkeypatch):
        blocks, _ = many_blocks(1000, np.random.default_rng(7))
        calls = counting(monkeypatch, netcontract.balancing, "_newton_balance")
        irreducible = random_irreducible_metzler(np.random.default_rng(8), 8)
        for call in (lambda: balance(blocks), lambda: balance(irreducible),
                     lambda: balance([[3.0]]),
                     lambda: minimal_effort_stabilize(blocks, np.ones(2000), TARGET)):
            calls.clear()
            call()
            assert len(calls) == 1


class TestOneByOne:
    def test_isolated_nodes_among_blocks(self):
        A = block_diagonal([np.array([[-4.0]]), np.array([[-1.0, 1.0], [4.0, -4.0]]),
                            np.array([[2.5]])])
        assert spectral_abscissa(A) == 2.5
        res = balance(A)
        assert_allclose(res.d, [1.0, 1.0, 2.0, 1.0], rtol=1e-9)
        gains = minimal_effort_stabilize(A, np.ones(4), TARGET)
        assert_allclose(gains.ell_star[[0, 3]], [-3.0, 3.5])


@pytest.mark.xfail(raises=NoConvergenceError, strict=True,
                   reason="the absolute bracket-width test has a scale floor")
def test_perron_residual_scale_floor():
    # Rounding puts about eps * |lambda_2| back into the second eigenvector
    # each step, and the lifted iteration shrinks that component only by a
    # factor 0.99908 a step (the uniform shift by 0.99882), so the
    # Collatz-Wielandt bracket of the iterate stays 3.2e-10 wide > tol (the
    # same after 40,000 and 100,000 steps) around the alpha of eigvals.  A
    # relative test, tol * (1 + |alpha|), would stop.
    A = 1.5 * np.array([[-2.4806, 1428.1092], [1476.8655, -2.8654]])
    alpha = np.max(np.linalg.eigvals(A).real)
    pair = perron_pair(A, max_iter=40000)
    assert abs(pair.abscissa - alpha) <= 1e-11


def closed_loop(A, w):
    return A - np.diag(minimal_effort_stabilize(A, w, TARGET).ell_star)


def directed_cycle(rng, n, diag):
    i = np.arange(n)
    A = np.zeros((n, n))
    A[(i + 1) % n, i] = rng.uniform(0.5, 1.5, n)
    A[i, i] = diag
    return A


def ring_with_diagonal(seed, diag):
    A = weighted_ring_metzler(np.random.default_rng(seed), 100)
    A[np.arange(100), np.arange(100)] = diag
    return A


def joint_steps(monkeypatch, A):
    """Power steps of the one Perron iteration that spectral_abscissa runs."""
    pairs = counting(monkeypatch, netcontract.metzler, "_perron")
    spectral_abscissa(A)
    return pairs[0].iterations


def reference_steps(A):
    """The most steps the uniform-shift iteration takes on a strong component."""
    labels = scipy.sparse.csgraph.connected_components(
        (A - np.diag(np.diag(A))) > 0, directed=True, connection="strong")[1]
    return max(reference_perron(A[np.ix_(labels == k, labels == k)])[1]
               for k in np.unique(labels))


class TestPerronSteps:
    """The lift per row against the uniform shift of reference_perron."""

    def test_mixed_closed_loop(self):
        # The closed loop of the benchmark's well-mixed n = 2000 network: its
        # diagonal runs from -26.2 to -4.8, and the uniform shift takes 148 steps.
        rng = np.random.default_rng([1, 0])
        A = random_irreducible_metzler(rng, 2000, density=0.01)
        C = closed_loop(A, rng.uniform(0.5, 2.0, 2000))
        pair = perron_pair(C)
        ref, ref_steps = reference_perron(C)
        assert pair.iterations <= 70 < ref_steps
        assert abs(pair.abscissa - ref) <= 1e-9

    @pytest.mark.parametrize("A", [
        closed_loop(grid_metzler(np.random.default_rng(1), 15),
                    np.random.default_rng(1).uniform(0.5, 2.0, 225)),
        ring_with_diagonal(1, np.random.default_rng(1).uniform(-3.0, 0.0, 100)),
    ], ids=["grid_closed_loop", "ring_spread_diagonal"])
    def test_spread_diagonal(self, A):
        assert perron_pair(A).iterations <= 0.6 * reference_perron(A)[1]

    @pytest.mark.parametrize("A", [
        directed_cycle(np.random.default_rng(10), 10, -1.0),
        directed_cycle(np.random.default_rng(30), 30, 0.5),
        ring_with_diagonal(0, -1.0),
        ring_with_diagonal(1, 0.25),
    ], ids=["cycle10", "cycle30", "ring0", "ring1"])
    def test_constant_diagonal_iterates_as_uniform_shift(self, A):
        # Every row is lifted to the level of the uniform shift, so only
        # rounding tells the two iterations apart.
        assert abs(perron_pair(A).iterations - reference_perron(A)[1]) <= 1

    @pytest.mark.parametrize("name,A", [
        pytest.param(name, A, marks=pytest.mark.xfail(
            strict=True, reason="a large off-diagonal block with a small diagonal is "
            "damped less by the lowest diagonal level than by the uniform shift"))
        if name in ("scales0", "scales2") else (name, A)
        for name, A in CORPUS], ids=[name for name, _ in CORPUS])
    def test_corpus_no_slower_than_uniform_shift(self, monkeypatch, name, A):
        # scales0 takes 362 steps against 294, scales2 50 against 31: in both,
        # a block with off-diagonal entries in the tens to hundreds and a
        # diagonal within [-3, 1] converges faster with the higher lift.
        assert joint_steps(monkeypatch, A) <= 1.1 * reference_steps(A)

    def test_one_by_one_is_exact(self):
        pair = perron_pair([[0.1]])
        assert pair.abscissa == 0.1 and pair.bracket == (0.1, 0.1)
        assert pair.iterations == 0


@pytest.mark.xfail(raises=NoConvergenceError, strict=True,
                   reason="the lift has an absolute 1, which a small matrix barely moves")
def test_perron_lift_scale_floor():
    # delta = 1 + max|c| + min c is at least 1 whatever the matrix's scale.
    # At 1e-3 times a 15 x 15 grid the iteration matrix is within about 1e-3
    # of the identity, so the bracket, which the unscaled grid closes in
    # about 2,200 steps, is still 2.3e-5 wide after 20,000.
    A = 1e-3 * grid_metzler(np.random.default_rng(1), 15)
    alpha = np.max(np.linalg.eigvals(A).real)
    assert abs(spectral_abscissa(A, max_iter=20000) - alpha) <= 1e-10
