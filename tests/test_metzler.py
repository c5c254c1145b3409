import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import netcontract
from netcontract.metzler import (
    COMPLETELY_REDUCIBLE,
    IRREDUCIBLE,
    NOT_METZLER,
    REDUCIBLE_OTHER,
    STRUCTURAL_ZERO,
    MetzlerMatrix,
    NonIrreducibleError,
    NotBalancableError,
    classify,
    matrix_measure,
    norm_kind,
    perron_pair,
    spectral_abscissa,
)
from netcontract.balancing import balance, imbalance, potential
from netcontract.fhn import FhnConfig, Trajectory, entrainment_check
from netcontract.hierarchy import BlockPartition, jacobian_sup_estimate
from netcontract.stabilization import (
    marginal_stability_certificate,
    minimal_effort_stabilize,
    stabilize_blocks,
    verify_optimality,
)

from generators import random_irreducible_metzler, random_metzler
from strategies import metzler_matrices


class TestClassify:
    def test_irreducible(self):
        assert classify([[-1, 1], [1, -1]]).kind == IRREDUCIBLE

    def test_completely_reducible_identity(self):
        cls = classify(np.eye(3))
        assert cls.kind == COMPLETELY_REDUCIBLE
        assert cls.blocks == ((0,), (1,), (2,))

    def test_reducible_other(self):
        assert classify([[0, 1], [0, 0]]).kind == REDUCIBLE_OTHER

    def test_not_metzler(self):
        cls = classify([[0, -1], [0, 0]])
        assert cls.kind == NOT_METZLER
        assert cls.blocks is None

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(3)
        A = np.zeros((5, 5))
        A[:2, :2] = random_irreducible_metzler(rng, 2)
        A[2:, 2:] = random_irreducible_metzler(rng, 3)
        p = rng.permutation(5)
        cls = classify(A[np.ix_(p, p)])
        assert cls.kind == COMPLETELY_REDUCIBLE
        got = {frozenset(b) for b in cls.blocks}
        expected = {frozenset(np.flatnonzero(np.isin(p, group)))
                    for group in ([0, 1], [2, 3, 4])}
        assert got == expected

    def test_structural_zero_noise(self):
        # +/-1e-15 off-diagonal entries are noise: no Metzler violation, no edge
        assert classify([[0.0, -1e-15], [1e-15, 0.0]]).kind == COMPLETELY_REDUCIBLE

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            classify(np.ones((2, 3)))

    def test_empty_rejected(self):
        for make in (classify, MetzlerMatrix):
            with pytest.raises(ValueError, match="expected a non-empty square matrix"):
                make(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry, kind", [
        (-1e-14, COMPLETELY_REDUCIBLE),  # noise: no violation, no edge
        (-2e-14, NOT_METZLER),
        (1e-14, COMPLETELY_REDUCIBLE),   # exactly STRUCTURAL_ZERO: no edge
        (2e-14, REDUCIBLE_OTHER),
    ])
    def test_structural_zero_boundary(self, entry, kind):
        A = [[-1.0, entry], [0.0, -2.0]]
        assert classify(A).kind == kind
        if kind == NOT_METZLER:
            with pytest.raises(ValueError, match="not a Metzler matrix"):
                MetzlerMatrix(A)
        else:
            assert MetzlerMatrix(A).classification.kind == kind


def warshall_reachability(A) -> np.ndarray:
    """R[i, j] when node i reaches node j (or i == j), for edges i -> j at
    off-diagonal entries A[i, j] above STRUCTURAL_ZERO."""
    n = A.shape[0]
    R = (A > STRUCTURAL_ZERO) | np.eye(n, dtype=bool)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                R[i, j] = R[i, j] or (R[i, k] and R[k, j])
    return R


@st.composite
def graph_structured_metzler(draw):
    """Metzler matrices (n <= 10) with structural zeros and noise-level
    entries: sparse random, permuted block-diagonal over irreducible blocks,
    or a permuted triangular chain."""
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(("sparse", "blocks", "chain")))
    cell = st.sampled_from((0.0, 0.0, 0.0, 1e-15, -1e-15, STRUCTURAL_ZERO, 0.5, 2.0))
    A = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    if shape == "blocks":
        labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        A *= labels[:, None] == labels[None, :]
        for lab in set(labels.tolist()):
            members = np.flatnonzero(labels == lab)
            if members.size > 1:
                A[members, np.roll(members, 1)] = 1.0
    elif shape == "chain":
        A = np.triu(A, 1)
        A[np.arange(n - 1), np.arange(1, n)] = 1.0
        perm = np.array(draw(st.permutations(range(n))), dtype=int)
        A = A[np.ix_(perm, perm)]
    diag = draw(st.lists(st.integers(-12, 4), min_size=n, max_size=n, unique=True))
    np.fill_diagonal(A, 0.25 * np.array(diag))
    return A


class TestClassifyOracle:
    @given(graph_structured_metzler())
    @settings(max_examples=150, deadline=None)
    def test_matches_transitive_closure(self, A):
        R = warshall_reachability(A)
        mutual = R & R.T
        edges = A > STRUCTURAL_ZERO
        np.fill_diagonal(edges, False)
        cls = classify(A)
        if R.all():
            assert cls.kind == IRREDUCIBLE and cls.blocks is None
        elif np.all(mutual[edges]):
            assert cls.kind == COMPLETELY_REDUCIBLE
            assert cls.blocks == tuple(sorted(
                {tuple(np.flatnonzero(row).tolist()) for row in mutual}))
        else:
            assert cls.kind == REDUCIBLE_OTHER and cls.blocks is None
            ref = np.max(np.linalg.eigvals(A).real)
            assert_allclose(spectral_abscissa(A), ref, atol=1e-7)

    def test_csgraph_imported_only_for_reducible_input(self):
        # scipy.sparse.csgraph costs about 11 MB of resident memory, so the
        # library calls on irreducible input must not import it.  A fresh
        # interpreter keeps other tests' imports out of sys.modules.
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from netcontract import (
                classify, minimal_effort_stabilize, synthesize_gains, verify_optimality)
            J = np.array([[1.0, 2.0, 0.0], [8.0, 1.0, 3.0], [0.0, 12.0, 1.0]])
            w = np.ones(3)
            assert classify(J).kind == "irreducible"
            res = minimal_effort_stabilize(J, w, -1.0)
            verify_optimality(J, w, -1.0, res.ell_star)
            synthesize_gains(J, w, eta=0.5)
            print("scipy.sparse.csgraph" in sys.modules)
            classify(np.eye(3))
            print("scipy.sparse.csgraph" in sys.modules)
        """)
        src = os.path.dirname(os.path.dirname(netcontract.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["False", "True"]


class TestNonFinite:
    """NaN compares unequal to 0, so unchecked it enters the CSR as a
    non-edge: a reducible_other matrix with one NaN gets abscissa 0.0, and
    an irreducible one runs the Perron iteration to its cap."""

    IRREDUCIBLE_3 = [[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -3.0]]
    OTHER_3 = [[-1.0, 0.0, 0.0], [1.0, -2.0, 0.0], [0.0, 1.0, -3.0]]

    @staticmethod
    def spoiled(base, bad, where):
        A = np.array(base)
        A[where] = bad
        return A

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (2, 0), (0, 1)])
    @pytest.mark.parametrize("entry", [classify, MetzlerMatrix, spectral_abscissa,
                                       lambda A: minimal_effort_stabilize(A, np.ones(3), -1.0),
                                       imbalance, lambda A: potential(A, np.ones(3))],
                             ids=["classify", "MetzlerMatrix", "spectral_abscissa",
                                  "minimal_effort_stabilize", "imbalance", "potential"])
    def test_rejected(self, entry, where, bad):
        for base in (self.IRREDUCIBLE_3, self.OTHER_3):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                entry(self.spoiled(base, bad, where))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("norm", ["one", "two", "inf"])
    def test_matrix_measure_rejected(self, norm, bad):
        # Unchecked, a NaN diagonal entry gave mu_inf = nan.
        for where in ((0, 0), (0, 1)):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                matrix_measure(self.spoiled([[0.0, 1.0], [1.0, -1.0]], bad, where), norm)


class TestKindCheck:
    """Each call that takes only some kinds of Metzler matrix rejects the
    others in one way: the error names the call and the kind it got, and is
    a NotBalancableError where completely reducible input is taken."""

    KINDS = {COMPLETELY_REDUCIBLE: np.diag([-1.0, -2.0, -3.0]),
             REDUCIBLE_OTHER: np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]])}
    ONES = np.ones(3)

    @pytest.mark.parametrize("name, call, error", [
        ("perron_pair", perron_pair, NonIrreducibleError),
        ("balance", balance, NotBalancableError),
        ("minimal_effort_stabilize",
         lambda A: minimal_effort_stabilize(A, TestKindCheck.ONES, -1.0), NonIrreducibleError),
        ("stabilize_blocks",
         lambda A: stabilize_blocks(A, TestKindCheck.ONES, -1.0), NotBalancableError),
        ("marginal_stability_certificate", marginal_stability_certificate, NonIrreducibleError),
        ("verify_optimality",
         lambda A: verify_optimality(A, TestKindCheck.ONES, -1.0, TestKindCheck.ONES),
         NonIrreducibleError)])
    @pytest.mark.parametrize("kind", [COMPLETELY_REDUCIBLE, REDUCIBLE_OTHER])
    def test_rejected_kinds(self, kind, name, call, error):
        A = self.KINDS[kind]
        assert classify(A).kind == kind
        if error is NotBalancableError and kind == COMPLETELY_REDUCIBLE:
            call(A)  # taken
            return
        with pytest.raises(NonIrreducibleError) as info:
            call(A)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{name} requires an ")
        assert kind in str(info.value)

    def test_not_balancable_is_non_irreducible(self):
        assert issubclass(NotBalancableError, NonIrreducibleError)
        assert netcontract.NotBalancableError is netcontract.balancing.NotBalancableError
        assert netcontract.NotBalancableError is NotBalancableError


class TestMetzlerMatrix:
    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValueError):
            MetzlerMatrix([[0, -1], [0, 0]])

    def test_negative_diagonal_fine(self):
        M = MetzlerMatrix([[-5, 1], [1, -5]])
        assert M.n == 2

    def test_entries_immutable(self):
        M = MetzlerMatrix([[-1, 1], [1, -1]])
        with pytest.raises(ValueError):
            M.entries[0, 0] = 3.0

    def test_classification_cached(self):
        M = MetzlerMatrix([[-1, 1], [1, -1]])
        assert M.classification is M.classification
        assert M.classification.kind == IRREDUCIBLE

    def test_cached_csr_read_only(self):
        M = MetzlerMatrix([[-1.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 1e-15, -1.0]])
        for arr in (M._off.data, M._off.indices, M._off.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0
        # The 1e-15 entry stays in the CSR although it is not an edge.
        assert M._off.nnz == 4
        assert M.classification.kind == REDUCIBLE_OTHER
        assert_allclose(spectral_abscissa(M), np.max(np.linalg.eigvals(M.entries).real),
                        atol=1e-9)
        assert M._off.nnz == 4


class TestPerronPair:
    def test_balanced_symmetric(self):
        pair = perron_pair([[-1, 1], [1, -1]])
        assert_allclose(pair.abscissa, 0.0, atol=1e-10)
        assert_allclose(pair.eigenvector, [1.0, 1.0], atol=1e-10)

    def test_stable_example(self):
        pair = perron_pair([[-3, 1], [2, -2]])
        assert_allclose(pair.abscissa, -1.0, atol=1e-9)
        assert_allclose(pair.eigenvector, [1.0, 2.0], atol=1e-9)

    def test_antidiagonal_example(self):
        pair = perron_pair([[0, 2], [8, 0]])
        assert_allclose(pair.abscissa, 4.0, atol=1e-9)
        assert_allclose(pair.eigenvector, [1.0, 2.0], atol=1e-9)

    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(0)
        A = random_irreducible_metzler(rng, 7)
        pair = perron_pair(A)
        assert pair.eigenvector[0] == 1.0
        assert np.all(pair.eigenvector > 0)

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 17, 60, 200):
            A = random_irreducible_metzler(rng, n)
            pair = perron_pair(A, tol=1e-10)
            res = np.max(np.abs(A @ pair.eigenvector - pair.abscissa * pair.eigenvector))
            assert res <= 1e-10 * np.max(np.abs(pair.eigenvector))

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 17, 60, 200):
            A = random_irreducible_metzler(rng, n)
            pair = perron_pair(A)
            ref = np.max(np.linalg.eigvals(A).real)
            assert_allclose(pair.abscissa, ref, atol=1e-9, rtol=1e-9)

    def test_bracket_contains_abscissa(self):
        rng = np.random.default_rng(3)
        cases = [random_irreducible_metzler(rng, n) for n in (2, 3, 5, 17, 60, 200)]
        cases.append(random_irreducible_metzler(rng, 300, density=0.02))
        # A nearly reducible 8-cycle: the link closing it is 1e-6, so an
        # iterate with residual below tol can have its Rayleigh quotient
        # 1.2e-8 off; the bracket width bounds the error, the residual not.
        cycle_rng = np.random.default_rng(2)
        i = np.arange(8)
        cycle = np.zeros((8, 8))
        cycle[(i + 1) % 8, i] = cycle_rng.uniform(0.5, 1.5, 8)
        cycle[0, 7] = 1e-6
        cycle[i, i] = cycle_rng.uniform(-1.0, 0.5, 8)
        cases.append(cycle)
        for A in cases:
            pair = perron_pair(A, tol=1e-10)
            lo, hi = pair.bracket
            alpha = np.max(np.linalg.eigvals(A).real)
            # Rounding of the shifted mat-vec, gamma_n times its size.
            n = A.shape[0]
            slack = 2 * n * np.finfo(float).eps * (1 + 2 * np.abs(A).sum(axis=1).max())
            assert lo - slack <= alpha <= hi + slack
            assert pair.abscissa == hi
            assert hi - lo <= 1e-10
            assert abs(pair.abscissa - alpha) <= 1e-10 + slack

    def test_requires_irreducible(self):
        with pytest.raises(NonIrreducibleError):
            perron_pair(np.eye(2))
        with pytest.raises(NonIrreducibleError):
            perron_pair([[0, 1], [0, 0]])

    def test_hash_and_equality_by_identity(self):
        # The eigenvector field made hash() raise TypeError.
        pair = perron_pair([[-1.0, 1.0], [1.0, -1.0]])
        assert {pair: 1}[pair] == 1 and pair == pair
        assert pair != perron_pair([[-1.0, 1.0], [1.0, -1.0]])

    def test_one_by_one(self):
        pair = perron_pair([[-2.5]])
        assert pair.abscissa == -2.5
        assert pair.eigenvector[0] == 1.0
        assert pair.bracket == (-2.5, -2.5)


class TestSpectralAbscissa:
    def test_marginal(self):
        assert_allclose(spectral_abscissa([[-1, 1], [1, -1]]), 0.0, atol=1e-10)

    def test_reducible_other_exact_via_blocks(self):
        # Block-triangular: spectrum is the union of diagonal blocks' spectra.
        A = np.array([[1.0, 0.0], [1.0, -2.0]])
        assert_allclose(spectral_abscissa(A), 1.0, atol=1e-12)

    def test_reducible_other_finds_components_once(self, monkeypatch):
        calls = []
        strong_components = netcontract.metzler._strong_components

        def counting(mask):
            calls.append(1)
            return strong_components(mask)

        monkeypatch.setattr(netcontract.metzler, "_strong_components", counting)
        n = 2000
        chain = np.diag(-np.linspace(1.0, 2.0, n)) + np.diag(np.ones(n - 1), -1)
        assert spectral_abscissa(chain) == -1.0
        assert len(calls) == 1

    def test_completely_reducible(self):
        A = np.zeros((4, 4))
        A[:2, :2] = [[-3, 1], [2, -2]]
        A[2:, 2:] = [[0, 2], [8, 0]]
        assert_allclose(spectral_abscissa(A), 4.0, atol=1e-9)

    def test_scalar(self):
        assert spectral_abscissa([[3.0]]) == 3.0

    def test_rejects_not_metzler(self):
        with pytest.raises(ValueError):
            spectral_abscissa([[0, -1], [1, 0]])

    @given(metzler_matrices(irreducible=True, granular=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_eigvals_property(self, A):
        ref = np.max(np.linalg.eigvals(A).real)
        assert_allclose(spectral_abscissa(A), ref, atol=1e-8)

    def test_gershgorin_row_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A = random_metzler(rng, int(rng.integers(2, 8)))
            assert spectral_abscissa(A) <= matrix_measure(A, "inf") + 1e-12


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0, True, np.True_])
@pytest.mark.parametrize("call", [
    perron_pair, spectral_abscissa, marginal_stability_certificate, balance,
    lambda A, tol: minimal_effort_stabilize(A, np.ones(2), -1.0, tol=tol),
], ids=["perron_pair", "spectral_abscissa", "marginal_stability_certificate",
        "balance", "minimal_effort_stabilize"])
def test_bad_tol_rejected(call, tol):
    # Before any iteration: a tol no width or imbalance can meet would spin
    # to the step cap, and an infinite one would pass unconverged input.  A
    # bool ran at tol 1.
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        call([[-1.0, 1.0], [4.0, -4.0]], tol=tol)


@pytest.mark.parametrize("value", [1.5, True, -3, 0, "10", None])
@pytest.mark.parametrize("call, knob", [
    (perron_pair, "max_iter"), (spectral_abscissa, "max_iter"), (balance, "max_sweeps"),
    (lambda A, **kw: minimal_effort_stabilize(A, np.ones(2), -1.0, **kw), "max_sweeps"),
], ids=["perron_pair", "spectral_abscissa", "balance", "minimal_effort_stabilize"])
def test_bad_iteration_cap_rejected(call, knob, value):
    # 1.5 was a TypeError from range, True ran one step, and -3 raised
    # NoConvergenceError "within -3 iterations".
    with pytest.raises(ValueError, match=f"^{knob} must be a positive integer"):
        call([[-1.0, 1.0], [4.0, -4.0]], **{knob: value})


RING6 = np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1)


def _entrainment(transient_periods):
    times = np.arange(4001) * 1e-3  # four periods of the default sinusoid
    trajs = [Trajectory(times, np.full((times.size, 12), x), np.zeros(times.size))
             for x in (0.0, 1.0)]
    return entrainment_check(FhnConfig(adjacency=RING6), trajs,
                             transient_periods=transient_periods)


def _sup_estimate(**kwargs):
    return jacobian_sup_estimate(lambda t, x: np.eye(1), BlockPartition.uniform([1]),
                                 ([0.0], [1.0]), **{"samples": 3, **kwargs})


@pytest.mark.parametrize("name, domain, call, ok, bad", [
    ("b", "nonnegative", lambda v: FhnConfig(adjacency=RING6, b=v), 0.0, -1.0),
    ("gamma", "nonnegative", lambda v: FhnConfig(adjacency=RING6, gamma=v), 0.0, -1.0),
    ("seed", "nonnegative", lambda v: FhnConfig(adjacency=RING6, seed=v), 0, -1),
    ("seed", "nonnegative", lambda v: _sup_estimate(seed=v), 0, -1),
    ("transient_periods", "nonnegative", _entrainment, 0, -1),
    ("tol", "positive", lambda v: spectral_abscissa([[-1.0, 1.0], [4.0, -4.0]], tol=v),
     1e-10, 0.0),
    ("eta", "positive", lambda v: FhnConfig(adjacency=RING6, eta=v), 0.05, 0.0),
    ("samples", "positive", lambda v: _sup_estimate(samples=v), 1, 0),
], ids=["config-b", "config-gamma", "config-seed", "sup-estimate-seed",
        "transient-periods", "abscissa-tol", "config-eta", "sup-estimate-samples"])
def test_number_domains(name, domain, call, ok, bad):
    # Every sign rule is the validators' domain argument, with one message
    # per kind of number.
    call(ok)
    message = (f"{name} must be a {domain} integer, got {bad!r}" if isinstance(bad, int)
               else f"{name} must be a finite {domain} number, got {bad!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


class TestMatrixMeasure:
    A = np.array([[-2.0, 1.0], [0.0, -3.0]])

    def test_row_measure(self):
        assert matrix_measure(self.A, "inf") == -1.0

    def test_column_measure(self):
        assert matrix_measure(self.A, "one") == -2.0

    def test_spectral_measure_diagonal(self):
        assert_allclose(matrix_measure(np.diag([-1.0, -2.0]), "two"), -1.0, atol=1e-10)

    def test_spectral_measure_symmetric(self):
        assert_allclose(matrix_measure([[0.0, 1.0], [1.0, 0.0]], "two"), 1.0, atol=1e-10)

    def test_norm_aliases(self):
        for norm in (1, "1", "one", "ONE"):
            assert matrix_measure(self.A, norm) == -2.0
        for norm in (np.inf, "inf", "Infinity"):
            assert matrix_measure(self.A, norm) == -1.0
        with pytest.raises(ValueError):
            norm_kind("fro")

    def test_diagonal_scaling(self):
        # T = diag(1, 2): T A T^{-1} = [[-2, 0.5], [0, -3]], row measure -1.5
        assert matrix_measure(self.A, "inf", scaling=[1.0, 2.0]) == -1.5

    def test_scaling_validation(self):
        with pytest.raises(ValueError):
            matrix_measure(self.A, "inf", scaling=[1.0, -2.0])
        with pytest.raises(ValueError):
            matrix_measure(self.A, "inf", scaling=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_scaling_rejects_nan_and_inf(self, bad):
        with pytest.raises(ValueError):
            matrix_measure(self.A, "inf", scaling=[bad, 1.0])

    def test_mu2_matches_eigvalsh(self):
        rng = np.random.default_rng(5)
        # A 100-ring Laplacian's top eigenvalues are nearly tied, which an
        # iterate that stops at a cap under-estimates.
        ring = np.eye(100, k=1) + np.eye(100, k=-1)
        ring[0, -1] = ring[-1, 0] = 1.0
        inputs = [rng.uniform(-5, 5, size=(n, n)) for n in rng.integers(1, 9, size=60)]
        inputs.append(0.05 * (ring - 2.0 * np.eye(100)) - 0.05 * np.eye(100))
        for M in inputs:
            ref = np.max(np.linalg.eigvalsh((M + M.T) / 2))
            assert_allclose(matrix_measure(M, "two"), ref, atol=1e-9)

    @given(metzler_matrices(granular=True), st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_shift_property(self, A, k):
        # mu(A + cI) = mu(A) + c for every measure
        c = 0.25 * k
        shifted = A + c * np.eye(A.shape[0])
        for norm in ("one", "two", "inf"):
            assert_allclose(matrix_measure(shifted, norm),
                            matrix_measure(A, norm) + c, atol=1e-9)

    @given(metzler_matrices(granular=True), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_in_metzler_order(self, A, which):
        # A <= B entrywise (both Metzler) implies mu(A) <= mu(B)
        n = A.shape[0]
        E = [0.5 * np.ones((n, n)), np.triu(np.full((n, n), 0.25), 1), np.eye(n)][which]
        B = A + E
        for norm in ("one", "two", "inf"):
            assert matrix_measure(A, norm) <= matrix_measure(B, norm) + 1e-9

    def test_abscissa_between_negated_and_plain_measure(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            A = random_irreducible_metzler(rng, int(rng.integers(2, 7)))
            alpha = spectral_abscissa(A)
            for norm in ("one", "two", "inf"):
                assert alpha <= matrix_measure(A, norm) + 1e-9

    def test_perron_consistency(self):
        rng = np.random.default_rng(7)
        A = random_irreducible_metzler(rng, 12)
        assert_allclose(spectral_abscissa(A), perron_pair(A).abscissa, atol=1e-12)


@pytest.mark.parametrize("call", [
    perron_pair, spectral_abscissa, marginal_stability_certificate, balance,
    lambda A, tol: minimal_effort_stabilize(A, np.ones(2), -1.0, tol=tol),
], ids=["perron_pair", "spectral_abscissa", "marginal_stability_certificate",
        "balance", "minimal_effort_stabilize"])
def test_string_tol_rejected(call):
    # A ValueError, not a TypeError: the CLI reports the one and not the other.
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        call([[-1.0, 1.0], [4.0, -4.0]], tol="1e-8")


def test_tol_accepts_numpy_scalars_and_0d_arrays():
    A = [[-1.0, 1.0], [4.0, -4.0]]
    ref = spectral_abscissa(A, tol=1e-10)
    for tol in (np.float64(1e-10), np.float32(1e-10), np.array(1e-10)):
        assert abs(spectral_abscissa(A, tol=tol) - ref) <= 1e-9
