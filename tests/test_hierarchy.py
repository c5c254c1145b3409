import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from netcontract import hierarchy
from netcontract.hierarchy import (
    BlockNorm,
    BlockPartition,
    HypothesisViolatedError,
    JacobianBound,
    block_bound_matrix,
    composite_norm,
    jacobian_sup_estimate,
    operator_norm,
    synthesize_gains,
    tridiagonal_gains,
)
from netcontract.metzler import matrix_measure, perron_pair, spectral_abscissa
from netcontract.stabilization import minimal_effort_stabilize

from generators import random_tridiagonal_metzler
from reference import reference_block_bound_matrix, reference_rk4
from strategies import metzler_matrices

WORKED_J = np.array([[1.0, 2.0, 0.0], [8.0, 1.0, 3.0], [0.0, 12.0, 1.0]])


class TestOperatorNorm:
    def test_matches_numpy_induced_norms(self):
        rng = np.random.default_rng(0)
        for shape in ((3, 3), (2, 5), (6, 2)):
            M = rng.uniform(-3, 3, size=shape)
            assert_allclose(operator_norm(M, "one", "one"), np.linalg.norm(M, 1), atol=1e-12)
            assert_allclose(operator_norm(M, "inf", "inf"), np.linalg.norm(M, np.inf), atol=1e-12)
            assert_allclose(operator_norm(M, "two", "two"), np.linalg.norm(M, 2), atol=1e-12)

    def test_mixed_pairs(self):
        M = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert operator_norm(M, "two", "one") == 4.0       # max column 2-norm
        M2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert operator_norm(M2, "inf", "two") == 5.0      # max row 2-norm
        assert operator_norm(M2, "inf", "one") == 4.0      # max |entry|
        assert_allclose(operator_norm(M2, "one", "one"), 6.0)

    def test_unsupported_pairs_raise(self):
        M = np.eye(2)
        for out_kind, in_kind in (("one", "inf"), ("two", "inf"), ("one", "two")):
            with pytest.raises(ValueError, match="tractable"):
                operator_norm(M, out_kind, in_kind)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 2)), "two", "two") == 0.0


class TestBlockPartition:
    def test_geometry(self):
        part = BlockPartition.uniform([2, 3, 1])
        assert part.total == 6
        assert part.offsets == (0, 2, 5)
        assert [s.start for s in part.slices()] == [0, 2, 5]

    def test_validation(self):
        with pytest.raises(ValueError, match="^need at least one block$"):
            BlockPartition((), ())
        with pytest.raises(ValueError):
            BlockPartition((2,), (BlockNorm("two"), BlockNorm("two")))
        with pytest.raises(ValueError):
            BlockPartition((2,), (BlockNorm("two", scaling=[1.0, 2.0, 3.0]),))
        with pytest.raises(ValueError):
            BlockNorm("two", scaling=[1.0, -1.0])
        with pytest.raises(ValueError):
            BlockNorm("nuclear")

    # 2.7 became a block of 2 and True one of 1.
    @pytest.mark.parametrize("sizes", [(2.7,), (True,), (0, 2), (2, -1), ("2",), (None,)])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_sizes_must_be_positive_integers(self, sizes, uniform):
        with pytest.raises(ValueError, match="^block sizes must be a positive integer"):
            if uniform:
                BlockPartition.uniform(sizes)
            else:
                BlockPartition(sizes, tuple(BlockNorm("two") for _ in sizes))

    def test_numpy_integer_sizes(self):
        part = BlockPartition.uniform(np.array([2, 1]))
        assert part.sizes == (2, 1) and all(type(s) is int for s in part.sizes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_scaling_rejects_nan_and_inf(self, bad):
        with pytest.raises(ValueError):
            BlockNorm("inf", scaling=[bad, 1.0])


class TestBlockBoundMatrix:
    @given(metzler_matrices(granular=True))
    @settings(max_examples=25, deadline=None)
    def test_scalar_partition_is_metzlerization(self, A):
        # with 1x1 blocks: B_ii = a_ii and B_ij = |a_ij|
        n = A.shape[0]
        B = block_bound_matrix(A, BlockPartition.uniform([1] * n))
        expected = np.abs(A)
        np.fill_diagonal(expected, np.diag(A))
        assert np.array_equal(B, expected)

    def test_two_block_structure(self):
        rng = np.random.default_rng(1)
        n, b, c = 4, 2.0, 6.0
        S = rng.uniform(-1, 1, size=(n, n))
        S = (S + S.T) / 2 - 2.0 * np.eye(n)
        A = np.block([[S, c * np.eye(n)],
                      [-np.eye(n) / c, -(b / c) * np.eye(n)]])
        B = block_bound_matrix(A, BlockPartition.uniform([n, n]))
        assert_allclose(B[0, 0], np.max(np.linalg.eigvalsh(S)), atol=1e-9)
        assert_allclose(B[0, 1], c, atol=1e-9)
        assert_allclose(B[1, 0], 1.0 / c, atol=1e-9)
        assert_allclose(B[1, 1], -b / c, atol=1e-12)

    def test_scaled_block_norms(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-2, 2, size=(4, 4))
        t0, t1 = np.array([2.0, 1.0]), np.array([1.0, 3.0])
        part = BlockPartition((2, 2), (BlockNorm("inf", t0), BlockNorm("inf", t1)))
        B = block_bound_matrix(A, part)
        blk = (t0[:, None] * A[:2, 2:]) / t1[None, :]
        assert_allclose(B[0, 1], np.max(np.abs(blk).sum(axis=1)), atol=1e-12)
        scaled00 = (t0[:, None] * A[:2, :2]) / t0[None, :]
        expected = np.max(np.diag(scaled00) + np.abs(scaled00).sum(1) - np.abs(np.diag(scaled00)))
        assert_allclose(B[0, 0], expected, atol=1e-12)

    def test_mixed_kind_partition_hits_intractable_pair(self):
        # any two distinct kinds leave one coupling direction without an
        # exact formula, so heterogeneous kinds are rejected
        part = BlockPartition((2, 2), (BlockNorm("inf"), BlockNorm("one")))
        with pytest.raises(ValueError, match="tractable"):
            block_bound_matrix(np.ones((4, 4)), part)

    def test_partition_size_mismatch(self):
        with pytest.raises(ValueError):
            block_bound_matrix(np.eye(4), BlockPartition.uniform([2, 3]))

    def test_bound_dominates_full_measure(self):
        # mu of the full matrix in the composite norm is below alpha(B):
        # check the infinitesimal version via trajectories of x' = A x.
        rng = np.random.default_rng(3)
        for _ in range(5):
            sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
            n = int(sizes.sum())
            A = rng.uniform(-1.5, 1.5, size=(n, n))
            part = BlockPartition.uniform(
                sizes, kind=["one", "two", "inf"][int(rng.integers(3))])
            B = block_bound_matrix(A, part)
            alpha = spectral_abscissa(B)
            p = perron_pair(B).eigenvector
            x0 = rng.uniform(-1, 1, size=(4, n))
            times, states = reference_rk4(lambda t, x: x @ A.T, x0, 0.0, 2.0, 1e-3)
            norms = composite_norm(states, part, weights=p)
            envelope = norms[0] * np.exp(alpha * times)[:, None]
            assert np.all(norms <= envelope * (1 + 1e-6) + 1e-12)


class TestStackedBlockBound:
    @pytest.mark.parametrize("kind", ["one", "two", "inf"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_stack_matches_per_matrix(self, kind, scaled):
        rng = np.random.default_rng(8)
        sizes = (2, 3, 1)
        # the last block stays unscaled, so scaled and unscaled blocks mix
        t = [rng.uniform(0.5, 2.0, s) if scaled and k < 2 else None
             for k, s in enumerate(sizes)]
        part = BlockPartition(sizes, tuple(BlockNorm(kind, tk) for tk in t))
        t = [np.ones(s) if tk is None else tk for s, tk in zip(sizes, t)]
        stack = rng.uniform(-2, 2, size=(5, 6, 6))
        B = block_bound_matrix(stack, part)
        assert B.shape == (5, 3, 3)
        sl = part.slices()
        for A, Bk in zip(stack, B):
            assert_allclose(Bk, block_bound_matrix(A, part), rtol=1e-13, atol=1e-13)
            for i, j in np.ndindex(3, 3):
                blk = A[sl[i], sl[j]]
                ref = (matrix_measure(blk, kind, scaling=t[i]) if i == j else
                       operator_norm(t[i][:, None] * blk / t[j][None, :], kind))
                assert_allclose(Bk[i, j], ref, rtol=1e-12, atol=1e-12)

    def test_nested_stack_shape(self):
        A = np.random.default_rng(9).uniform(-1, 1, size=(2, 3, 4, 4))
        B = block_bound_matrix(A, BlockPartition.uniform([2, 2]))
        assert B.shape == (2, 3, 2, 2)
        assert_allclose(B[1, 2], block_bound_matrix(A[1, 2], BlockPartition.uniform([2, 2])),
                        rtol=1e-13, atol=1e-13)

    def test_non_square_rejected(self):
        part = BlockPartition.uniform([2])
        for bad in (np.ones(2), np.ones((2, 3)), np.ones((4, 2, 3))):
            with pytest.raises(ValueError):
                block_bound_matrix(bad, part)


def _hier_stack(rng, n=8, samples=101, c=6.0, b=2.0, gamma=0.05):
    """A stack shaped like the FHN Jacobian in (v_i, w_i) blocks: each
    diagonal block depends on a sampled v_i, each coupling block is the
    constant gamma * a_ij in its (v, v) entry."""
    adj = (rng.uniform(size=(n, n)) < 0.4) * rng.uniform(0.5, 1.5, size=(n, n))
    np.fill_diagonal(adj, 0.0)
    J = np.zeros((samples, 2 * n, 2 * n))
    J[:, 0::2, 0::2] = gamma * adj
    v = rng.uniform(-0.9, 0.6, size=(samples, n))
    i = np.arange(n)
    J[:, 2 * i, 2 * i] = c * (1.0 - v ** 2) - gamma * adj.sum(axis=1)
    J[:, 2 * i, 2 * i + 1] = c
    J[:, 2 * i + 1, 2 * i] = -1.0 / c
    J[:, 2 * i + 1, 2 * i + 1] = -b / c
    part = BlockPartition((2,) * n, tuple(BlockNorm("two", [1.0, c]) for _ in range(n)))
    return J, part


class TestGroupedBlockBound:
    """block_bound_matrix against the pair-by-pair loop it replaced.  Every
    case here, the 1- and inf-norms included, came out bit-identical."""

    @pytest.mark.parametrize("kind", ["one", "two", "inf"])
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_loop(self, kind, scaled, lead, seed):
        rng = np.random.default_rng([seed, len(lead)])
        sizes = tuple(int(s) for s in rng.choice([1, 2, 3, 5, 9], size=rng.integers(2, 6)))
        part = BlockPartition(sizes, tuple(
            BlockNorm(kind, rng.uniform(0.3, 3.0, s) if scaled and rng.random() < 0.7 else None)
            for s in sizes))
        n = part.total
        A = rng.normal(size=lead + (n, n))
        # Copy blocks of the first matrix into every matrix of the stack, so
        # that constant and varying blocks share a group.  Some copies then
        # differ in the last matrix only, or in one entry only.
        first = A[(0,) * len(lead)].copy()
        for i, j in np.ndindex(len(sizes), len(sizes)):
            case = rng.integers(4)
            if case:
                si, sj = part.slices()[i], part.slices()[j]
                varying = A[..., si, sj].copy()
                A[..., si, sj] = first[si, sj]
                if case == 2:
                    last = (-1,) * len(lead)
                    A[last + (si, sj)] = varying[last]
                elif case == 3:
                    A[..., si.start, sj.start] = varying[..., 0, 0]
        assert np.array_equal(block_bound_matrix(A, part),
                              reference_block_bound_matrix(A, part))

    def test_hier_shape(self):
        J, part = _hier_stack(np.random.default_rng(11))
        assert np.array_equal(block_bound_matrix(J, part),
                              reference_block_bound_matrix(J, part))

    def test_empty_stack(self):
        part = BlockPartition.uniform([2, 1])
        B = block_bound_matrix(np.zeros((0, 3, 3)), part)
        assert B.shape == (0, 2, 2)

    def test_constant_couplings_bounded_once(self, monkeypatch):
        J, part = _hier_stack(np.random.default_rng(12))
        seen = []
        norm = np.linalg.norm

        def counting_norm(x, *args, **kwargs):
            seen.append(int(np.prod(np.shape(x)[:-2])))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        block_bound_matrix(J, part)
        # The 56 coupling blocks of 8 neurons in one call, not 56 x 101.
        assert seen == [8 * 7]


class TestNonFiniteMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 2), (2, 1)])
    def test_block_bound_matrix(self, bad, where):
        # Unchecked, a NaN came out in B and an inf coupling gave NaN.
        A = np.ones((4, 3, 3))
        A[(2,) + where] = bad
        for M in (A, A[2]):
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                block_bound_matrix(M, BlockPartition.uniform([2, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_operator_norm(self, bad):
        # Unchecked, NaN raised LinAlgError: SVD did not converge.
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            operator_norm([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 2, 2), (3,), ()])
    @pytest.mark.parametrize("kind", ["one", "two", "inf"])
    def test_operator_norm_shape(self, shape, kind):
        # Was 0.0 for 0 x 0, 2.0 for a (2, 2, 2) stack with "one", and
        # numpy's own error with "two".
        message = f"non-empty 2-D matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            operator_norm(np.ones(shape), kind)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_synthesize_gains_checks_finiteness_first(self, bad, where):
        # -inf on the diagonal raised HypothesisViolatedError ("negative
        # entry (-inf)"), and NaN passed the hypothesis test.
        J = np.array([[-1.0, 1.0], [1.0, -1.0]])
        J[where] = bad
        for j_hat in (J, JacobianBound(J)):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                synthesize_gains(j_hat, np.ones(2), 0.5)


class TestCompositeNorm:
    def test_blockwise_values(self):
        part = BlockPartition((2, 2), (BlockNorm("one"), BlockNorm("inf")))
        x = np.array([1.0, -2.0, 3.0, -4.0])
        assert composite_norm(x, part) == 4.0
        assert composite_norm(x, part, weights=[1.0, 8.0]) == 3.0

    def test_scaling_applied(self):
        part = BlockPartition((2,), (BlockNorm("inf", scaling=[1.0, 10.0]),))
        assert composite_norm(np.array([5.0, 1.0]), part) == 10.0

    def test_batched(self):
        part = BlockPartition.uniform([2, 1])
        x = np.ones((3, 7, 3))
        assert composite_norm(x, part).shape == (3, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_must_be_finite(self, bad):
        # NaN came out as the norm.
        part = BlockPartition.uniform([2])
        for x in ([bad, 1.0], [[0.0, 1.0], [1.0, bad]]):
            with pytest.raises(ValueError, match="^state has non-finite entries$"):
                composite_norm(x, part)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_weights_must_be_finite_and_positive(self, bad):
        part = BlockPartition.uniform([2, 1])
        with pytest.raises(ValueError):
            composite_norm(np.ones(3), part, weights=[1.0, bad])


class TestJacobianSupEstimate:
    def test_constant_jacobian_recovers_bound(self):
        A = np.array([[-1.0, 2.0], [0.5, -3.0]])
        part = BlockPartition.uniform([1, 1])
        est = jacobian_sup_estimate(lambda t, x: A, part,
                                    (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                                    samples=10)
        assert np.array_equal(est.j_hat, block_bound_matrix(A, part))
        assert est.provenance == "sampled"
        assert est.sample_count == 10 + 4 + 1

    def test_scalar_cubic_peaks_at_center(self):
        est = jacobian_sup_estimate(
            lambda t, x: np.array([[-3.0 * x[0] ** 2]]),
            BlockPartition.uniform([1]),
            (np.array([-2.0]), np.array([2.0])), samples=50)
        assert est.j_hat[0, 0] == 0.0

    def test_time_grid(self):
        est = jacobian_sup_estimate(
            lambda t, x: np.array([[t]]), BlockPartition.uniform([1]),
            (np.array([0.0]), np.array([1.0])), t_grid=(0.0, 0.5, 2.0), samples=3)
        assert est.j_hat[0, 0] == 2.0
        assert est.sample_count == 3 * (3 + 2 + 1)

    @pytest.mark.parametrize("stack_bytes", [1, 3 * 8 * 16])
    def test_chunked_stacks_give_same_estimate(self, monkeypatch, stack_bytes):
        rng = np.random.default_rng(10)
        C = rng.uniform(-1, 1, size=(4, 4))
        part = BlockPartition((2, 2), (BlockNorm("two", [1.0, 3.0]),
                                       BlockNorm("two", [2.0, 1.0])))
        dom = (-np.ones(4), np.ones(4))

        def run():
            seen = []

            def sampler(t, x):
                seen.append((t, x.copy()))
                return C * np.cos(t + x.sum()) - np.diag(x ** 2)

            est = jacobian_sup_estimate(sampler, part, dom, t_grid=(0.0, 1.0),
                                        samples=37)
            return est, seen

        whole, seen_whole = run()
        # stack_bytes = 1 forces 1-point stacks; 3 * 8 * 16 gives 3-point
        # stacks that do not divide the 37 + 1 + 16 points of each t
        monkeypatch.setattr(hierarchy, "_STACK_BYTES", stack_bytes)
        chunked, seen_chunked = run()
        assert np.array_equal(chunked.j_hat, whole.j_hat)
        assert chunked.sample_count == whole.sample_count == 2 * (37 + 1 + 16)
        assert len(seen_chunked) == len(seen_whole) == chunked.sample_count
        for (t1, x1), (t2, x2) in zip(seen_chunked, seen_whole):
            assert t1 == t2 and np.array_equal(x1, x2)

    def test_wrong_sampler_shape_raises(self):
        part = BlockPartition.uniform([1, 1])
        dom = (np.zeros(2), np.ones(2))
        bad_samplers = [
            lambda t, x: np.eye(3),                          # wrong size
            lambda t, x: np.ones((2, 3)),                    # not square
            lambda t, x: 1.0,                                # scalar
            lambda t, x: np.eye(2 if x[0] < 0.5 else 3),     # shape varies
        ]
        for sampler in bad_samplers:
            with pytest.raises(ValueError):
                jacobian_sup_estimate(sampler, part, dom, samples=20)

    def test_validation(self):
        part = BlockPartition.uniform([1])
        dom = (np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            jacobian_sup_estimate(lambda t, x: np.eye(1), part, dom, samples=0)
        with pytest.raises(ValueError):
            jacobian_sup_estimate(lambda t, x: np.eye(1), part,
                                  (np.array([2.0]), np.array([1.0])))

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, "10", None])
    def test_samples_must_be_positive_integer(self, samples):
        # 2.5 was a TypeError from numpy.
        with pytest.raises(ValueError, match="^samples must be a positive integer"):
            jacobian_sup_estimate(lambda t, x: np.eye(1), BlockPartition.uniform([1]),
                                  ([0.0], [1.0]), samples=samples)

    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    def test_seed_must_be_integer(self, seed):
        # 1.5 was a TypeError from SeedSequence.
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, "
                                             rf"got {re.escape(repr(seed))}$"):
            jacobian_sup_estimate(lambda t, x: np.eye(1), BlockPartition.uniform([1]),
                                  ([0.0], [1.0]), samples=3, seed=seed)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence raised "expected non-negative integer", which
        # does not name the argument.
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            jacobian_sup_estimate(lambda t, x: np.eye(1), BlockPartition.uniform([1]),
                                  ([0.0], [1.0]), samples=3, seed=-1)

    def test_numpy_integer_samples(self):
        est = jacobian_sup_estimate(lambda t, x: np.eye(1), BlockPartition.uniform([1]),
                                    ([0.0], [1.0]), samples=np.int64(3))
        assert est.sample_count == 3 + 2 + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_domain_bounds_must_be_finite(self, bad, side):
        # NaN or inf bounds were numpy's OverflowError: Range exceeds valid bounds.
        dom = [[0.0, 0.0], [1.0, 1.0]]
        dom[side][1] = bad
        with pytest.raises(ValueError, match="^domain (lower|upper) bounds must"):
            jacobian_sup_estimate(lambda t, x: np.eye(2), BlockPartition.uniform([1, 1]),
                                  dom, samples=3)

    def test_domain_bounds_lengths_must_match(self):
        with pytest.raises(ValueError, match="^domain upper bounds have length"):
            jacobian_sup_estimate(lambda t, x: np.eye(2), BlockPartition.uniform([1, 1]),
                                  ([0.0, 0.0], [1.0]), samples=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_t_grid_must_be_finite(self, bad):
        # A NaN time reached the sampler silently.
        calls = []
        with pytest.raises(ValueError, match="^t_grid must"):
            jacobian_sup_estimate(lambda t, x: calls.append(t) or np.eye(1),
                                  BlockPartition.uniform([1]), ([0.0], [1.0]),
                                  t_grid=(0.0, bad), samples=3)
        assert calls == []

    @pytest.mark.parametrize("dom", [([-1e308], [1e308]),
                                     ([0.0, -1.5e308], [1.0, 1.5e308])])
    def test_domain_width_must_not_overflow(self, dom):
        # Was numpy's OverflowError: Range exceeds valid bounds, after a
        # RuntimeWarning.
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^domain width hi - lo overflows: domain"):
                jacobian_sup_estimate(lambda t, x: calls.append(x) or np.eye(len(x)),
                                      BlockPartition.uniform([1] * len(dom[0])), dom,
                                      samples=3)
        assert calls == []

    def test_centre_near_float_max_stays_finite(self):
        # (lo + hi) / 2 overflowed to inf here, and the inf centre reached the
        # sampler, whose Jacobian then failed the non-finite entry check.
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jacobian_sup_estimate(lambda t, x: calls.append(x) or np.eye(1),
                                  BlockPartition.uniform([1]), ([1e308], [1.5e308]),
                                  samples=3)
        assert calls[3][0] == 1.25e308  # the centre: finite, inside the box

    @pytest.mark.parametrize("t_grid", [(), [], np.array([])])
    def test_t_grid_must_not_be_empty(self, t_grid):
        # Was a j_hat of -inf from 0 samples, flagged "sampled", which
        # synthesize_gains then rejected for a "negative entry (-inf)".
        calls, reached = [], []

        def synthesize(bound):
            reached.append(bound)
            return synthesize_gains(bound, np.ones(1), 0.5)

        with pytest.raises(ValueError, match="^t_grid must hold at least one time$"):
            synthesize(jacobian_sup_estimate(lambda t, x: calls.append(t) or np.eye(1),
                                             BlockPartition.uniform([1]), ([0.0], [1.0]),
                                             t_grid=t_grid, samples=3))
        assert calls == [] and reached == []

    def test_non_finite_sampler_output_rejected(self):
        # A NaN Jacobian was LinAlgError: SVD did not converge.
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            jacobian_sup_estimate(lambda t, x: np.full((2, 2), np.nan),
                                  BlockPartition.uniform([1, 1]), ([0.0, 0.0], [1.0, 1.0]),
                                  samples=3)


class TestSynthesizeGains:
    def test_worked_tridiagonal(self):
        res = synthesize_gains(WORKED_J, np.ones(3), 0.5)
        assert_allclose(res.v_star, [5.5, 11.5, 7.5], atol=1e-9)
        assert_allclose(res.closed_loop_abscissa, -0.5, atol=1e-8)
        assert_allclose(res.cost, 24.5, atol=1e-8)

    def test_symmetric_balanced_bound(self):
        # row sums vanish, so v* = eta * ones once the hypothesis holds
        J = np.array([[-1.0, 1.0], [1.0, -1.0]])
        res = synthesize_gains(J, np.ones(2), 1.0)
        assert_allclose(res.v_star, [1.0, 1.0], atol=1e-9)
        assert_allclose(res.closed_loop_abscissa, -1.0, atol=1e-8)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(4)
        J = np.abs(random_tridiagonal_metzler(rng, 5))
        w = rng.uniform(0.5, 2.0, size=5)
        r1 = synthesize_gains(J, w, 0.3, tol=1e-12)
        r2 = synthesize_gains(J, 7.5 * w, 0.3, tol=1e-12)
        assert_allclose(r1.v_star, r2.v_star, rtol=1e-7, atol=1e-9)

    def test_accepts_jacobian_bound_wrapper(self):
        res = synthesize_gains(JacobianBound(WORKED_J), np.ones(3), 0.5)
        assert_allclose(res.v_star, [5.5, 11.5, 7.5], atol=1e-9)

    def test_matches_stabilizer_on_metzler_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            J = np.abs(rng.uniform(-1, 1, size=(n, n))) + 0.05
            w = rng.uniform(0.5, 2.0, size=n)
            eta = float(rng.uniform(0.1, 1.0))
            res = synthesize_gains(J, w, eta)
            ref = minimal_effort_stabilize(J, w, -eta)
            assert np.array_equal(res.v_star, ref.ell_star)

    def test_hypothesis_violation_raises(self):
        J = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(HypothesisViolatedError):
            synthesize_gains(J, np.ones(2), 0.25)
        with pytest.raises(ValueError):
            synthesize_gains(J, np.ones(2), -1.0)


class TestTridiagonalGains:
    def test_worked_instance(self):
        assert_allclose(tridiagonal_gains(WORKED_J, 0.5), [5.5, 11.5, 7.5], atol=1e-12)

    def test_two_node(self):
        assert_allclose(tridiagonal_gains([[0.0, 1.0], [1.0, 0.0]], 1.0), [2.0, 2.0])

    def test_symmetric_toeplitz_interior(self):
        beta, eta, n = 0.7, 0.2, 6
        J = np.zeros((n, n))
        for i in range(n - 1):
            J[i, i + 1] = J[i + 1, i] = beta
        v = tridiagonal_gains(J, eta)
        assert_allclose(v[1:-1], (eta + 2 * beta) * np.ones(n - 2), atol=1e-12)
        assert_allclose(v[[0, -1]], (eta + beta) * np.ones(2), atol=1e-12)

    def test_agrees_with_synthesize(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            J = random_tridiagonal_metzler(rng, n, diag_low=0.0, diag_high=1.0)
            eta = float(rng.uniform(0.1, 1.0))
            assert_allclose(tridiagonal_gains(J, eta),
                            synthesize_gains(J, np.ones(n), eta, tol=1e-12).v_star,
                            atol=1e-9, rtol=1e-9)

    def test_affine_in_eta(self):
        rng = np.random.default_rng(7)
        J = random_tridiagonal_metzler(rng, 5, diag_low=0.0, diag_high=1.0)
        v1 = tridiagonal_gains(J, 0.3)
        v2 = tridiagonal_gains(J, 0.9)
        assert_allclose(v2, v1 + 0.6, atol=1e-12)
        assert np.all(v2 > v1)

    def test_structure_and_hypothesis_validation(self):
        with pytest.raises(ValueError):
            tridiagonal_gains(np.ones((3, 3)), 0.5)
        with pytest.raises(ValueError):
            tridiagonal_gains(np.zeros((3, 3)), 0.5)
        with pytest.raises(HypothesisViolatedError):
            tridiagonal_gains(np.diag([-5.0, 0.0]) + np.array([[0, 1], [1, 0]]), 0.5)

    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_rejected(self, where):
        # Unchecked, a NaN band entry gave NaN gains.
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        J[where] = np.nan
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            tridiagonal_gains(J, 0.5)


class TestNonFiniteRate:
    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, "0.5"])
    def test_synthesize_gains(self, eta):
        with pytest.raises(ValueError, match="eta must be"):
            synthesize_gains(WORKED_J, np.ones(3), eta)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, "0.5"])
    def test_tridiagonal_gains(self, eta):
        with pytest.raises(ValueError, match="eta must be"):
            tridiagonal_gains(WORKED_J, eta)


def test_tridiagonal_gains_scalar():
    assert np.array_equal(tridiagonal_gains([[1.0]], 0.5), [1.5])
