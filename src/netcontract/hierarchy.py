"""Hierarchical contraction bounds for block-partitioned systems.

A partition of the state into blocks, each carrying its own (optionally
diagonally scaled) 1/2/inf norm, induces a composite norm whose matrix
measure is bounded by the measure of a small Metzler matrix B: diagonal
entries are block measures, off-diagonal entries induced norms of the
coupling blocks.  Weighting the outer max norm by a Perron eigenvector of B
turns that bound into the spectral abscissa of B.  Gains for the reduced
model come from the same minimum-effort machinery, plus a closed form for
tridiagonal bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from netcontract.balancing import MAX_SWEEPS, _tridiagonal_bands
from netcontract.metzler import (
    DEFAULT_TOL,
    IRREDUCIBLE,
    MetzlerMatrix,
    _as_square,
    _finite,
    _finite_entries,
    _halves,
    _integer,
    _measure,
    _metzler_classified,
    _vector,
    norm_kind,
)
from netcontract.stabilization import _stabilize

# Corner enumeration of a box is exponential in the dimension; beyond this
# many corners only the random samples and the center are used.
MAX_CORNERS = 4096

# Sampled Jacobians are bounded in stacks of about this many bytes.
_STACK_BYTES = 1 << 25


class HypothesisViolatedError(ValueError):
    """The nonnegativity hypothesis J_hat + eta*I >= 0 fails, so the closed
    form may produce nonpositive gains and its optimality guarantee is void."""


@dataclass(frozen=True, eq=False)
class BlockNorm:
    """Norm attached to one block: kind in {"one", "two", "inf"} plus an
    optional positive diagonal scaling applied before the norm is taken."""

    kind: str
    scaling: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", norm_kind(self.kind))
        if self.scaling is not None:
            object.__setattr__(self, "scaling", _vector(
                "block norm scaling", self.scaling, np.size(self.scaling), "positive"))


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Contiguous partition of indices 0..n-1 into blocks with attached norms."""

    sizes: tuple[int, ...]
    block_norms: tuple[BlockNorm, ...]

    def __post_init__(self):
        sizes = tuple(_integer("block sizes", s, "positive") for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "block_norms", tuple(self.block_norms))
        if not sizes:
            raise ValueError("need at least one block")
        if len(self.block_norms) != len(sizes):
            raise ValueError(
                f"{len(self.block_norms)} norms for {len(sizes)} blocks")
        for size, bn in zip(sizes, self.block_norms):
            if bn.scaling is not None and bn.scaling.shape[0] != size:
                raise ValueError(
                    f"scaling length {bn.scaling.shape[0]} != block size {size}")

    @classmethod
    def uniform(cls, sizes, kind="two") -> "BlockPartition":
        sizes = tuple(sizes)
        return cls(sizes, tuple(BlockNorm(kind) for _ in sizes))

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for s in self.sizes[:-1]:
            out.append(out[-1] + s)
        return tuple(out)

    def slices(self) -> list[slice]:
        return [slice(o, o + s) for o, s in zip(self.offsets, self.sizes)]


@dataclass
class JacobianBound:
    """Entrywise bound on the block-reduced Jacobian.

    ``provenance`` is "closed-form" for bounds valid over the whole domain
    and "sampled" for empirical maxima, which underestimate the supremum and
    therefore do not certify anything by themselves.
    """

    j_hat: np.ndarray
    provenance: str = "closed-form"
    sample_count: int = 0
    domain: tuple | None = None


@dataclass
class GainSynthesisResult:
    v_star: np.ndarray
    rate: float
    cost: float
    closed_loop_abscissa: float


_ORD = {"one": 1, "two": 2, "inf": np.inf}
_DUAL = {"one": "inf", "inf": "one", "two": "two"}


def _norm(blk: np.ndarray, kind: str) -> np.ndarray:
    """Induced norm, kind canonical, of every matrix in a stack (..., a, b).

    The 2-norm of a 2x2 matrix is the closed form
    hypot(a + d, c - b) + hypot(a - d, b + c) of its largest singular value,
    on its halved entries a, b, c, d, so no finite result overflows; every
    other case is ``np.linalg.norm`` over the last two axes.
    """
    if kind == "two" and blk.shape[-2:] == (2, 2):
        a, b, c, d, spread = _halves(blk)
        return np.hypot(a + d, c - b) + spread
    return np.linalg.norm(blk, _ORD[kind], axis=(-2, -1))


def operator_norm(M, out_kind="two", in_kind=None) -> float:
    """Induced norm of a (possibly rectangular) matrix between 1/2/inf spaces.

    Exact formulas: domain norm 1 -> max over columns of the codomain norm;
    codomain norm inf -> max over rows of the domain's dual norm; (2, 2) ->
    largest singular value, from ``_norm``, so a 2x2 matrix takes the closed
    form and matches its entry in ``block_bound_matrix`` bit for bit.  The
    remaining pairs (inf->1, inf->2, 2->1) have no tractable exact formula
    and raise ValueError, as do a NaN or infinite entry and input that is not
    a non-empty 2-D matrix.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {M.shape}")
    _finite_entries(M)
    out_kind = norm_kind(out_kind)
    in_kind = out_kind if in_kind is None else norm_kind(in_kind)
    if in_kind == "one":
        return float(np.max(np.linalg.norm(M.T, _ORD[out_kind], axis=-1)))
    if out_kind == "inf":
        return float(np.max(np.linalg.norm(M, _ORD[_DUAL[in_kind]], axis=-1)))
    if in_kind == "two" and out_kind == "two":
        return float(_norm(M, "two"))
    raise ValueError(
        f"no tractable exact formula for the {in_kind} -> {out_kind} induced norm")


def block_bound_matrix(A, partition: BlockPartition) -> np.ndarray:
    """Metzler majorant of a matrix over a block partition; a stack (..., n, n)
    gives a stack (..., m, m).

    B[i][i] is the measure of the i-th diagonal block in the block's own
    norm; B[i][j] (i != j) is the induced norm of the coupling block from
    block j's norm to block i's.  The measure of A in the composite norm
    (Perron-weighted outer max) is bounded by the abscissa of B.  Blocks of
    two kinds always couple in a direction ``operator_norm`` cannot take.

    Block pairs are grouped by (diagonal or coupling, rows, columns), and
    each group is bounded with one ``_measure`` or ``_norm`` call on a stacked
    array; in the 2-norm, 2x2 blocks take closed forms there and larger ones
    LAPACK.  A block equal in every matrix of the stack, such as a
    linear coupling, is bounded once, from the first matrix.  A NaN or
    infinite entry raises ValueError.
    """
    M = np.asarray(A.entries if isinstance(A, MetzlerMatrix) else A, dtype=float)
    n = partition.total
    if M.ndim < 2 or M.shape[-2:] != (n, n):
        raise ValueError(f"partition covers {n} indices, got shape {M.shape}")
    _finite_entries(M)
    kind, *others = {bn.kind for bn in partition.block_norms}
    if others:
        raise ValueError("no tractable exact formula for couplings of different norm kinds")
    quotient = None
    if any(bn.scaling is not None for bn in partition.block_norms):
        # T M T^{-1} with T the block scalings end to end.
        t = np.concatenate([np.ones(size) if bn.scaling is None else bn.scaling
                            for size, bn in zip(partition.sizes, partition.block_norms)])
        quotient = (t[:, None] / t[None, :]).ravel()
    flat = M.reshape(-1, n * n)
    # Entries equal in every matrix of the stack.
    fixed = (flat == flat[:1]).all(axis=0)
    sizes, starts = np.array(partition.sizes), np.array(partition.offsets)
    m = sizes.size
    rows, cols = np.divmod(np.arange(m * m), m)
    # One group per (diagonal or coupling, rows, columns) of the block pairs.
    key = (sizes[rows] * (n + 1) + sizes[cols]) * 2 + (rows != cols)
    B = np.empty((flat.shape[0], m, m))
    for group in np.unique(key):
        r, c = rows[key == group], cols[key == group]
        a, b = sizes[r[0]], sizes[c[0]]
        # Flat indices of each pair's block, shape (pairs, a, b).
        index = ((starts[r, None, None] + np.arange(a)[:, None]) * n
                 + starts[c, None, None] + np.arange(b))
        const = fixed[index].all(axis=(1, 2))
        # Constant blocks from the first matrix alone, the others from all.
        for pick, stack in ((const, flat[:1]), (~const, flat)):
            if pick.any():
                blk = np.take(stack, index[pick], axis=1)
                if quotient is not None:
                    blk *= quotient[index[pick]]
                B[:, r[pick], c[pick]] = (
                    _measure(blk, kind) if r[0] == c[0] else _norm(blk, kind))
    return B.reshape(M.shape[:-2] + (m, m))


def composite_norm(x, partition: BlockPartition, weights=None) -> np.ndarray:
    """Composite norm max_i |x^i|_i / w_i, batched over leading axes.

    With w a Perron eigenvector of the block bound matrix this is the norm in
    which the hierarchical contraction estimate holds.  A NaN or infinite
    state entry raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != partition.total:
        raise ValueError(
            f"state has dimension {x.shape[-1]}, partition covers {partition.total}")
    if not np.isfinite(x).all():
        raise ValueError("state has non-finite entries")
    m = len(partition.sizes)
    w = np.ones(m) if weights is None else _vector("weights", weights, m, "positive")
    vals = []
    for sl, bn in zip(partition.slices(), partition.block_norms):
        blk = x[..., sl]
        if bn.scaling is not None:
            blk = blk * bn.scaling
        vals.append(np.linalg.norm(blk, _ORD[bn.kind], axis=-1))
    return np.max(np.stack(vals, axis=-1) / w, axis=-1)


def jacobian_sup_estimate(sampler, partition: BlockPartition, domain,
                          t_grid=(0.0,), samples: int = 10_000,
                          seed: int = 0) -> JacobianBound:
    """Empirical entrywise maximum of the block bound over a box domain.

    ``sampler(t, x)`` returns the Jacobian at state x and time t.  Evaluation
    points: ``samples`` uniform draws, the box corners (skipped when there
    are more than 4096), and the center, at every t in ``t_grid``.  The
    sampler is called once per point, in that order, and its outputs are
    bounded in stacks of about ``_STACK_BYTES`` by ``block_bound_matrix``:
    one measure or norm call per group of same-shaped block pairs, and a
    block equal in every Jacobian of a stack, such as a linear coupling,
    bounded once.  The result is an underestimate of the true supremum and
    is flagged ``"sampled"``.  Non-finite domain bounds, a domain whose
    width hi - lo overflows, a domain whose dimension is not the
    partition's, an empty or non-finite ``t_grid``, a
    ``samples`` that is not a positive integer, a ``seed`` that is not a
    nonnegative integer, and a NaN or infinite Jacobian entry raise ValueError.
    """
    lo = _vector("domain lower bounds", domain[0], np.size(domain[0]))
    hi = _vector("domain upper bounds", domain[1], lo.shape[0])
    if np.any(lo > hi):
        raise ValueError("domain lower bound exceeds upper bound")
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo).all():
            raise ValueError(f"domain width hi - lo overflows: domain = ({lo}, {hi})")
    t_grid = _vector("t_grid", t_grid, np.size(t_grid))
    if t_grid.size == 0:
        raise ValueError("t_grid must hold at least one time")
    samples = _integer("samples", samples, "positive")
    seed = _integer("seed", seed, "nonnegative")
    dim = lo.shape[0]
    if dim != partition.total:
        raise ValueError(f"domain has dimension {dim}, partition covers {partition.total}")
    rng = np.random.default_rng(seed)
    # Exact halving, and no overflow of lo + hi near the float range.
    points = [rng.uniform(lo, hi, size=(samples, dim)), lo / 2.0 + hi / 2.0]
    if 2 ** dim <= MAX_CORNERS:
        points.append(np.array(list(itertools.product(*zip(lo, hi)))))
    points = np.vstack([np.atleast_2d(p) for p in points])
    m = len(partition.sizes)
    chunk = max(1, _STACK_BYTES // (8 * partition.total ** 2))
    j_hat = np.full((m, m), -np.inf)
    for t in t_grid:
        for k in range(0, points.shape[0], chunk):
            J = np.stack([sampler(t, x) for x in points[k:k + chunk]])
            np.maximum(j_hat, block_bound_matrix(J, partition).max(axis=0),
                       out=j_hat)
    return JacobianBound(j_hat, provenance="sampled",
                         sample_count=points.shape[0] * len(t_grid),
                         domain=(lo, hi))


def _unwrap(j_hat) -> np.ndarray:
    """The bound's entries, once square and finite, so that no NaN or
    infinity reaches the hypothesis test."""
    if isinstance(j_hat, JacobianBound):
        j_hat = j_hat.j_hat
    return _finite_entries(_as_square(j_hat))


def _check_hypothesis(J: np.ndarray, eta) -> float:
    """eta as a float, once it is finite and positive and J + eta*I >= 0."""
    eta = _finite("eta", eta, "positive")
    worst = float(np.min(J + eta * np.eye(J.shape[0])))
    if worst < 0:
        raise HypothesisViolatedError(
            f"J_hat + eta*I has a negative entry ({worst:.3g}); the closed form "
            "may produce nonpositive gains, so optimality is not guaranteed")
    return eta


def synthesize_gains(j_hat, w, eta: float, tol: float = DEFAULT_TOL) -> GainSynthesisResult:
    """Cheapest per-block gains making the reduced bound contract at rate eta.

    Requires J_hat irreducible Metzler and J_hat + eta*I >= 0 elementwise
    (ensuring the gains come out positive); runs the minimum-effort
    stabilizer's core with target -eta, so a bound of another kind raises
    NonIrreducibleError naming synthesize_gains.
    """
    J = _unwrap(j_hat)
    eta = _check_hypothesis(J, eta)
    M, cls, off = _metzler_classified(j_hat if isinstance(j_hat, MetzlerMatrix) else J,
                                      "synthesize_gains", IRREDUCIBLE)
    res = _stabilize(M, cls, off, w, -eta, tol, MAX_SWEEPS, None)
    return GainSynthesisResult(v_star=res.ell_star, rate=eta,
                               cost=res.cost, closed_loop_abscissa=res.achieved)


def tridiagonal_gains(j_hat, eta: float) -> np.ndarray:
    """Closed-form uniform-weight gains for a tridiagonal irreducible bound.

    v_i = eta + J_ii + sqrt(J_{i,i+1} J_{i+1,i}) + sqrt(J_{i-1,i} J_{i,i-1})
    with out-of-range neighbor terms dropped.  Matches synthesize_gains with
    w = 1 on tridiagonal input.
    """
    J = _unwrap(j_hat)
    sub, sup = _tridiagonal_bands(J)
    v = _check_hypothesis(J, eta) + np.diag(J)
    g = np.sqrt(sup * sub)
    v[:-1] += g
    v[1:] += g
    return v
