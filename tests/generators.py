"""Shared random-instance generators.  They need numpy only, so the
benchmark can import them; the hypothesis strategies live in strategies.py."""

import numpy as np


def random_metzler(rng, n, diag_low=-3.0, diag_high=1.0, density=0.7, scale=1.0):
    """Dense random Metzler matrix: nonnegative off-diagonal, free diagonal."""
    A = rng.uniform(0.0, scale, size=(n, n))
    A *= rng.uniform(size=(n, n)) < density
    np.fill_diagonal(A, rng.uniform(diag_low, diag_high, size=n))
    return A


def random_irreducible_metzler(rng, n, **kwargs):
    """As random_metzler, plus a positive n-cycle so the graph is strongly
    connected."""
    A = random_metzler(rng, n, **kwargs)
    if n >= 2:
        for i in range(n):
            j = (i + 1) % n
            A[j, i] = max(A[j, i], rng.uniform(0.1, 1.0))
    return A


def large_entry_metzler():
    """random_irreducible_metzler of n = 50 and seed 3 times 1e8: with w = 1,
    its closed loop at target -1 lies 4.11e-8 (relative) off the target."""
    return random_irreducible_metzler(np.random.default_rng(3), 50, density=0.2) * 1e8


def random_tridiagonal_metzler(rng, n, diag_low=-1.0, diag_high=1.0):
    A = np.zeros((n, n))
    np.fill_diagonal(A, rng.uniform(diag_low, diag_high, size=n))
    for i in range(n - 1):
        A[i, i + 1] = rng.uniform(0.1, 2.0)
        A[i + 1, i] = rng.uniform(0.1, 2.0)
    return A


def weighted_ring_metzler(rng, n):
    """n-node ring, both directions of every edge weighted U(0.5, 1.5),
    diagonal U(-1, 0.5); its diameter is n / 2."""
    A = np.zeros((n, n))
    i = np.arange(n)
    A[i, (i + 1) % n] = rng.uniform(0.5, 1.5, n)
    A[(i + 1) % n, i] = rng.uniform(0.5, 1.5, n)
    A[i, i] = rng.uniform(-1.0, 0.5, n)
    return A


def grid_metzler(rng, side):
    """Metzler matrix on a side x side grid: both directions of every edge
    weighted U(0.5, 1.5), diagonal U(-1, 0.5)."""
    n = side * side
    idx = np.arange(n).reshape(side, side)
    src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    A = np.zeros((n, n))
    A[src, dst] = rng.uniform(0.5, 1.5, src.size)
    A[dst, src] = rng.uniform(0.5, 1.5, src.size)
    A[np.arange(n), np.arange(n)] = rng.uniform(-1.0, 0.5, n)
    return A


def random_connected_adjacency(rng, n):
    """Symmetric binary adjacency containing a random spanning tree."""
    M = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(0, k)]
        M[i, j] = M[j, i] = 1.0
    extra = rng.uniform(size=(n, n)) < 0.3
    M = np.maximum(M, np.triu(extra, 1) + np.triu(extra, 1).T)
    np.fill_diagonal(M, 0.0)
    return M
