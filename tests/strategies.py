"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def metzler_matrices(draw, min_n=2, max_n=6, irreducible=False, granular=False):
    """Metzler matrix strategy.

    ``granular`` snaps entries to a 0.25 grid: exact eigenvalue ties stay
    possible (harmless) while adversarial near-ties, which stall power
    iteration, do not arise.
    """
    n = draw(st.integers(min_n, max_n))
    if granular:
        cell = st.integers(0, 8).map(lambda k: k * 0.25)
        diag_cell = st.integers(-12, 4).map(lambda k: k * 0.25)
    else:
        cell = st.floats(0.0, 2.0, allow_nan=False)
        diag_cell = st.floats(-3.0, 1.0, allow_nan=False)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    diag = draw(st.lists(diag_cell, min_size=n, max_size=n))
    A = np.asarray(rows, dtype=float)
    np.fill_diagonal(A, diag)
    if irreducible:
        for i in range(n):
            A[(i + 1) % n, i] = max(A[(i + 1) % n, i], 0.5)
    return A
