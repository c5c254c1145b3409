import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from netcontract.integrate import _BLOCK, DivergedError, rk4

from reference import reference_rk4


def test_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, size=(4, 4))
    x0 = rng.uniform(-1, 1, size=4)
    times, states = rk4(lambda t, x: A @ x, x0, 0.0, 2.0, 1e-3)
    assert_allclose(states[-1], scipy.linalg.expm(2.0 * A) @ x0, atol=1e-10)
    assert times[0] == 0.0
    assert_allclose(times[-1], 2.0, atol=1e-12)


def test_fourth_order_convergence():
    # x' = cos(t) x has solution x0 * exp(sin t); halving the step should
    # shrink the endpoint error by ~2^4
    sol = 3.0 * np.exp(np.sin(1.5))

    def err(h):
        _, states = rk4(lambda t, x: np.cos(t) * x, np.array([3.0]), 0.0, 1.5, h)
        return abs(states[-1, 0] - sol)

    r1 = err(0.1) / err(0.05)
    r2 = err(0.05) / err(0.025)
    assert 12.0 < r1 < 20.0
    assert 12.0 < r2 < 20.0


def test_time_dependent_quadrature():
    # x' = 3t^2 integrates exactly (RK4 is exact on cubics)
    times, states = rk4(lambda t, x: np.array([3.0 * t * t]), np.array([0.0]),
                        0.0, 2.0, 0.25)
    assert_allclose(states[:, 0], times ** 3, atol=1e-12)


def test_batched_states():
    x0 = np.arange(12.0).reshape(4, 3)
    times, states = rk4(lambda t, x: -x, x0, 0.0, 1.0, 0.01)
    assert times.shape == (101,)
    assert states.shape == (101, 4, 3)
    assert_allclose(states[-1], x0 * np.exp(-1.0), atol=1e-9)


def test_step_rounding():
    times, _ = rk4(lambda t, x: 0.0 * x, np.zeros(1), 0.0, 1.0, 0.3)
    assert len(times) == 4  # round(1/0.3) = 3 steps
    times, _ = rk4(lambda t, x: 0.0 * x, np.zeros(1), 0.0, 0.001, 1.0)
    assert len(times) == 2  # at least one step


def test_divergence_raises_with_time():
    with pytest.raises(DivergedError) as exc:
        rk4(lambda t, x: x ** 3, np.array([2.0]), 0.0, 10.0, 0.5)
    assert 0.0 < exc.value.time <= 10.0
    assert "non-finite" in str(exc.value)


def test_validation():
    with pytest.raises(ValueError, match="step"):
        rk4(lambda t, x: x, np.zeros(1), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        rk4(lambda t, x: x, np.zeros(1), 1.0, 1.0, 0.1)


@pytest.mark.parametrize("name, bad", [("t0", np.nan), ("t0", -np.inf), ("t_end", np.inf),
                                       ("t_end", np.nan), ("step", np.nan), ("step", np.inf),
                                       ("step", "0.1")])
def test_non_finite_horizon_and_step(name, bad):
    args = {"t0": 0.0, "t_end": 1.0, "step": 0.1, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be a finite"):
        rk4(lambda t, x: x, np.zeros(1), **args)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_state(bad):
    calls = []
    with pytest.raises(ValueError, match="^x0 has non-finite entries$"):
        rk4(lambda t, x: calls.append(t) or -x, np.array([[0.0, 1.0], [bad, 2.0]]),
            0.0, 1.0, 0.1)
    assert calls == []  # rejected before the first step


@pytest.mark.parametrize("t0, t_end, step", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)])
def test_step_count_overflow(t0, t_end, step):
    with pytest.raises(ValueError, match="overflows"):
        rk4(lambda t, x: x, np.zeros(1), t0, t_end, step)


_A = np.random.default_rng(1).uniform(-1.0, 1.0, size=(4, 4))

FIELDS = {
    "batched_linear": (lambda t, x: x @ _A.T, np.arange(12.0).reshape(3, 4) / 12.0),
    "cos_t_x": (lambda t, x: np.cos(t) * x, np.array([3.0, -1.0])),
    "cubic_sin": (lambda t, x: -x ** 3 + np.sin(t), np.array([2.0, -0.5, 0.0])),
    "returns_argument": (lambda t, x: x, np.array([1.0, -2.0])),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_bit_identical_to_reference(name):
    # Enough steps for two full blocks of finiteness checks and a partial one.
    f, x0 = FIELDS[name]
    times, states = rk4(f, x0, 0.25, 0.25 + (2 * _BLOCK + 37) * 1e-3, 1e-3)
    ref_times, ref_states = reference_rk4(f, x0, 0.25, 0.25 + (2 * _BLOCK + 37) * 1e-3, 1e-3)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(states, ref_states)


def test_field_returning_its_argument_grows_as_exp():
    # The stage inputs must not share a buffer when f returns its argument.
    times, states = rk4(lambda t, x: x, 1.0, 0.0, 1.0, 0.01)
    assert states.shape == (101,)
    assert abs(states[-1] - np.e) <= 3e-10


@pytest.mark.parametrize("blowup_step", [1, _BLOCK // 2, 2 * _BLOCK + 20])
def test_divergence_time_matches_reference(blowup_step):
    # f turns infinite from the middle of step `blowup_step` on, so the first
    # non-finite state is states[blowup_step]: on the first step, mid-block,
    # and in the final partial block.
    step = 0.01
    onset = (blowup_step - 0.5) * step

    def f(t, x):
        return np.full_like(x, np.inf) if t >= onset else -x

    t_end = (2 * _BLOCK + 50) * step
    with pytest.raises(DivergedError) as ref:
        reference_rk4(f, np.ones((2, 3)), 0.0, t_end, step)
    with pytest.raises(DivergedError) as got:
        rk4(f, np.ones((2, 3)), 0.0, t_end, step)
    assert got.value.time == ref.value.time
    assert got.value.time == pytest.approx(blowup_step * step)
