import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.linalg

import netcontract.fhn
from pathlib import Path
from numpy.testing import assert_allclose

from netcontract.fhn import (
    _BLOCK,
    _CERT_SLACK,
    _check_finite,
    _grid,
    DivergedError,
    FhnConfig,
    SinusoidInput,
    SpikeTrainInput,
    Trajectory,
    ZeroInput,
    certify,
    closed_loop_jacobian,
    config_from_json,
    config_to_json,
    entrainment_check,
    fhn_gains,
    initial_state,
    input_from_json,
    input_to_json,
    laplacian,
    load_config,
    resolved_gains,
    scaled_state_norm,
    simulate,
    write_trajectory_csv,
)
from netcontract.metzler import matrix_measure
from netcontract.stabilization import minimal_effort_stabilize

from generators import random_connected_adjacency
from reference import (reference_closed_loop_jacobian, reference_entrainment_check,
                       reference_rk4, reference_voltage_jacobian_bound)

FHN6 = Path(__file__).resolve().parents[1] / "configs" / "fhn6.json"

SIX_RING = np.array([
    [0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
], dtype=float)


def six_config(**overrides):
    return FhnConfig(adjacency=SIX_RING, **overrides)


def ring_adjacency(n):
    adj = np.zeros((n, n))
    i = np.arange(n)
    adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


def directed_adjacency(n, rng):
    adj = (rng.uniform(size=(n, n)) < 0.3).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def _directed_config(n, auto):
    # directed, so the auto gains differ from node to node
    rng = np.random.default_rng(n)
    adj = directed_adjacency(n, rng)
    return FhnConfig(adjacency=adj, gains=None if auto else rng.uniform(5.0, 7.0, size=n))


def _detuned_ring():
    adj = ring_adjacency(100)
    return FhnConfig(adjacency=adj, gains=fhn_gains(laplacian(adj), 6.0, 0.05, 0.05) - 2e-5)


# Configs for the certificate oracle: the detuned ring fails the measure
# check and the last config fails the hypothesis eta >= gamma * max deg - c.
CERTIFY_CASES = {
    "fhn6": lambda: load_config(FHN6),
    "ring100": lambda: FhnConfig(adjacency=ring_adjacency(100)),
    "ring100-detuned": _detuned_ring,
    **{f"directed{n}-{'auto' if auto else 'explicit'}": (
        lambda n=n, auto=auto: _directed_config(n, auto))
       for auto in (True, False) for n in (1, 2, 9, 30, 200)},
    "complete5": lambda: FhnConfig(adjacency=np.ones((5, 5)) - np.eye(5)),
    "gamma0": lambda: six_config(gamma=0.0),
    "hypothesis-fails": lambda: six_config(c=0.05, gamma=3.0, gains=np.ones(6)),
}


class TestLaplacian:
    def test_two_node_exchange(self):
        assert np.array_equal(laplacian([[0, 1], [1, 0]]),
                              [[1.0, -1.0], [-1.0, 1.0]])

    def test_six_node_structure(self):
        L = laplacian(SIX_RING)
        assert np.array_equal(np.diag(L), [2, 3, 2, 1, 1, 1])
        assert np.array_equal(L.sum(axis=1), np.zeros(6))  # rows always sum to 0
        assert np.array_equal(L.sum(axis=0), [1, 0, 0, 0, -1, 0])

    def test_empty_graph(self):
        assert np.array_equal(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_empty_network_rejected(self):
        # A 0 x 0 adjacency built a config that simulated states of shape
        # (11, 0) and failed only in certify.
        message = r"^adjacency must be a non-empty square matrix, got shape \(0, 0\)$"
        with pytest.raises(ValueError, match=message):
            laplacian(np.zeros((0, 0)))
        with pytest.raises(ValueError, match=message):
            FhnConfig(adjacency=np.zeros((0, 0)))

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            laplacian(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="diagonal"):
            laplacian(np.eye(3))
        with pytest.raises(ValueError, match="0 or 1"):
            laplacian([[0.0, 0.5], [0.5, 0.0]])


class TestFhnGains:
    def test_six_node_values(self):
        ell = fhn_gains(laplacian(SIX_RING), c=6.0, gamma=0.05, eta=0.05)
        assert_allclose(ell, [6.025, 6.05, 6.05, 6.05, 6.075, 6.05], atol=1e-12)

    def test_closed_loop_bound_abscissa_hits_minus_eta(self):
        L = laplacian(SIX_RING)
        ell = fhn_gains(L, 6.0, 0.05, 0.05)
        closed = reference_voltage_jacobian_bound(L, 6.0, 0.05) - np.diag(ell)
        assert_allclose(np.max(np.linalg.eigvalsh(closed)), -0.05, atol=1e-8)
        assert matrix_measure(closed, "two") <= -0.05 + 1e-8

    def test_symmetric_graph_gains_are_uniform(self):
        # symmetric L has zero column sums, so the correction term vanishes
        adj = random_connected_adjacency(np.random.default_rng(0), 7)
        ell = fhn_gains(laplacian(adj), 6.0, 0.05, 0.05)
        assert np.array_equal(ell, 6.05 * np.ones(7))

    def test_matches_minimum_effort_stabilizer(self):
        rng = np.random.default_rng(1)
        graphs = [SIX_RING] + [random_connected_adjacency(rng, int(rng.integers(3, 8)))
                               for _ in range(5)]
        for adj in graphs:
            L = laplacian(adj)
            bound = reference_voltage_jacobian_bound(L, 6.0, 0.05)
            ref = minimal_effort_stabilize(bound, np.ones(L.shape[0]), target=-0.05)
            assert_allclose(fhn_gains(L, 6.0, 0.05, 0.05), ref.ell_star,
                            rtol=1e-9, atol=1e-12)

    def test_single_neuron(self):
        assert np.array_equal(fhn_gains(np.zeros((1, 1)), 6.0, 0.05, 0.05), [6.05])

    def test_floor_violation_raises(self):
        with pytest.raises(ValueError, match="max degree"):
            fhn_gains(laplacian(SIX_RING), c=6.0, gamma=3.0, eta=0.05)


class TestCertify:
    def test_six_node_auto_gains_pass(self):
        cert = certify(six_config())
        assert cert.passed
        assert cert.eta_certified >= 0.05 - 1e-9
        assert cert.mu_scaled <= -0.05 + 1e-9
        assert sorted(c.name for c in cert.checks) == [
            "bound_plus_eta_nonneg", "eta_le_b_over_c", "scaled_measure_le_minus_eta"]

    def test_zero_gains_fail_measure_check(self):
        cert = certify(six_config(gains=np.zeros(6)))
        assert not cert.passed
        by_name = {c.name: c for c in cert.checks}
        assert not by_name["scaled_measure_le_minus_eta"].passed
        assert cert.mu_scaled > 0  # uncontrolled voltage block expands

    def test_long_ring_certifies_exact_rate(self):
        # A 100-ring's symmetric part has near-tied top eigenvalues; mu_2 must
        # be exact, not an iterate that under-estimates it.
        adj = ring_adjacency(100)
        gains = fhn_gains(laplacian(adj), 6.0, 0.05, 0.05)
        cert = certify(FhnConfig(adjacency=adj, gains=gains))
        assert cert.passed
        assert_allclose(cert.eta_certified, 0.05, rtol=0, atol=1e-12)

    def test_long_ring_detuned_gains_fail(self):
        # 2e-5 below the minimum gains, mu_2 = -0.04998 > -eta.
        adj = ring_adjacency(100)
        gains = fhn_gains(laplacian(adj), 6.0, 0.05, 0.05) - 2e-5
        cert = certify(FhnConfig(adjacency=adj, gains=gains))
        assert cert.passed is False

    def test_eta_above_recovery_ratio_fails(self):
        cert = certify(six_config(eta=0.5))  # b/c = 1/3 < 0.5
        by_name = {c.name: c for c in cert.checks}
        assert not by_name["eta_le_b_over_c"].passed
        assert not cert.passed

    @pytest.mark.parametrize("name", list(CERTIFY_CASES))
    def test_matches_voltage_bound_oracle(self, name):
        # certify reads the voltage block of the config's K; the oracle builds
        # the bound c I - gamma (L + L^T)/2 - diag(ell) from L.
        cfg = CERTIFY_CASES[name]()
        L, ell, eta, c = laplacian(cfg.adjacency), resolved_gains(cfg), cfg.eta, cfg.c
        bound = reference_voltage_jacobian_bound(L, c, cfg.gamma)
        mu = max(matrix_measure(bound - np.diag(ell), "two"), -cfg.b / c)
        cert = certify(cfg)
        assert cert.mu_scaled == mu and cert.eta_certified == -mu
        assert {ch.name: ch.passed for ch in cert.checks} == {
            "eta_le_b_over_c": eta <= cfg.b / c + _CERT_SLACK,
            "bound_plus_eta_nonneg": np.min(bound + eta * np.eye(cfg.n_neurons)) >= -1e-12,
            "scaled_measure_le_minus_eta": mu <= -eta + _CERT_SLACK,
        }
        residual = {ch.name: ch.residual for ch in cert.checks}["bound_plus_eta_nonneg"]
        assert residual == cfg.gamma * np.max(np.diag(L)) - c - eta

    def test_hypothesis_violation_fails_its_check(self):
        # eta = 0.05 < gamma * max deg - c = 3 * 3 - 0.05
        cert = certify(CERTIFY_CASES["hypothesis-fails"]())
        by_name = {c.name: c for c in cert.checks}
        assert not by_name["bound_plus_eta_nonneg"].passed
        assert by_name["bound_plus_eta_nonneg"].residual > 0
        assert not cert.passed


class TestClosedLoopJacobian:
    def test_block_structure(self):
        cfg = six_config()
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, size=12)
        J = closed_loop_jacobian(cfg, x)
        L = laplacian(SIX_RING)
        ell = resolved_gains(cfg)
        v = x[:6]
        assert_allclose(J[:6, :6],
                        6.0 * (np.eye(6) - np.diag(v * v)) - 0.05 * L - np.diag(ell),
                        atol=1e-12)
        assert np.array_equal(J[:6, 6:], 6.0 * np.eye(6))
        assert np.array_equal(J[6:, :6], -np.eye(6) / 6.0)
        assert np.array_equal(J[6:, 6:], -(2.0 / 6.0) * np.eye(6))

    def test_scaled_measure_along_trajectory(self):
        # the certificate promises mu_2 of T J T^{-1} <= -eta at every state
        cfg = six_config(seed=3, t_end=2.0)
        traj = simulate(cfg)
        t_scale = np.repeat([1.0, cfg.c], 6)  # T = diag(I, c I)
        for state in traj.states[::200]:
            J = closed_loop_jacobian(cfg, state)
            assert matrix_measure(J, "two", scaling=t_scale) <= -0.05 + 1e-8

    def test_rejects_other_state_shapes(self):
        cfg = six_config()
        for x in (np.zeros((3, 12)), np.zeros(7), np.zeros(13), np.zeros((12, 1))):
            with pytest.raises(ValueError, match="state dimension"):
                closed_loop_jacobian(cfg, x)

    def test_explicit_gains_skip_laplacian(self, monkeypatch):
        cfg = six_config(gains=np.full(6, 6.1))
        calls = []
        monkeypatch.setattr(netcontract.fhn, "laplacian",
                            lambda adj: calls.append(1) or laplacian(adj))
        closed_loop_jacobian(cfg, np.ones(12))
        assert calls == []

    @staticmethod
    def _adjacency(n, rng):
        # directed, so the auto gains differ from node to node
        return SIX_RING if n == 6 else directed_adjacency(n, rng)

    @pytest.mark.parametrize("n", [1, 2, 6, 30])
    @pytest.mark.parametrize("auto", [False, True])
    @pytest.mark.parametrize("a, b", [(0.3, 2.0), (0.0, 0.0)])
    def test_matches_reference_bit_for_bit(self, n, auto, a, b):
        rng = np.random.default_rng(n)
        adj = self._adjacency(n, rng)
        gains = None if auto else rng.uniform(5.0, 7.0, size=n)
        cfg = FhnConfig(adjacency=adj, a=a, b=b, gamma=0.2, gains=gains)
        for x in rng.uniform(-4.0, 4.0, size=(50, 2 * n)):
            assert np.array_equal(closed_loop_jacobian(cfg, x),
                                  reference_closed_loop_jacobian(cfg, x))

    def test_returns_a_fresh_writable_array(self):
        cfg = six_config()
        J = closed_loop_jacobian(cfg, np.zeros(12))
        J[:] = np.nan
        assert np.array_equal(closed_loop_jacobian(cfg, np.zeros(12)),
                              reference_closed_loop_jacobian(cfg, np.zeros(12)))

    def test_laplacian_built_once_per_config(self, monkeypatch):
        # The validation builds it and the auto gains reuse it; certify,
        # simulate and every Jacobian read K, which is built from those gains.
        calls = []
        monkeypatch.setattr(netcontract.fhn, "laplacian",
                            lambda adj: calls.append(1) or laplacian(adj))
        cfg = six_config(t_end=0.05)
        assert cfg.gains is None
        certify(cfg)
        simulate(cfg)
        for x in np.random.default_rng(3).uniform(-2.0, 2.0, size=(100, 12)):
            closed_loop_jacobian(cfg, x)
        assert len(calls) == 1


def operator_field(cfg, t, x):
    """x' = K (x, r(t), 1) - (c/3) (v^3, 0) with the config's cached operator
    K, batched over the leading axes of x."""
    n = cfg.n_neurons
    ones = np.ones(x.shape[:-1] + (1,))
    z = np.concatenate([x, cfg.input(t) * ones, ones], axis=-1)
    dx = z @ cfg._operator.T
    dx[..., :n] -= (cfg.c / 3.0) * x[..., :n] ** 3
    return dx


class TestClosedLoopOperator:
    @staticmethod
    def _config():
        gains = np.random.default_rng(4).uniform(5.0, 7.0, size=6)
        spikes = SpikeTrainInput([0.0, 0.1, 0.4, 1.5], [0.0, 8.0, -1.0, 0.0])
        return six_config(a=0.3, gamma=0.2, gains=gains, input=spikes)

    def test_columns(self):
        cfg = self._config()
        K = cfg._operator
        assert K.shape == (12, 14)
        assert np.array_equal(K[:, :12], closed_loop_jacobian(cfg, np.zeros(12)))
        assert np.array_equal(K[:, 12], np.repeat([cfg.c, 0.0], 6))
        assert np.array_equal(K[:, 13], np.repeat([0.0, cfg.a / cfg.c], 6))
        # simulate and closed_loop_jacobian share this one K of the config
        assert cfg._operator is K
        with pytest.raises(ValueError, match="read-only"):
            K[0, 0] = 0.0

    def test_matches_term_by_term_equations(self):
        # the module docstring's equations, written out per term
        cfg = self._config()
        L, ell = laplacian(SIX_RING), cfg.gains
        a, b, c, gamma = cfg.a, cfg.b, cfg.c, cfg.gamma
        rng = np.random.default_rng(5)
        for x in (rng.uniform(-4, 4, size=12), rng.uniform(-4, 4, size=(3, 12))):
            for t in (0.0, 0.05, 0.7, 2.3):
                v, w = x[..., :6], x[..., 6:]
                dv = c * (v + w - v ** 3 / 3.0 + cfg.input(t)) - gamma * (v @ L.T) - ell * v
                dw = -(v - a + b * w) / c
                ref = np.concatenate([dv, dw], axis=-1)
                got = operator_field(cfg, t, x)
                assert got.shape == x.shape
                assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_jacobian_matches_central_differences(self):
        cfg = self._config()
        h = 1e-6
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=12)
            steps = h * np.eye(12)  # row k perturbs coordinate k
            fd = (operator_field(cfg, 0.3, x + steps)
                  - operator_field(cfg, 0.3, x - steps)).T / (2.0 * h)
            assert_allclose(closed_loop_jacobian(cfg, x), fd, rtol=1e-6, atol=1e-6)


class TestSimulate:
    # A horizon shorter than one step still takes one step.
    @pytest.mark.parametrize("t_end, step, times", [(1.0, 1e-2, np.arange(101) * 1e-2),
                                                    (0.001, 1.0, [0.0, 1.0])])
    def test_origin_is_equilibrium_without_input(self, t_end, step, times):
        cfg = FhnConfig(adjacency=[[0.0]], a=0.0, input=ZeroInput(),
                        gains=[6.05], t_end=t_end, step=step)
        traj = simulate(cfg, x0=np.zeros(2))
        assert np.array_equal(traj.times, times)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.input_trace == 0.0)

    def test_shapes_and_input_trace(self):
        cfg = six_config(t_end=0.1)
        traj = simulate(cfg)
        assert traj.times.shape == (101,)
        assert traj.states.shape == (101, 12)
        assert traj.input_trace.shape == (101,)
        assert np.array_equal(traj.input_trace, cfg.input(traj.times))
        assert traj.n_neurons == 6
        assert traj.v.shape == (101, 6) and traj.w.shape == (101, 6)

    def test_batched_initial_states(self):
        cfg = six_config(t_end=0.05)
        x0 = np.stack([initial_state(cfg, np.random.default_rng(s)) for s in (0, 1, 2)])
        traj = simulate(cfg, x0=x0)
        assert traj.states.shape == (51, 3, 12)

    def test_deterministic(self):
        cfg = six_config(seed=5, t_end=0.2)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        assert np.array_equal(t1.states, t2.states)

    def test_step_loop_skips_np_dot(self, monkeypatch):
        # The loop's products are bound ndarray.dot methods, which skip
        # np.dot's __array_function__ dispatch; they give the same states.
        cfg = six_config(seed=5, t_end=0.2)
        x0 = np.random.default_rng(5).uniform(-4.0, 4.0, size=(2, 12))
        expected = simulate(cfg, x0=x0).states

        def no_dot(*args, **kwargs):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(np, "dot", no_dot)
        assert np.array_equal(simulate(cfg, x0=x0).states, expected)

    @pytest.mark.parametrize("x0", [np.zeros(10), 1.0])
    def test_dimension_mismatch(self, x0):
        with pytest.raises(ValueError, match="state dimension"):
            simulate(dataclasses.replace(load_config(FHN6), t_end=0.01), x0=x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_initial_state(self, bad, batched):
        # One non-finite entry anywhere in a batch rejects the whole run
        # before the input is evaluated or a step is taken.
        calls = []
        cfg = dataclasses.replace(load_config(FHN6), t_end=1.0,
                                  input=lambda t: calls.append(t) or np.zeros_like(t))
        x0 = np.zeros((2, 12)) if batched else np.full(12, bad)
        if batched:
            x0[1, 7] = bad
        with pytest.raises(ValueError, match="^x0 has non-finite entries$"):
            simulate(cfg, x0=x0)
        assert calls == []

    @pytest.mark.parametrize("kwargs, message", [
        ({"t_end": np.inf}, "^t_end must be a finite positive"),
        ({"t_end": np.nan}, "^t_end must be a finite positive"),
        ({"t_end": 0.0}, "^t_end must be a finite positive"),
        ({"t_end": -1.0}, "^t_end must be a finite positive"),
        ({"step": np.nan}, "^step must be a finite positive"),
        ({"step": np.inf}, "^step must be a finite positive"),
        ({"step": "0.1"}, "^step must be a finite positive"),
        ({"step": 0.0}, "^step must be a finite positive"),
        ({"step": -0.1}, "^step must be a finite positive"),
        ({"t_end": 1e300, "step": 1e-300}, "^t_end / step overflows"),
        ({"t_end": 1e308, "step": 0.5}, "^t_end / step overflows"),
    ])
    def test_horizon_and_step_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            simulate(dataclasses.replace(six_config(), **kwargs))


class TestGridAndFiniteCheck:
    """The step grid of ``simulate`` and its blockwise finiteness check."""

    @pytest.mark.parametrize("t_end, step, n_steps", [
        (1.0, 1e-2, 100),
        (1.0, 0.3, 3),  # round(1 / 0.3) steps
        (0.001, 1.0, 1),  # at least one step
        (18.0, 2e-3, 9000),  # the entrain horizon
    ])
    def test_grid(self, t_end, step, n_steps):
        times, mid, end = _grid(t_end, step)
        assert np.array_equal(times, step * np.arange(n_steps + 1))
        # the later RK4 stages sit half-way through and at the end of each step
        assert_allclose(mid, (times[:-1] + times[1:]) / 2.0, rtol=0.0, atol=1e-12 * times[-1])
        assert_allclose(end, times[1:], rtol=0.0, atol=1e-12 * times[-1])

    # The entry of state `bad_at` and of every later state is non-finite, as
    # in a run that has diverged; only states[first:stop] are checked.
    @pytest.mark.parametrize("shape, first, stop, bad_at, raised_at", [
        ((10,), 0, 10, None, None),  # all finite
        ((10, 2, 3), 0, 10, 4, 4),
        ((10, 2, 3), 3, 7, 3, 3),  # at the window's first state
        ((10, 2, 3), 3, 7, 7, None),  # just after the window
        ((10,), 2, 10, 9, 9),  # unbatched, at the last state
    ])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_check_finite(self, shape, first, stop, bad_at, raised_at, bad):
        times = 0.5 * np.arange(shape[0])
        out = np.ones(shape)
        if bad_at is not None:
            out[(slice(bad_at, None),) + (-1,) * (len(shape) - 1)] = bad
        if raised_at is None:
            _check_finite(times, out, first, stop)
            return
        with pytest.raises(DivergedError, match="^state became non-finite at t = ") as exc:
            _check_finite(times, out, first, stop)
        assert exc.value.time == times[raised_at]


SPIKES = SpikeTrainInput([0.0, 0.1, 0.4, 1.5], [0.0, 8.0, -1.0, 0.0])


class TestReferenceRk4:
    """The oracle that ``simulate`` is compared with, checked on its own."""

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(-1, 1, size=(4, 4))
        x0 = rng.uniform(-1, 1, size=4)
        times, states = reference_rk4(lambda t, x: A @ x, x0, 0.0, 2.0, 1e-3)
        assert_allclose(states[-1], scipy.linalg.expm(2.0 * A) @ x0, atol=1e-10)
        assert times[0] == 0.0
        assert_allclose(times[-1], 2.0, atol=1e-12)

    def test_fourth_order_convergence(self):
        # x' = cos(t) x has solution x0 exp(sin t); halving the step should
        # shrink the endpoint error by about 2^4
        sol = 3.0 * np.exp(np.sin(1.5))

        def err(h):
            _, states = reference_rk4(lambda t, x: np.cos(t) * x, np.array([3.0]), 0.0, 1.5, h)
            return abs(states[-1, 0] - sol)

        assert 12.0 < err(0.1) / err(0.05) < 20.0
        assert 12.0 < err(0.05) / err(0.025) < 20.0

    def test_time_dependent_quadrature(self):
        # x' = 3t^2 integrates exactly: RK4 is exact on cubics
        times, states = reference_rk4(lambda t, x: np.array([3.0 * t * t]), np.array([0.0]),
                                      0.0, 2.0, 0.25)
        assert_allclose(states[:, 0], times ** 3, atol=1e-12)

    def test_batched_states(self):
        x0 = np.arange(12.0).reshape(4, 3)
        times, states = reference_rk4(lambda t, x: -x, x0, 0.0, 1.0, 0.01)
        assert times.shape == (101,)
        assert states.shape == (101, 4, 3)
        assert_allclose(states[-1], x0 * np.exp(-1.0), atol=1e-9)

    @pytest.mark.parametrize("blowup_step", [1, 128, 532])
    def test_divergence_time(self, blowup_step):
        # f turns infinite from the middle of step `blowup_step` on, so the
        # first non-finite state is states[blowup_step].
        step = 0.01
        onset = (blowup_step - 0.5) * step

        def f(t, x):
            return np.full_like(x, np.inf) if t >= onset else -x

        with pytest.raises(DivergedError) as exc:
            reference_rk4(f, np.ones((2, 3)), 0.0, 6.0, step)
        assert exc.value.time == pytest.approx(blowup_step * step)


def reference_simulate(config, x0):
    """The closed loop integrated by the plain RK4 loop, with the field
    written per call and the input evaluated at each stage's time."""
    n, c = config.n_neurons, config.c
    kt = closed_loop_jacobian(config, np.zeros(2 * n)).T
    drive = np.repeat([c, 0.0], n)
    offset = np.repeat([0.0, config.a / c], n)

    def f(t, x):
        dx = x @ kt + (config.input(t) * drive + offset)
        v = x[..., :n]
        dx[..., :n] -= (c / 3.0) * (v * v * v)
        return dx

    return reference_rk4(f, x0, 0.0, config.t_end, config.step)


class TestSimulateMatchesReference:
    INPUTS = {"sinusoid": (SinusoidInput(), 0.0), "spike_train": (SPIKES, 0.3),
              "zero": (ZeroInput(), 0.0)}

    @staticmethod
    def _assert_close(traj, times, states):
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.states - states)) <= 1e-13 * np.max(np.abs(states))

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_trajectory_and_input_trace(self, kind, batched):
        inp, a = self.INPUTS[kind]
        cfg = six_config(a=a, gamma=0.2, input=inp, t_end=0.7)  # 700 steps
        x0 = np.random.default_rng(8).uniform(-4.0, 4.0, size=(3, 12) if batched else 12)
        traj = simulate(cfg, x0=x0)
        self._assert_close(traj, *reference_simulate(cfg, x0))
        assert np.array_equal(traj.input_trace, cfg.input(traj.times))

    def test_horizon_and_step_overrides(self):
        # round(1.0 / 0.3) = 3 steps, ending at 0.9 rather than at t_end; a
        # weak input keeps the cubic stable at this step.
        cfg = six_config(a=0.3, t_end=1.0, step=0.3,
                         input=SpikeTrainInput([0.0, 0.1, 0.4, 1.5], [0.0, 0.5, -0.2, 0.0]))
        x0 = np.random.default_rng(9).uniform(-0.5, 0.5, size=12)
        traj = simulate(cfg, x0=x0)
        assert traj.times.shape == (4,)
        assert traj.times[-1] == pytest.approx(0.9)
        self._assert_close(traj, *reference_simulate(cfg, x0))
        assert np.array_equal(traj.input_trace, cfg.input(traj.times))

    def test_stacked_batch_axes(self):
        cfg = six_config(a=0.3, gamma=0.2, input=SPIKES, t_end=0.3)
        x0 = np.random.default_rng(10).uniform(-4.0, 4.0, size=(2, 3, 12))
        traj = simulate(cfg, x0=x0)
        assert traj.states.shape == (301, 2, 3, 12)
        self._assert_close(traj, *reference_simulate(cfg, x0))

    def test_entrain_shape(self):
        # The benchmark's shape: N = 30, a batch of 4, over 600 steps, so that
        # two full blocks of finiteness checks and a partial one run.
        rng = np.random.default_rng(12)
        cfg = FhnConfig(adjacency=random_connected_adjacency(rng, 30), a=0.3, t_end=0.6)
        x0 = rng.uniform(-4.0, 4.0, size=(4, 60))
        traj = simulate(cfg, x0=x0)
        assert traj.states.shape == (601, 4, 60)
        self._assert_close(traj, *reference_simulate(cfg, x0))

    @pytest.mark.parametrize("onset", [0.1, 0.3, 0.55])
    def test_divergence_time_matches_reference(self, onset):
        # The input jumps to 1e300 just after t = onset, so v^3 overflows on
        # the step that ends at onset + 0.001: step 101 is in the first block
        # of finiteness checks, step 301 in the second, full one, and step
        # 551 in the final partial block, which starts at step 2 * 256 + 1.
        assert _BLOCK == 256
        spike = SpikeTrainInput([0.0, onset, onset + 1e-4, 1.0], [0.0, 0.0, 1e300, 0.0])
        cfg = six_config(input=spike, t_end=0.6)
        x0 = np.random.default_rng(13).uniform(-4.0, 4.0, size=(2, 12))
        with pytest.raises(DivergedError) as ref:
            reference_simulate(cfg, x0)
        with pytest.raises(DivergedError) as got:
            simulate(cfg, x0=x0)
        assert got.value.time == ref.value.time
        assert got.value.time == pytest.approx(onset + 0.001)

    @pytest.mark.parametrize("w", [1e103, 1e200])
    def test_overflowing_recovery_state_diverges_on_first_step(self, w):
        # w^3 overflows from |w| > 5.6e102; the trajectory diverges on the
        # first step either way.
        cfg = load_config(FHN6)
        x0 = np.concatenate([np.zeros(6), np.full(6, w)])
        with pytest.raises(DivergedError) as ref:
            reference_simulate(cfg, x0)
        with pytest.raises(DivergedError) as got:
            simulate(cfg, x0=x0)
        assert got.value.time == ref.value.time == cfg.step


class TestTrajectory:
    TIMES = [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("times, states, input_trace, message", [
        ([0.0, np.nan], np.zeros((2, 2)), np.zeros(2), "^times must be finite"),
        ([0.0, np.inf], np.zeros((2, 2)), np.zeros(2), "^times must be finite"),
        ([0.0, 1.0, 1.0], np.zeros((3, 2)), np.zeros(3), "strictly increasing$"),
        ([1.0, 0.0], np.zeros((2, 2)), np.zeros(2), "strictly increasing$"),
        (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), "strictly increasing$"),
        (TIMES, np.zeros(2), np.zeros(3), "^states must have a time axis"),  # 1-D
        (TIMES, np.zeros(3), np.zeros(3), "^states must have a time axis"),
        (TIMES, 0.0, np.zeros(3), "^states must have a time axis"),  # was IndexError
        (TIMES, np.zeros((2, 2)), np.zeros(3), "^states and times disagree"),
        (TIMES, np.zeros((3, 3)), np.zeros(3), "^state dimension must be even"),
        (TIMES, np.zeros((3, 2)), np.zeros(2), "^input_trace and times disagree"),
        (TIMES, np.zeros((3, 2)), np.zeros((3, 1)), "^input_trace and times disagree"),
    ])
    def test_rejects_malformed(self, times, states, input_trace, message):
        with pytest.raises(ValueError, match=message):
            Trajectory(times, states, input_trace)

    def test_states_are_not_scanned(self):
        # Non-finite states are what DivergedError reports; a Trajectory
        # holds whatever it is given.
        traj = Trajectory(self.TIMES, np.full((3, 2), np.nan), np.zeros(3))
        assert np.isnan(traj.states).all()


class TestGapDecay:
    def test_certified_envelope_and_derivative(self):
        cfg = six_config(t_end=5.0)
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-4, 4, size=(2, 12))
        traj = simulate(cfg, x0=x0)
        gap = scaled_state_norm(traj.states[:, 0] - traj.states[:, 1], cfg.c)
        envelope = gap[0] * np.exp(-cfg.eta * traj.times)
        assert np.all(gap[1:] <= 1.02 * envelope[1:])
        # one-sided derivative bound D+ gap <= -eta gap, sampled discretely
        rate = np.diff(gap) / cfg.step
        assert np.all(rate <= (-cfg.eta + 2e-3) * gap[1:])


class TestScaledStateNorm:
    def test_splits_the_last_axis_in_halves(self):
        x = np.array([[3.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(scaled_state_norm(x, 4.0), [5.0, 0.0])

    @pytest.mark.parametrize("shape", [(5,), (2, 3), ()])
    def test_odd_or_missing_state_axis_rejected(self, shape):
        # (5,) gave 10.49 from 2 v entries and 3 w entries.
        with pytest.raises(ValueError, match="last axis must hold v and w halves"):
            scaled_state_norm(np.ones(shape), 6.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf, 0.0, -6.0, "6"])
    def test_c_must_be_finite_and_positive(self, c):
        # nan gave nan and -6 was accepted.
        with pytest.raises(ValueError, match="^c must be a finite positive number"):
            scaled_state_norm(np.ones(6), c)


class TestEntrainmentCheck:
    @staticmethod
    def _synthetic(delta=1e-3, eta=0.05, n_samples=5001):
        times = np.arange(n_samples) * 1e-3
        base_v = np.sin(2 * np.pi * times)[:, None] * np.ones(6)
        base_w = np.cos(2 * np.pi * times)[:, None] * np.ones(6)
        base = np.concatenate([base_v, base_w], axis=1)
        drift = delta * np.exp(-eta * times)[:, None] * np.ones(12)
        r = np.zeros(n_samples)
        return (Trajectory(times, base, r),
                Trajectory(times, base + drift, r),
                Trajectory(times, base.copy(), r))

    def test_exact_exponential_gap(self):
        a, b, c = self._synthetic()
        report = entrainment_check(six_config(), [a, b, c], transient_periods=2)
        assert report.n_pairs == 3
        assert abs(report.gap_slack - 1.0) < 1e-9
        assert abs(report.decay_rate - 0.05) < 1e-8
        assert 0.0 < report.periodicity_residual < 1e-3
        assert report.sync_spread == 0.0
        assert report.period == 1.0

    def test_identical_trajectories_skip_gap(self):
        a, _, c = self._synthetic()
        report = entrainment_check(six_config(), [a, c], transient_periods=2)
        assert report.gap_slack == 0.0
        assert report.decay_rate == np.inf

    def test_horizon_validation(self):
        a, b, _ = self._synthetic()
        with pytest.raises(ValueError, match="horizon"):
            entrainment_check(six_config(), [a, b])  # default needs 18 periods

    @staticmethod
    def _shifted(trajs, t0):
        return [Trajectory(tr.times + t0, tr.states, tr.input_trace) for tr in trajs]

    def test_envelope_starts_at_the_first_time(self):
        # The same gaps on a grid from t0 = 10: measured from 0, the
        # envelope would be e^{10 eta} too small.
        trajs = self._shifted(self._synthetic(), 10.0)
        report = entrainment_check(six_config(), trajs, transient_periods=2)
        assert abs(report.gap_slack - 1.0) < 1e-9
        assert abs(report.decay_rate - 0.05) < 1e-8

    def test_horizon_is_the_span_from_the_first_time(self):
        # t_end = 105 passes 18 periods, but the grid spans only 5
        a, b = self._shifted(self._synthetic()[:2], 100.0)
        with pytest.raises(ValueError, match="horizon 5 too short"):
            entrainment_check(six_config(), [a, b])
        assert entrainment_check(six_config(), [a, b], transient_periods=2).n_pairs == 1

    def test_sliced_simulation_window(self):
        # A window of a run, from t0 = 4, against its own envelope: the same
        # gaps as the full run's from t0 on, and a slack that stays near 1.
        cfg = six_config(t_end=9.0)
        x0 = np.stack([initial_state(cfg, np.random.default_rng(s)) for s in (0, 1, 2)])
        traj = simulate(cfg, x0=x0)
        k0 = int(np.searchsorted(traj.times, 4.0))
        assert traj.times[k0] == 4.0
        full, window = ([Trajectory(traj.times[k:], traj.states[k:, i], traj.input_trace[k:])
                         for i in range(3)] for k in (0, k0))
        whole = entrainment_check(cfg, full, transient_periods=2)
        report = entrainment_check(cfg, window, transient_periods=2)
        assert np.array_equal(report.gaps, whole.gaps[:, k0:])
        assert report.gap_slack <= 1.05
        self._assert_matches_reference(cfg, window)

    def test_grid_mismatch(self):
        a, b, _ = self._synthetic()
        other = Trajectory(a.times + 1.0, a.states, a.input_trace)
        with pytest.raises(ValueError, match="time grid"):
            entrainment_check(six_config(), [a, other], transient_periods=2)
        with pytest.raises(ValueError, match="two trajectories"):
            entrainment_check(six_config(), [a], transient_periods=2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"period": np.nan}, "^period must be a finite positive"),
        ({"period": 0.0}, "^period must be a finite positive"),
        ({"period": -1.0}, "^period must be a finite positive"),
        ({"fit_start": np.nan}, "^fit_start must be a finite real"),
        ({"fit_start": 5.0}, "fewer than two samples"),
        ({"fit_start": 4.9995}, "fewer than two samples"),
        ({"transient_periods": -20}, "^transient_periods must be a nonnegative integer, got -20$"),
        ({"transient_periods": 1.5},
         r"^transient_periods must be a nonnegative integer, got 1\.5$"),
        ({"transient_periods": True},
         "^transient_periods must be a nonnegative integer, got True$"),
    ])
    def test_argument_validation(self, kwargs, message):
        a, b, _ = self._synthetic()  # samples every 1e-3 up to t = 5
        with pytest.raises(ValueError, match=message):
            entrainment_check(six_config(), [a, b], **{"transient_periods": 2, **kwargs})

    def test_period_step_divisibility(self):
        times = np.arange(8000) * 0.0007
        states = np.zeros((8000, 12))
        trajs = [Trajectory(times, states, np.zeros(8000)),
                 Trajectory(times, states + 1.0, np.zeros(8000))]
        with pytest.raises(ValueError, match="integer multiple"):
            entrainment_check(six_config(), trajs, transient_periods=2)

    @staticmethod
    def _assert_matches_reference(cfg, trajs, fit_start=1.0):
        got = entrainment_check(cfg, trajs, fit_start=fit_start, transient_periods=2)
        ref = reference_entrainment_check(cfg, trajs, fit_start=fit_start)
        assert got.n_pairs == ref.n_pairs
        for name in ("eta", "period", "gap_slack", "decay_rate", "periodicity_residual",
                     "sync_spread"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-12 * abs(getattr(ref, name))
        assert got.gaps.shape == ref.gaps.shape == (ref.n_pairs, trajs[0].times.size)
        assert np.max(np.abs(got.gaps - ref.gaps)) <= 1e-12 * np.max(ref.gaps)

    @pytest.mark.parametrize("fit_start", [1.0, 4.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_polyfit_reference(self, seed, fit_start):
        rng = np.random.default_rng(seed)
        cfg = FhnConfig(adjacency=random_connected_adjacency(rng, 8), a=0.3, t_end=5.0,
                        step=2e-3)
        x0 = rng.uniform(-4.0, 4.0, size=(4, 16))
        x0[3] = x0[0]  # a coincident pair, whose gap is 0 throughout
        traj = simulate(cfg, x0=x0)
        trajs = [Trajectory(traj.times, traj.states[:, i], traj.input_trace) for i in range(4)]
        self._assert_matches_reference(cfg, trajs, fit_start)

    def test_zero_gaps_left_out_of_the_fit(self):
        a, b, _ = self._synthetic()
        states = b.states.copy()
        states[2000:2100] = a.states[2000:2100]  # the gap is exactly 0 there
        b = Trajectory(b.times, states, b.input_trace)
        self._assert_matches_reference(six_config(), [a, b])
        report = entrainment_check(six_config(), [a, b], transient_periods=2)
        assert abs(report.decay_rate - 0.05) < 1e-8

    def test_batched_trajectory_rejected(self):
        # float(gap[0]) used to raise a bare TypeError
        cfg = dataclasses.replace(load_config(FHN6), t_end=0.05)
        tr = simulate(cfg, x0=np.random.default_rng(14).uniform(-2.0, 2.0, (3, 12)))
        with pytest.raises(ValueError, match=r"unbatched.*got \(51, 3, 12\)$"):
            entrainment_check(cfg, [tr, tr])

    def test_state_dimension_must_match_config(self):
        # an 8-neuron config used to accept 6-neuron trajectories
        a, b, _ = self._synthetic()
        with pytest.raises(ValueError, match="dimension 12, expected 2N = 16"):
            entrainment_check(FhnConfig(adjacency=ring_adjacency(8)), [a, b],
                              transient_periods=2)

    @pytest.mark.parametrize("shift", [5e-4, 1e-9])
    def test_nonuniform_grid_rejected(self, shift):
        # the sample count of a period used to come from times[1] - times[0]
        a, b, _ = self._synthetic()
        times = a.times.copy()
        times[3000] += shift
        trajs = [Trajectory(times, tr.states, tr.input_trace) for tr in (a, b)]
        with pytest.raises(ValueError, match="uniformly spaced"):
            entrainment_check(six_config(), trajs, transient_periods=2)

    @pytest.mark.parametrize("t_end, step", [(25.0, 1e-3), (18.0, 2e-3), (5.0, 0.1),
                                             (20.0, 1.0 / 64), (200.0, 1e-3)])
    def test_simulate_grids_are_uniform(self, t_end, step):
        times, _, _ = _grid(t_end, step)
        states = np.zeros((times.size, 2))
        trajs = [Trajectory(times, states + i, np.zeros(times.size)) for i in range(2)]
        report = entrainment_check(FhnConfig(adjacency=[[0.0]]), trajs, transient_periods=2)
        assert report.n_pairs == 1

    def test_complete_graph_synchronizes(self):
        # uniform gains on a symmetric graph: neurons not only entrain to the
        # input but also collapse onto one another
        adj = np.ones((4, 4)) - np.eye(4)
        cfg = FhnConfig(adjacency=adj, t_end=25.0, step=1e-3)
        assert np.array_equal(resolved_gains(cfg), 6.05 * np.ones(4))
        x0 = np.stack([initial_state(cfg, np.random.default_rng(s)) for s in (0, 1)])
        batch = simulate(cfg, x0=x0)
        trajs = [Trajectory(batch.times, batch.states[:, i], batch.input_trace)
                 for i in range(2)]
        report = entrainment_check(cfg, trajs)
        assert report.sync_spread <= 1e-3
        assert report.periodicity_residual <= 1e-3
        assert report.gap_slack <= 1.05

    def test_integrated_network_entrains(self):
        cfg = six_config(t_end=5.0)
        x0 = np.stack([initial_state(cfg, np.random.default_rng(s)) for s in (0, 1)])
        traj = simulate(cfg, x0=x0)
        trajs = [Trajectory(traj.times, traj.states[:, i], traj.input_trace)
                 for i in range(2)]
        report = entrainment_check(cfg, trajs, transient_periods=2)
        assert report.gap_slack <= 1.05
        assert report.decay_rate >= 0.04
        assert np.isfinite(report.periodicity_residual)


class TestInputs:
    def test_sinusoid(self):
        r = SinusoidInput(offset=4.0, amplitude=4.0, period=1.0)
        assert_allclose(r(0.0), 4.0)
        assert_allclose(r(0.25), 8.0)
        assert_allclose(r(np.array([0.0, 0.5])), [4.0, 4.0], atol=1e-12)

    def test_spike_train_interpolates_periodically(self):
        r = SpikeTrainInput(times=[0.0, 1.0, 2.0], values=[0.0, 10.0, 0.0])
        assert r.period == 2.0
        assert_allclose(r(0.5), 5.0)
        assert_allclose(r(2.5), 5.0)  # wraps around
        assert_allclose(r(np.array([1.0, 3.0])), [10.0, 10.0])

    def test_spike_train_validation(self):
        with pytest.raises(ValueError):
            SpikeTrainInput(times=[0.5, 1.0], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            SpikeTrainInput(times=[0.0, 1.0, 1.0], values=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            SpikeTrainInput(times=[0.0, 1.0], values=[1.0])

    def test_json_round_trip(self):
        cases = [
            (SinusoidInput(2.0, 3.0, 0.5),
             {"kind": "sinusoid", "params": {"offset": 2.0, "amplitude": 3.0, "period": 0.5}}),
            (SpikeTrainInput([0.0, 0.3, 1.0], [1.0, -2.0, 1.0]),
             {"kind": "spike_train",
              "params": {"times": [0.0, 0.3, 1.0], "values": [1.0, -2.0, 1.0]}}),
            (ZeroInput(), {"kind": "zero", "params": {"period": 1.0}}),
        ]
        for inp, expected in cases:
            assert input_to_json(inp) == expected
            back = input_from_json(input_to_json(inp))
            assert type(back) is type(inp)
            assert_allclose(back(np.linspace(0, 2, 11)), inp(np.linspace(0, 2, 11)))

    @pytest.mark.parametrize("period", [0, -1.0, float("nan"), float("inf"), "1"])
    @pytest.mark.parametrize("kind", ["sinusoid", "zero"])
    def test_period_must_be_finite_and_positive(self, kind, period):
        with pytest.raises(ValueError, match="period"):
            config_from_json({"adjacency": [[0]],
                              "input": {"kind": kind, "params": {"period": period}}})

    @pytest.mark.parametrize("param", ["offset", "amplitude"])
    def test_sinusoid_levels_must_be_finite(self, param):
        for value in ("4", float("nan")):
            with pytest.raises(ValueError, match=param):
                SinusoidInput(**{param: value})

    @pytest.mark.parametrize("params, missing", [
        ({}, "['times', 'values']"), ({"times": [0.0, 1.0]}, "['values']")])
    def test_missing_params_named(self, params, missing):
        # The constructor's TypeError escaped the CLI as a traceback.
        with pytest.raises(ValueError, match=rf"^missing spike_train input params {re.escape(missing)}$"):
            input_from_json({"kind": "spike_train", "params": params})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown input kind"):
            input_from_json({"kind": "square_wave"})
        with pytest.raises(TypeError, match="cannot serialize"):
            input_to_json(object())


class TestConfigJson:
    def test_round_trip(self):
        cfg = six_config(eta=0.07, seed=9, gains=np.full(6, 6.1))
        back = config_from_json(config_to_json(cfg))
        assert np.array_equal(back.adjacency, cfg.adjacency)
        assert np.array_equal(back.gains, cfg.gains)
        assert (back.a, back.b, back.c, back.gamma, back.eta) == (0.0, 2.0, 6.0, 0.05, 0.07)
        assert (back.seed, back.t_end, back.step) == (9, 25.0, 1e-3)
        assert back.input == cfg.input

    def test_auto_gains_and_flat_adjacency(self):
        obj = {"N": 2, "adjacency": [0, 1, 1, 0], "gains": "auto"}
        cfg = config_from_json(obj)
        assert cfg.gains is None
        assert np.array_equal(cfg.adjacency, [[0, 1], [1, 0]])
        assert_allclose(resolved_gains(cfg), [6.05, 6.05])

    def test_validation(self):
        with pytest.raises(ValueError, match="N"):
            config_from_json({"N": 3, "adjacency": [[0, 1], [1, 0]]})
        with pytest.raises(ValueError, match="flat adjacency"):
            config_from_json({"adjacency": [0, 1, 1, 0]})
        with pytest.raises(ValueError, match="auto"):
            config_from_json({"adjacency": [[0]], "gains": "default"})

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("adjacency", [[0, 1, 1, 0], [[0, 1], [1, 0]]], ids=["flat", "square"])
    def test_n_must_be_positive(self, n, adjacency):
        with pytest.raises(ValueError, match=rf"^N must be a positive integer, got {n}$"):
            config_from_json({"N": n, "adjacency": adjacency})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys.*gamm"):
            config_from_json({"adjacency": [[0]], "gamm": 5.0})
        with pytest.raises(ValueError, match="sinusoid.*periode"):
            input_from_json({"kind": "sinusoid", "params": {"periode": 1.0}})

    @pytest.mark.parametrize("key, value", [
        ("a", None), ("b", "2"), ("c", "6"), ("gamma", [0.1]), ("eta", float("nan")),
        ("t_end", float("inf")), ("step", "0.1"), ("gains", {"a": 1}),
        # numpy's float cast read "1" and True as 1.0
        ("a", True), ("b", False), ("c", True), ("gamma", True), ("eta", True),
        ("t_end", True), ("step", True), ("gains", ["7"]), ("gains", [True]),
        ("adjacency", [["0"]]), ("adjacency", [[False]]), ("adjacency", [[0, True], [1, 0]]),
    ])
    def test_rejects_non_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            config_from_json({"adjacency": [[0]], key: value})

    def test_numbers_stored_as_floats(self):
        # A 0-d array was stored as given, and json.dumps could not write it.
        cfg = six_config(a=np.array(0), b=2, c=np.float32(6.0), gamma=np.array(0.05),
                         eta=np.array(0.05), t_end=np.int64(25), step=np.array(1e-3),
                         seed=np.int64(3))
        values = [getattr(cfg, k) for k in ("a", "b", "c", "gamma", "eta", "t_end", "step")]
        assert all(type(v) is float for v in values) and type(cfg.seed) is int
        assert values == [0.0, 2.0, 6.0, 0.05, 0.05, 25.0, 1e-3]
        obj = json.loads(json.dumps(config_to_json(cfg)))
        assert (obj["eta"], obj["seed"]) == (0.05, 3)
        assert certify(config_from_json(obj)).mu_scaled == certify(six_config(seed=3)).mu_scaled

    def test_shipped_config_loads(self):
        cfg = load_config(FHN6)
        assert np.array_equal(cfg.adjacency, SIX_RING)
        assert cfg.gains is None
        assert cfg.seed == 7
        assert certify(cfg).passed


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, tmp_path):
        cfg = FhnConfig(adjacency=[[0.0]], t_end=0.01, step=1e-3)
        traj = simulate(cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,v1,w1,r"
        assert len(lines) == 1 + traj.times.shape[0]
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], traj.times)
        assert np.array_equal(table[:, 1:3], traj.states)
        assert np.array_equal(table[:, 3], traj.input_trace)

    def test_rejects_batched(self, tmp_path):
        cfg = six_config(t_end=0.01)
        traj = simulate(cfg, x0=np.zeros((2, 12)))
        with pytest.raises(ValueError, match="unbatched"):
            write_trajectory_csv(tmp_path / "x.csv", traj)


class TestConfigValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError, match="c must"):
            six_config(c=0.0)
        with pytest.raises(ValueError, match="gains have length"):
            six_config(gains=[1.0, 2.0])
        with pytest.raises(ValueError, match="0 or 1"):
            FhnConfig(adjacency=[[0, 2], [2, 0]])
        with pytest.raises(ValueError, match="step"):
            six_config(step=0.0)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence raised "expected non-negative integer" only at
        # initial_state or simulate.
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            six_config(seed=-1)


class TestConfigImmutable:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(FhnConfig)])
    def test_field_assignment_raises(self, name):
        cfg = six_config(gains=np.full(6, 6.1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    @pytest.mark.parametrize("name", ["adjacency", "gains"])
    def test_arrays_are_read_only(self, name):
        cfg = six_config(gains=np.full(6, 6.1))
        with pytest.raises(ValueError, match="read-only"):
            getattr(cfg, name)[0] = 0.0

    def test_resolved_gains_are_read_only(self):
        ell = resolved_gains(six_config())
        with pytest.raises(ValueError, match="read-only"):
            ell[0] = 0.0

    def test_caller_arrays_stay_writable_and_unchanged(self):
        adj, gains = SIX_RING.copy(), np.full(6, 6.1)
        cfg = FhnConfig(adjacency=adj, gains=gains)
        assert adj.flags.writeable and gains.flags.writeable
        adj[0, 1], gains[0] = 0.0, 0.0
        assert np.array_equal(cfg.adjacency, SIX_RING)
        assert np.array_equal(cfg.gains, np.full(6, 6.1))

    def test_replace_derives_a_validated_config(self):
        cfg = six_config()
        longer = dataclasses.replace(cfg, t_end=50.0)
        assert longer.t_end == 50.0 and cfg.t_end == 25.0
        assert np.array_equal(longer.adjacency, cfg.adjacency)
        with pytest.raises(ValueError, match=r"^b must be a finite nonnegative number, got -1\.0$"):
            dataclasses.replace(cfg, b=-1.0)
        with pytest.raises(ValueError, match="^gains have length 3, expected 6$"):
            dataclasses.replace(cfg, gains=[1.0] * 3)

    def test_hash_and_equality_by_identity(self):
        # Array fields made hash() raise TypeError and == raise "truth value
        # of an array is ambiguous".
        cfg = six_config()
        assert {cfg: 1}[cfg] == 1 and hash(cfg) == hash(cfg)
        assert cfg == cfg
        assert cfg != dataclasses.replace(cfg)

    def test_replaced_gains_reach_the_jacobian(self):
        cfg = six_config()
        explicit = dataclasses.replace(cfg, gains=np.full(6, 7.0))
        x = np.random.default_rng(9).uniform(-2.0, 2.0, size=12)
        assert np.array_equal(closed_loop_jacobian(explicit, x),
                              reference_closed_loop_jacobian(explicit, x))
        assert not np.array_equal(closed_loop_jacobian(explicit, x),
                                  closed_loop_jacobian(cfg, x))


class TestNonFiniteNumbers:
    """NaN and infinite gains, rates and breakpoints raise ValueError naming
    the field."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c", "gamma", "eta"])
    def test_fhn_gains_scalars(self, name, bad):
        args = {"c": 6.0, "gamma": 0.05, "eta": 0.05, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fhn_gains(laplacian(SIX_RING), **args)

    @pytest.mark.parametrize("name, value", [("c", 0.0), ("gamma", -0.1), ("c", "6")])
    def test_fhn_gains_follows_config_rules(self, name, value):
        args = {"c": 6.0, "gamma": 0.05, "eta": 0.05, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fhn_gains(laplacian(SIX_RING), **args)

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_eta_must_be_positive(self, eta):
        # A nonpositive rate certified an expanding network: eta = -1 gave
        # passed = True with mu_scaled = +1.
        with pytest.raises(ValueError, match="^eta must be a finite positive number"):
            six_config(eta=eta)
        with pytest.raises(ValueError, match="^eta must be a finite positive number"):
            fhn_gains(laplacian(SIX_RING), 6.0, 0.05, eta)

    @pytest.mark.parametrize("L, message", [
        ([[np.nan, 0.0], [0.0, 0.0]], "^matrix has non-finite entries$"),
        ([[1.0, -1.0], [np.inf, 0.0]], "^matrix has non-finite entries$"),
        ([[-np.inf, 0.0], [0.0, 1.0]], "^matrix has non-finite entries$"),
        (np.ones((2, 3)), r"^expected a non-empty square matrix, got shape \(2, 3\)$")],
        ids=["nan", "inf", "-inf", "2x3"])
    def test_laplacian_argument_follows_fhn_gains(self, L, message):
        # Unchecked, a NaN L gave gains [nan, 6.05] and a 2 x 3 one numpy's
        # broadcast error.
        with pytest.raises(ValueError, match=message):
            fhn_gains(L, 6.0, 0.05, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_config_gains(self, bad):
        with pytest.raises(ValueError, match="^gains must"):
            six_config(gains=[6.0, 6.0, bad, 6.0, 6.0, 6.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["times", "values"])
    def test_spike_train_breakpoints(self, field, bad):
        params = {"times": [0.0, 0.5, 1.0], "values": [0.0, 8.0, 0.0]}
        params[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must"):
            SpikeTrainInput(**params)


def test_integer_beyond_float_range_rejected():
    # JSON reads a long integer literal as a Python int that no float holds.
    with pytest.raises(ValueError, match="^c must be"):
        config_from_json({"adjacency": [[0]], "c": 10 ** 400})


def test_fhn_gains_scalar_network():
    assert np.array_equal(fhn_gains(np.zeros((1, 1)), 6.0, 0.05, 0.05), [6.05])
