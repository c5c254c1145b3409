"""Diffusively coupled FitzHugh-Nagumo networks.

Neuron i has a voltage v_i and recovery variable w_i:

    v_i' = c (v_i + w_i - v_i^3 / 3 + r(t)) - gamma * (L v)_i - ell_i v_i
    w_i' = -(v_i - a + b w_i) / c

with L the graph Laplacian of the coupling and r a shared periodic input.
The cubic is the only nonlinear term and its derivative vanishes at 0, so
with x = (v, w) the network is x' = J(0) x + e(t) - (c/3) (v^3, 0), where
e(t) = (c r(t) 1, (a/c) 1), and its Jacobian at x is J(0) - c diag(v^2, 0).
In the norm |x|^2 = |v|^2 + c^2 |w|^2 the network contracts at rate eta
whenever the voltage-block bound c I - gamma (L + L^T)/2 - diag(ell) has
mu_2 at most -eta and eta <= b/c; the cheapest such gains have the closed
form (c + eta) 1 - (gamma / 2) L^T 1.  Contracting trajectories entrain to
the input's period regardless of their initial state.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from itertools import combinations

import numpy as np

from netcontract.metzler import (_as_square, _finite, _finite_entries, _float_array, _integer,
                                  _measure, _vector)

__all__ = [
    "SinusoidInput", "SpikeTrainInput", "ZeroInput", "FhnConfig", "Trajectory",
    "CertificateCheck", "ContractionCertificate", "EntrainmentReport",
    "laplacian", "fhn_gains", "certify", "resolved_gains", "initial_state",
    "simulate", "closed_loop_jacobian", "scaled_state_norm", "entrainment_check",
    "input_from_json", "input_to_json", "config_from_json", "config_to_json",
    "load_config", "write_trajectory_csv", "DivergedError",
]


@dataclass(frozen=True)
class SinusoidInput:
    offset: float = 4.0
    amplitude: float = 4.0
    period: float = 1.0

    def __post_init__(self):
        _finite("offset", self.offset)
        _finite("amplitude", self.amplitude)
        _finite("period", self.period, "positive")

    def __call__(self, t):
        return self.offset + self.amplitude * np.sin(2.0 * np.pi * np.asarray(t) / self.period)


@dataclass(frozen=True, eq=False)
class SpikeTrainInput:
    """Periodic piecewise-linear input; breakpoints cover one period [0, T]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _vector("times", self.times, np.size(self.times))
        v = _vector("values", self.values, t.shape[0])
        if t.shape[0] < 2:
            raise ValueError("need at least 2 breakpoints")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("breakpoint times must start at 0 and increase")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def period(self) -> float:
        return float(self.times[-1])

    def __call__(self, t):
        return np.interp(np.mod(np.asarray(t), self.period), self.times, self.values)


@dataclass(frozen=True)
class ZeroInput:
    period: float = 1.0

    def __post_init__(self):
        _finite("period", self.period, "positive")

    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


def laplacian(adjacency) -> np.ndarray:
    """Graph Laplacian diag(M 1) - M of a non-empty binary adjacency (zero diagonal)."""
    M = np.asarray(adjacency, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"adjacency must be a non-empty square matrix, got shape {M.shape}")
    if np.any(np.diag(M) != 0):
        raise ValueError("adjacency has nonzero diagonal entries")
    if not np.isin(M, (0.0, 1.0)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    return np.diag(M.sum(axis=1)) - M


@dataclass(frozen=True, eq=False)
class FhnConfig:
    """One FitzHugh-Nagumo network and its run settings, as an immutable value.

    ``adjacency`` and explicit ``gains`` are stored as read-only float copies,
    so the caller's arrays stay writable and unchanged.  Assigning to a field
    raises ``dataclasses.FrozenInstanceError``; derive a changed config with
    ``dataclasses.replace``, which validates again.  The Laplacian, the
    resolved gains and the closed-loop operator K, which
    ``closed_loop_jacobian``, ``simulate`` and ``certify`` share, are computed
    once per config and are read-only too.  Equality and hashing are by identity.
    """

    adjacency: np.ndarray
    a: float = 0.0
    b: float = 2.0
    c: float = 6.0
    gamma: float = 0.05
    eta: float = 0.05
    gains: np.ndarray | None = None  # None: minimum-effort gains for eta
    input: object = field(default_factory=SinusoidInput)
    seed: int = 0
    t_end: float = 25.0
    step: float = 1e-3

    def __post_init__(self):
        adjacency = np.array(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", _read_only(adjacency))
        # laplacian() validates shape and entries; its result is kept
        object.__setattr__(self, "_laplacian", _read_only(laplacian(adjacency)))
        checked = {"seed": _integer("seed", self.seed, "nonnegative"),
                   **dict(zip(("c", "gamma"), _rates(self.c, self.gamma))),
                   "a": _finite("a", self.a), "b": _finite("b", self.b, "nonnegative"),
                   **{name: _finite(name, getattr(self, name), "positive")
                      for name in ("eta", "t_end", "step")}}
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.gains is not None:
            gains = _vector("gains", self.gains, self.n_neurons).copy()
            object.__setattr__(self, "gains", _read_only(gains))

    @property
    def n_neurons(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def _gains(self) -> np.ndarray:
        """The voltage gains ell: explicit, or the minimum-effort ones for eta."""
        if self.gains is not None:
            return self.gains
        return _read_only(fhn_gains(self._laplacian, self.c, self.gamma, self.eta))

    @cached_property
    def _gamma_deg(self) -> np.ndarray:
        """gamma * deg, the diffusive self-term of each voltage."""
        return _read_only(self.gamma * self.adjacency.sum(axis=1))

    @cached_property
    def _operator(self) -> np.ndarray:
        """K = [J(0) | c (1_v, 0_w) | (a/c) (0_v, 1_w)], of shape (2N, 2N + 2),
        so that the closed loop is x' = K (x, r(t), 1) - (c/3) (v^3, 0).  J(0)
        has the blocks gamma A + diag(c - gamma deg - ell), c I, -I/c and
        -(b/c) I."""
        n, c = self.n_neurons, self.c
        i = np.arange(n)
        K = np.zeros((2 * n, 2 * n + 2))
        K[:n, :n] = self.gamma * self.adjacency  # zero diagonal, as A's
        K[i, i] = c - self._gamma_deg - self._gains
        K[i, n + i] = c
        K[n + i, i] = -1.0 / c
        K[n + i, n + i] = -self.b / c
        K[:n, 2 * n] = c
        K[n:, 2 * n + 1] = self.a / c
        return _read_only(K)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _rates(c, gamma) -> tuple[float, float]:
    """c and gamma as floats, once c is finite and positive and gamma finite
    and nonnegative; anything else raises ValueError."""
    return _finite("c", c, "positive"), _finite("gamma", gamma, "nonnegative")


def _eta_floor(gamma_deg, c) -> float:
    """gamma * max deg - c, the least eta with the voltage bound + eta*I >= 0."""
    return float(np.max(gamma_deg)) - c


def fhn_gains(L, c: float, gamma: float, eta: float) -> np.ndarray:
    """Minimum-effort voltage gains for contraction rate eta.

    ell* = (c + eta) 1 - (gamma / 2) L^T 1.  Requires c > 0, gamma >= 0, eta > 0
    and eta >= gamma * max_i L_ii - c, so every gain stays purely dissipative in
    the bound; anything else, or an L not square and finite, raises ValueError.
    """
    c, gamma = _rates(c, gamma)
    eta = _finite("eta", eta, "positive")
    L = _finite_entries(_as_square(L))
    n = L.shape[0]
    floor = _eta_floor(gamma * np.diag(L), c)
    if eta < floor:
        raise ValueError(
            f"eta = {eta:g} violates eta >= gamma * max degree - c = {floor:g}")
    return (c + eta) * np.ones(n) - (gamma / 2.0) * (L.T @ np.ones(n))


def resolved_gains(config: FhnConfig) -> np.ndarray:
    """The config's voltage gains, explicit or closed-form; read-only."""
    return config._gains


def _norm_weights(n: int, c: float) -> np.ndarray:
    """The weights (1_v, c^2 1_w) of a state's squares in |x|_{2,T}^2."""
    return np.concatenate([np.ones(n), np.full(n, c * c)])


def scaled_state_norm(x, c: float) -> np.ndarray:
    """|x|_{2,T} = sqrt(|v|^2 + c^2 |w|^2), batched over leading axes.  An
    odd last axis, or a c that is not finite and positive, raises ValueError;
    the entries of x are not scanned."""
    x = np.asarray(x, dtype=float)
    c = _finite("c", c, "positive")
    if x.ndim == 0 or x.shape[-1] % 2 != 0:
        raise ValueError(f"x has shape {x.shape}; its last axis must hold v and w halves")
    return np.sqrt((x * x) @ _norm_weights(x.shape[-1] // 2, c))


def closed_loop_jacobian(config: FhnConfig, x) -> np.ndarray:
    """Jacobian of the closed-loop field at a state x of shape (2N,).

    Only the voltage diagonal c (1 - v^2) - gamma deg - ell depends on x: it
    is written per call into a copy of J(0), the first 2N columns of the
    config's cached operator K.
    """
    n = config.n_neurons
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * n,):
        raise ValueError(f"x has shape {x.shape}, expected state dimension {2 * n}")
    v = x[:n]
    J = config._operator[:, :2 * n].copy()
    J.reshape(-1)[:n * (2 * n + 1):2 * n + 1] = (
        config.c * (1.0 - v * v) - config._gamma_deg - config._gains)
    return J


@dataclass
class CertificateCheck:
    name: str
    passed: bool
    residual: float


@dataclass
class ContractionCertificate:
    eta_requested: float
    eta_certified: float
    mu_scaled: float
    checks: list[CertificateCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# Slack for the certificate's floating-point comparisons.
_CERT_SLACK = 1e-9


def certify(config: FhnConfig) -> ContractionCertificate:
    """Contraction certificate for the closed-loop network.

    In the scaled norm, mu of the closed-loop Jacobian at any state is at
    most max(mu_2 of the voltage block of J(0) in the config's K, -b/c), and
    eta is certified when that is <= -eta, which needs eta <= b/c.  The gains'
    closed form is optimal only when eta >= gamma * max deg - c.  Each check's
    residual is a signed margin: at most 0 means room.
    """
    n, eta, b_over_c = config.n_neurons, config.eta, config.b / config.c
    mu_scaled = max(float(_measure(config._operator[:n, :n], "two")), -b_over_c)
    floor_gap = _eta_floor(config._gamma_deg, config.c) - eta
    checks = [
        CertificateCheck("eta_le_b_over_c", eta <= b_over_c + _CERT_SLACK, eta - b_over_c),
        CertificateCheck("bound_plus_eta_nonneg", floor_gap <= 1e-12, floor_gap),
        CertificateCheck("scaled_measure_le_minus_eta", mu_scaled <= -eta + _CERT_SLACK,
                         mu_scaled + eta),
    ]
    return ContractionCertificate(eta_requested=float(eta),
                                  eta_certified=-mu_scaled,
                                  mu_scaled=mu_scaled, checks=checks)


def initial_state(config: FhnConfig, rng=None) -> np.ndarray:
    """Uniform draw from [-4, 4] per coordinate (seeded from the config)."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return rng.uniform(-4.0, 4.0, size=2 * config.n_neurons)


@dataclass
class Trajectory:
    """Sampled states, of shape (T, ..., 2N), at T finite, strictly increasing
    times, with the input at each time.  The checks read the times and the
    shapes only, never the states."""

    times: np.ndarray
    states: np.ndarray
    input_trace: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.input_trace = np.asarray(self.input_trace, dtype=float)
        if (self.times.ndim != 1 or not np.isfinite(self.times).all()
                or np.any(np.diff(self.times) <= 0)):
            raise ValueError("times must be finite and strictly increasing")
        if self.states.ndim < 2:
            raise ValueError(f"states must have a time axis and a state axis, "
                             f"got shape {self.states.shape}")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states and times disagree on sample count")
        if self.states.shape[-1] % 2 != 0:
            raise ValueError("state dimension must be even (v and w halves)")
        if self.input_trace.shape != self.times.shape:
            raise ValueError("input_trace and times disagree on sample count")

    @property
    def n_neurons(self) -> int:
        return self.states.shape[-1] // 2

    @property
    def v(self) -> np.ndarray:
        return self.states[..., :self.n_neurons]

    @property
    def w(self) -> np.ndarray:
        return self.states[..., self.n_neurons:]


# Steps between finiteness checks of the stored states.
_BLOCK = 256


class DivergedError(RuntimeError):
    """State became non-finite during integration; carries the time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time:g}")
        self.time = float(time)


def _grid(t_end, step) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, mid, end) of a run from t = 0: the step times t_k, and the
    times t_k + step/2 and t_k + step of each step's later RK4 stages."""
    span = t_end / step
    if span == np.inf:
        raise ValueError(f"t_end / step overflows: t_end = {t_end:g}, step = {step:g}")
    n_steps = max(int(round(span)), 1)
    times = step * np.arange(n_steps + 1)
    return times, times[:-1] + step / 2.0, times[:-1] + step


def _check_finite(times, out, first: int, stop: int) -> None:
    """Raise DivergedError at the first of the states out[first:stop] with a
    non-finite entry, if any.  A non-finite entry stays non-finite in every
    later state, so checking once per block of steps finds the first one."""
    finite = np.isfinite(out[first:stop]).all(axis=tuple(range(1, out.ndim)))
    if not finite.all():
        raise DivergedError(times[first + int(np.argmin(finite))])


def simulate(config: FhnConfig, x0=None) -> Trajectory:
    """Integrate the closed-loop network by classical RK4 from t = 0 to the
    config's t_end in steps of its step; x0 defaults to a seeded draw.

    x0 may carry leading batch axes (last axis 2N); batches integrate in
    lockstep on the shared grid, held as one (2N, batch) array.  Stage i's
    slope is k_i = K z_i - (c/3) (v_i^3, 0), with K the config's cached
    operator and z_i = (y_i, r_i, 1) the stage input.  Each stage makes one
    product of K with z_i, and two multiplies for the cube; the two terms
    of k_i are never summed on their own.  Instead the next stage input
    x + a_i k_i is one product of a coefficient row with the stacked
    blocks (K z_1, ..., K z_4, v_1^3, ..., v_4^3, x), and the new state adds
    one such product with the RK4 weights (h/6, h/3, h/3, h/6).  The four
    stages are written out over named views of one buffer, and a step makes
    19 numpy calls: 8 multiplies, 8 products, one add and two copies.  The
    products are bound ``ndarray.dot`` methods with a positional out: they
    compute what ``np.dot`` does, bit for bit, without its
    ``__array_function__`` dispatch, which adds a third or more to each
    product at the benchmark's size (N = 30, batch 4).  The input
    is evaluated once, vectorised, at the stage times of every step.  A
    non-finite x0 raises ValueError, and overflow raises DivergedError with
    the time of the first non-finite state.  For another horizon or step,
    pass ``dataclasses.replace(config, t_end=..., step=...)``.
    """
    if x0 is None:
        x0 = initial_state(config)
    x0 = np.asarray(x0, dtype=float)
    n = config.n_neurons
    if x0.ndim == 0 or x0.shape[-1] != 2 * n:
        raise ValueError(f"x0 has shape {x0.shape}, expected state dimension {2 * n}")
    h = float(config.step)
    times, mid, end = _grid(float(config.t_end), h)
    if not np.isfinite(x0).all():
        raise ValueError("x0 has non-finite entries")
    r = np.asarray(config.input(np.concatenate([times, mid, end])), dtype=float)
    r_times, r_mid, r_end = np.split(r, [times.size, times.size + mid.size])
    # r at each step's start, midpoint and end, shaped to broadcast over the batch
    stage_r = np.stack([r_times[:-1], r_mid, r_end], axis=1)[:, :, None]

    out = np.empty(times.shape + x0.shape)
    out[0] = x0
    batch = math.prod(x0.shape[:-1])
    flat = out.reshape(times.size, batch, 2 * n)
    # buf[0] holds nine contiguous (2N, batch) blocks, K z_1, ..., K z_4, the
    # cubes (v_i^3, 0) and x, then the rows r and 1, so that its last 2N + 2
    # rows are stage 1's input.  buf[1] and buf[2] use only those last rows,
    # as the inputs of the stages at the midpoint (2 and 3) and at the end (4)
    # of the step.  The zeros stay in each cube's w half, and make 0 times a
    # block not yet computed 0 on the first step.
    q = 2 * n
    buf = np.zeros((3, 9 * q + 2, batch))
    buf[:, -1] = 1.0
    buf[0, 8 * q:9 * q] = flat[0].T
    buf_r, x = buf[:, -2], buf[0, 8 * q:9 * q]
    blocks = buf[0, :9 * q].reshape(9, -1)
    c3 = -config.c / 3.0
    a = np.array([h / 2.0, h / 2.0, h])  # stage i + 1's input is x + a_i k_i
    w = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0])  # the new state is x + sum w_i k_i
    coef = np.zeros((3, 9))
    coef[:, 8] = 1.0
    coef[range(3), range(3)] = a
    coef[range(3), range(4, 7)] = c3 * a
    weights = np.concatenate([w, c3 * w])
    acc = np.empty(q * batch)
    # Stage i reads its input z_i, whose first n rows are v_i, and writes
    # K z_i into kz_i and v_i^3 into cube_i.  Stages 2 and 3 share the input
    # z2, as stage 2 writes stage 3's state rows over its own once K z_2 is
    # taken; y2 and y4 are the state rows of z2 and z4.
    z1, z2, z4 = buf[0, 8 * q:], buf[1, 8 * q:], buf[2, 8 * q:]
    v1, v2, v4 = z1[:n], z2[:n], z4[:n]
    y2, y4 = buf[1, 8 * q:9 * q].reshape(-1), buf[2, 8 * q:9 * q].reshape(-1)
    kz1, kz2, kz3, kz4 = (buf[0, i * q:(i + 1) * q] for i in range(4))
    cube1, cube2, cube3, cube4 = (buf[0, i * q:i * q + n] for i in range(4, 8))
    kdot = config._operator.dot
    dot1, dot2, dot3 = (row.dot for row in coef)
    wdot, first8 = weights.dot, blocks[:8]
    x_flat, x_t = x.reshape(-1), x.T
    multiply, add = np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, times.size, _BLOCK):
            stop = min(first + _BLOCK, times.size)
            for s in range(first, stop):
                buf_r[...] = stage_r[s - 1]
                multiply(v1, v1, cube1)
                multiply(cube1, v1, cube1)
                kdot(z1, kz1)
                dot1(blocks, y2)
                multiply(v2, v2, cube2)
                multiply(cube2, v2, cube2)
                kdot(z2, kz2)
                dot2(blocks, y2)
                multiply(v2, v2, cube3)
                multiply(cube3, v2, cube3)
                kdot(z2, kz3)
                dot3(blocks, y4)
                multiply(v4, v4, cube4)
                multiply(cube4, v4, cube4)
                kdot(z4, kz4)
                wdot(first8, acc)
                add(x_flat, acc, x_flat)
                flat[s] = x_t
            _check_finite(times, out, first, stop)
    return Trajectory(times=times, states=out, input_trace=r[:times.size])


@dataclass
class EntrainmentReport:
    """Entrainment diagnostics; ``gaps[k]``, not in ``repr`` or ``==``, is the scaled
    gap of the k-th pair in ``combinations`` order at every time (0 if coincident)."""

    eta: float
    period: float
    gap_slack: float            # worst gap(t) / (e^{-eta (t - t0)} gap(t0)) over pairs, t > t0
    decay_rate: float           # smallest fitted log-decay rate over pairs
    periodicity_residual: float
    sync_spread: float
    n_pairs: int
    gaps: np.ndarray = field(repr=False, compare=False)


def entrainment_check(config: FhnConfig, trajectories, period: float | None = None,
                      fit_start: float = 1.0, transient_periods: int = 15) -> EntrainmentReport:
    """Entrainment diagnostics for unbatched trajectories on a common grid.

    Pairwise scaled gaps are compared against the certified envelope
    e^{-eta (t - t0)} gap(t0), with t0 the grid's first time, and log-linear
    fitted for an empirical decay rate; steady-state periodicity and
    cross-neuron spread are measured over the final period.  Each pair is
    one pass: its squared gap is the difference of the states, squared,
    times the weights (1_v, c^2 1_w), kept as ``gaps``; its decay rate is
    the least-squares slope of log gap on the centred times of
    [fit_start, t_end], where the gap is positive.

    Each trajectory's states must have shape (T, 2N), with N the config's
    neuron count, on one uniform time grid from t0 to t_end.  The span
    t_end - t0 must leave room for the transient (``transient_periods`` + 3
    periods) and the period must be a whole number of steps.  ``fit_start``
    is an absolute time.  ``period`` must be finite and positive,
    ``transient_periods`` a nonnegative integer, and ``fit_start`` finite
    with at least two samples in [fit_start, t_end]; anything else raises
    ValueError.
    """
    trajs = list(trajectories)
    if len(trajs) < 2:
        raise ValueError("need at least two trajectories")
    n = config.n_neurons
    for tr in trajs:
        if tr.states.ndim != 2:
            raise ValueError(f"trajectories must be unbatched, with states of shape "
                             f"(T, 2N); got {tr.states.shape}")
        if tr.states.shape[1] != 2 * n:
            raise ValueError(f"states have dimension {tr.states.shape[1]}, expected "
                             f"2N = {2 * n} for the config's {n} neurons")
    times = trajs[0].times
    for tr in trajs[1:]:
        if tr.states.shape != trajs[0].states.shape or not np.array_equal(tr.times, times):
            raise ValueError("trajectories must share one time grid")
    if period is None:
        period = getattr(config.input, "period", None)
        if period is None:
            raise ValueError("period not deducible from the input; pass it explicitly")
    period = _finite("period", period, "positive")
    fit_start = _finite("fit_start", fit_start)
    transient_periods = _integer("transient_periods", transient_periods, "nonnegative")
    t0, t_end = float(times[0]), float(times[-1])
    if t_end - t0 < (transient_periods + 3) * period:
        raise ValueError(
            f"horizon {t_end - t0:g} too short: need at least {(transient_periods + 3)} "
            f"periods ({(transient_periods + 3) * period:g}) to pass the transient")
    fit = times >= fit_start
    if int(fit.sum()) < 2:
        raise ValueError(f"fit_start = {fit_start:g} leaves fewer than two samples "
                         f"in [fit_start, {t_end:g}]")
    step = (t_end - t0) / (times.size - 1)
    # Rounding of t_k = step * k moves a spacing by at most an ulp of t_end.
    spacing_tol = 1e-9 * step + 4.0 * np.finfo(float).eps * max(abs(t_end), abs(t0))
    if float(np.max(np.abs(np.diff(times) - step))) > spacing_tol:
        raise ValueError("times must be uniformly spaced")
    k = int(round(period / step))
    if abs(k * step - period) > 1e-9 * max(1.0, period) or k < 1:
        raise ValueError("period is not an integer multiple of the sampling step")

    weights = _norm_weights(n, config.c)
    decay = np.exp(-config.eta * (times[1:] - t0))
    t_fit = times[fit]
    gap_slack = 0.0
    decay_rate = math.inf
    d = np.empty(trajs[0].states.shape)  # one buffer for every pair's difference
    gaps = np.empty((len(trajs) * (len(trajs) - 1) // 2, times.size))
    for gap, (ti, tj) in zip(gaps, combinations(trajs, 2)):
        np.subtract(ti.states, tj.states, out=d)
        d *= d
        np.sqrt(d @ weights, out=gap)
        g0 = float(gap[0])
        if g0 == 0.0:
            continue
        gap_slack = max(gap_slack, float(np.max(gap[1:] / decay)) / g0)
        gap_fit = gap[fit]
        valid = gap_fit > 0.0
        if int(valid.sum()) >= 2:
            # Sums, not BLAS dot products: a threaded ddot over a long fit
            # window can cost milliseconds in waking its threads.
            t = t_fit[valid]
            t = t - t.mean()
            slope = float(np.sum(t * np.log(gap_fit[valid]))) / float(np.sum(t * t))
            decay_rate = min(decay_rate, -slope)

    periodicity = 0.0
    spread = 0.0
    for tr in trajs:
        tail = tr.states[-(k + 1):]
        prev = tr.states[-(2 * k + 1):-k]
        periodicity = max(periodicity, float(np.max(np.abs(tail - prev))))
        v_tail = tr.v[-(k + 1):]
        spread = max(spread, float(np.max(v_tail.max(axis=-1) - v_tail.min(axis=-1))))
    return EntrainmentReport(eta=config.eta, period=period, gap_slack=gap_slack,
                             decay_rate=decay_rate, periodicity_residual=periodicity,
                             sync_spread=spread, n_pairs=gaps.shape[0], gaps=gaps)


_INPUT_KINDS = {"sinusoid": SinusoidInput, "spike_train": SpikeTrainInput, "zero": ZeroInput}


def input_from_json(obj) -> object:
    if not isinstance(obj, dict):
        raise ValueError(f"input must be an object with a kind, got {obj!r}")
    kind = obj.get("kind")
    if kind not in _INPUT_KINDS:
        raise ValueError(f"unknown input kind {kind!r}; expected one of {sorted(_INPUT_KINDS)}")
    cls, params = _INPUT_KINDS[kind], obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{kind} input params must be an object, got {params!r}")
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {kind} input params {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in params]
    if missing:
        raise ValueError(f"missing {kind} input params {missing}")
    return cls(**params)


def input_to_json(inp) -> dict:
    kind = next((k for k, cls in _INPUT_KINDS.items() if type(inp) is cls), None)
    if kind is None:
        raise TypeError(f"cannot serialize input of type {type(inp).__name__}")
    return {"kind": kind,
            "params": {f.name: np.asarray(getattr(inp, f.name)).tolist() for f in fields(inp)}}


def config_from_json(obj: dict) -> FhnConfig:
    """FhnConfig from its JSON object: FhnConfig's fields plus an optional N."""
    if not isinstance(obj, dict):
        raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
    names = [f.name for f in fields(FhnConfig)]
    unknown = sorted(set(obj) - {"N", *names})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    kwargs = {k: obj[k] for k in names if k in obj}
    adjacency = _float_array("adjacency", obj["adjacency"])
    n = _integer("N", obj["N"], "positive") if "N" in obj else None
    if adjacency.ndim == 1:
        if n is None or adjacency.size != n * n:
            raise ValueError("flat adjacency requires N with N*N entries")
        adjacency = adjacency.reshape(n, n)
    if n is not None and adjacency.shape[:1] != (n,):
        raise ValueError(f"N = {n} does not match adjacency of shape {adjacency.shape}")
    kwargs["adjacency"] = adjacency
    gains = kwargs.get("gains")
    if isinstance(gains, str):
        if gains != "auto":
            raise ValueError(f"gains must be 'auto' or a list, got {gains!r}")
        kwargs["gains"] = None
    if "input" in kwargs:
        kwargs["input"] = input_from_json(kwargs["input"])
    return FhnConfig(**kwargs)


def config_to_json(config: FhnConfig) -> dict:
    """JSON object of a config; keys keep FhnConfig's field order after N."""
    return {"N": config.n_neurons,
            **{f.name: getattr(config, f.name) for f in fields(config)},
            "adjacency": config.adjacency.astype(int).tolist(),
            "gains": "auto" if config.gains is None else config.gains.tolist(),
            "input": input_to_json(config.input)}


def load_config(path) -> FhnConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(json.load(fh))


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV with header t, v1..vN, w1..wN, r; floats keep full precision."""
    n = traj.n_neurons
    if traj.states.ndim != 2:
        raise ValueError("CSV export expects a single (unbatched) trajectory")
    header = ",".join(["t"] + [f"v{i+1}" for i in range(n)]
                      + [f"w{i+1}" for i in range(n)] + ["r"])
    table = np.column_stack([traj.times, traj.states, traj.input_trace])
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=header, comments="")
