"""Fixed-step classical Runge-Kutta integration with divergence detection."""

from __future__ import annotations

import numpy as np

from netcontract.metzler import _finite

# Steps between finiteness checks of the stored states.
_BLOCK = 256


class DivergedError(RuntimeError):
    """State became non-finite during integration; carries the time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time:g}")
        self.time = float(time)


def _grid(t0, t_end, step) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, mid, end) of an ``rk4`` run: the step times t_k, and the times
    t_k + step/2 and t_k + step at which each step's later stages call f."""
    t0, t_end = _finite("t0", t0), _finite("t_end", t_end)
    step = _finite("step", step, positive=True)
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    span = (t_end - t0) / step
    if span == np.inf:
        raise ValueError(f"(t_end - t0) / step overflows: t0 = {t0:g}, t_end = {t_end:g}, "
                         f"step = {step:g}")
    n_steps = max(int(round(span)), 1)
    times = t0 + step * np.arange(n_steps + 1)
    return times, times[:-1] + step / 2.0, times[:-1] + step


def _finite_start(x0) -> None:
    """Reject a non-finite initial state before the first step."""
    if not np.isfinite(x0).all():
        raise ValueError("x0 has non-finite entries")


def _check_finite(times, out, first: int, stop: int) -> None:
    """Raise DivergedError at the first of the states out[first:stop] with a
    non-finite entry, if any.  A non-finite entry stays non-finite in every
    later state, so checking once per block of steps finds the first one."""
    finite = np.isfinite(out[first:stop]).all(axis=tuple(range(1, out.ndim)))
    if not finite.all():
        raise DivergedError(times[first + int(np.argmin(finite))])


def rk4(f, x0, t0: float, t_end: float, step: float):
    """Integrate x' = f(t, x) with the classical fourth-order scheme.

    The state may carry leading batch axes; f must map (t, x) -> dx of the
    same shape, and may return x itself but must not write into it.
    Returns (times, states) with states[k] the state at times[k].  A
    non-finite x0 raises ValueError.  Overflow to non-finite values raises
    DivergedError with the time of the first non-finite state; the states
    are checked once per block of steps.
    """
    times, mid, end = _grid(t0, t_end, step)
    h = float(step)
    half, sixth = h / 2.0, h / 6.0
    x0 = np.asarray(x0, dtype=float)
    _finite_start(x0)
    out = np.empty(times.shape + x0.shape)
    out[0] = x0
    # One buffer per stage input, so that f may return its argument.
    y2, y3, y4, acc = (np.empty_like(x0) for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, times.size, _BLOCK):
            stop = min(first + _BLOCK, times.size)
            steps = slice(first - 1, stop - 1)
            for k, t, tm, te in zip(range(first, stop), times[steps].tolist(),
                                    mid[steps].tolist(), end[steps].tolist()):
                x = out[k - 1, ...]
                k1 = f(t, x)
                np.multiply(k1, half, out=y2)
                y2 += x
                k2 = f(tm, y2)
                np.multiply(k2, half, out=y3)
                y3 += x
                k3 = f(tm, y3)
                np.multiply(k3, h, out=y4)
                y4 += x
                k4 = f(te, y4)
                # ((k1 + 2 k2) + 2 k3) + k4; y2 is free once k2 is summed.
                np.multiply(k2, 2.0, out=acc)
                acc += k1
                np.multiply(k3, 2.0, out=y2)
                acc += y2
                acc += k4
                acc *= sixth
                np.add(x, acc, out=out[k, ...])
            _check_finite(times, out, first, stop)
    return times, out
