"""Scalar Kalman estimation of an opponent's constant cost type.

The hidden state is a constant, so the filter reduces to

    tau_hat' = (P / R) (y - tau_hat)
    P'       = -P^2 / R

with measurement noise variance R.  P has the exact solution
P(t) = P0 R / (t P0 + R): ``kalman_path`` reads P from it and integrates only
tau_hat, whose rate is affine in tau_hat, so each RK4 step is one
multiply-add whose coefficients numpy sums from the stage gains.
``variance_path`` integrates P's ODE alone, in the scaled unknown h P / R, as
the reference for the closed form.  Both step in one size or in a given size
each (``verify`` grades them with time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError
from .signals import (
    SignalTrace,
    _increment_walk,
    _step_units,
    require_finite,
    step_grid,
)


@dataclass(frozen=True)
class KalmanBelief:
    tau_hat: float
    P: float
    R: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("tau_hat", "P", "R", "t"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteStateError(f"non-finite Kalman field {name}")
        if self.P <= 0.0:
            raise ValueError(f"error variance P must be positive, got {self.P}")
        if self.R <= 0.0:
            raise ValueError(f"noise variance R must be positive, got {self.R}")
        if self.t < 0.0:
            raise ValueError(f"belief clock must be non-negative, got {self.t}")


def kalman_derivative(b: KalmanBelief, y: float) -> tuple[float, float]:
    """Rates of change of (tau_hat, P) given observation y."""
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y}")
    gain = b.P / b.R
    return gain * (y - b.tau_hat), -b.P * b.P / b.R


def step_discrete_kalman(b: KalmanBelief, y: float, dt: float) -> KalmanBelief:
    """One explicit-Euler update scaled by dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    d_tau, d_p = kalman_derivative(b, y)
    return KalmanBelief(
        tau_hat=b.tau_hat + dt * d_tau,
        P=b.P + dt * d_p,
        R=b.R,
        t=b.t + dt,
    )


def variance_closed_form(p0: float, r: float, elapsed: float) -> float:
    """Exact error variance after ``elapsed`` time: p0*r / (elapsed*p0 + r)."""
    return p0 * r / (elapsed * p0 + r)


def mean_closed_form(trace: SignalTrace, p0: float, r: float, t):
    """Closed form p0 * integral(y) / (t p0 + r) at time(s) t; needs tau_hat(0) = 0."""
    return p0 * trace.integral(0.0, t) / (t * p0 + r)


@dataclass(frozen=True)
class KalmanPath:
    t: np.ndarray
    tau_hat: np.ndarray
    P: np.ndarray


def kalman_path(
    b: KalmanBelief, trace: SignalTrace, duration: float, h
) -> KalmanPath:
    """Integrate tau_hat over ``duration`` by RK4, recording every grid point.

    P is read off its closed form, anchored at ``b``, at each step's start,
    middle and end.  ``h`` is one step size, which must divide both the
    duration and the trace's hold interval, or an array of step sizes (see
    :meth:`SignalTrace.held_steps`).  A non-finite state raises
    :class:`NonFiniteStateError` naming its first grid time.
    """
    t, ys = trace.held_steps(b.t, duration, h, "kalman_path")
    u, k = _step_units(duration, h, "kalman_path")
    t_rel = u * k[:-1]
    r, half = b.R, 0.5 * h
    # The gain P/R at each step's start, middle and end, with P read off the
    # closed form.  Each stage rate is then affine in tau_hat at the step
    # start, p + q*tau_hat, so only the walk over the steps is a loop.
    # A gain past the float range runs on to the finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        p_end = variance_closed_form(b.P, r, t_rel + h)
        g1, g2 = (variance_closed_form(b.P, r, t_rel + s) / r for s in (0.0, half))
        g4 = p_end / r
        p1, q1 = g1 * ys, -g1
        p2, q2 = g2 * (ys - half * p1), -g2 * (1.0 + half * q1)
        p3, q3 = g2 * (ys - half * p2), -g2 * (1.0 + half * q2)
        p4, q4 = g4 * (ys - h * p3), -g4 * (1.0 + h * q3)
        tau_arr = _increment_walk(b.tau_hat, h, (p1, p2, p3, p4), (q1, q2, q3, q4))
    p_arr = np.concatenate(([b.P], p_end))
    require_finite(t, "Kalman state", tau_arr, p_arr)
    return KalmanPath(t=t, tau_hat=tau_arr, P=p_arr)


def variance_path(b: KalmanBelief, duration: float, h) -> np.ndarray:
    """Integrate P' = -P^2/R over ``duration`` by RK4 in w = h*P/R: the
    reference for :func:`variance_closed_form`, on the grid of
    :func:`step_grid` from ``b.t``.

    ``h`` is one step size, which must divide the duration, or an array of
    step sizes.  A non-finite P raises :class:`NonFiniteStateError` naming its
    first grid time.
    """
    t = step_grid(b.t, duration, h, "variance_path")
    hs = np.broadcast_to(np.asarray(h, dtype=float), (t.size - 1,))
    # Runs of equal steps, as (step, count).
    first = np.flatnonzero(np.diff(hs, prepend=np.nan))
    runs = zip(hs[first].tolist(), np.diff(np.append(first, hs.size)).tolist())
    # In w = h*P/R the ODE reads w' = -w^2/h, so each RK4 stage slope times h
    # is the square of its stage value; w follows h from run to run (exactly,
    # when the step doubles), and P = w*R/h on the way out.

    def walk(w, h_run):
        yield w
        for h_next, count in runs:
            w *= h_next / h_run
            h_run = h_next
            for _ in range(count):
                k1 = w * w
                v = w - 0.5 * k1
                k2 = v * v
                v = w - 0.5 * k2
                k3 = v * v
                v = w - k3
                w = w - (k1 + 2.0 * (k2 + k3) + v * v) / 6.0
                yield w

    h0 = float(np.ravel(h)[0])
    with np.errstate(over="ignore"):
        p_arr = np.fromiter(walk(h0 * b.P / b.R, h0), float, t.size)
        p_arr *= b.R / np.append(h0, hs)
    require_finite(t, "Kalman state", p_arr)
    return p_arr
