"""Scalar Kalman estimation of an opponent's constant cost type.

The hidden state is a constant, so the filter reduces to

    tau_hat' = (P / R) (y - tau_hat)
    P'       = -P^2 / R

with measurement noise variance R.  P has the exact solution
P(t) = P0 R / (t P0 + R): ``kalman_path`` reads P from it and integrates only
tau_hat, whose rate is affine in tau_hat, by the RK4 for affine ODEs that
the stock and the Normal-Gamma mean share (``signals._affine_rk4``).
``variance_path`` integrates P's ODE alone, in the scaled unknown h P / R, as
the reference for the closed form.  Both step from t = 0 on a grid of whole
multiples of one step (``verify`` grades the steps with time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError
from .signals import SignalTrace, _affine_rk4, require_finite


@dataclass(frozen=True)
class KalmanBelief:
    tau_hat: float
    P: float
    R: float

    def __post_init__(self):
        for name in ("tau_hat", "P", "R"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteStateError(f"non-finite Kalman field {name}")
        if self.P <= 0.0:
            raise ValueError(f"error variance P must be positive, got {self.P}")
        if self.R <= 0.0:
            raise ValueError(f"noise variance R must be positive, got {self.R}")


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
    )


def variance_closed_form(p0: float, r: float, elapsed: float) -> float:
    """Exact error variance after ``elapsed`` time: p0*r / (elapsed*p0 + r)."""
    return p0 * r / (elapsed * p0 + r)


@dataclass(frozen=True)
class KalmanPath:
    t: np.ndarray
    tau_hat: np.ndarray
    P: np.ndarray


def kalman_path(
    b: KalmanBelief, trace: SignalTrace, u: float, k: np.ndarray
) -> KalmanPath:
    """Integrate tau_hat by RK4 over the grid t = u * k (``k`` increasing
    whole numbers from 0), recording every point, with P read off its closed
    form from ``b`` at each step's start, middle and end.  No step may
    straddle a signal jump (:meth:`SignalTrace.held_values`); a non-finite
    state raises :class:`NonFiniteStateError` naming its first grid time."""
    ys = trace.held_values(u, k, "kalman_path")
    t, h = u * k, u * np.diff(k)
    r, half = b.R, 0.5 * h
    # P off the closed form at each step's start, middle and end; then
    # tau_hat' = g y - g tau_hat with the gain g = P/R.  A gain past the
    # float range runs on to the finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.stack([variance_closed_form(b.P, r, t[:-1] + s) for s in (0.0, half, h)])
        g = p / r
        tau_arr = _affine_rk4(b.tau_hat, h, g * ys, g)
    p_arr = np.concatenate(([b.P], p[2]))
    require_finite(t, "Kalman state", tau_arr, p_arr)
    return KalmanPath(t=t, tau_hat=tau_arr, P=p_arr)


def variance_path(b: KalmanBelief, u: float, k: np.ndarray) -> np.ndarray:
    """Integrate P' = -P^2/R by RK4 in w = h*P/R over the grid t = u * k
    (``k`` increasing whole numbers from 0): the reference for
    :func:`variance_closed_form`.  A non-finite P raises
    :class:`NonFiniteStateError` naming its first grid time."""
    t, units = u * k, np.diff(k)
    hs = u * units
    # Runs of equal steps, as (step, count).
    first = np.flatnonzero(np.diff(units, prepend=0))
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

    h0 = float(hs[0])
    with np.errstate(over="ignore"):
        p_arr = np.fromiter(walk(h0 * b.P / b.R, h0), float, t.size)
        p_arr *= b.R / np.append(h0, hs)
    require_finite(t, "Kalman state", p_arr)
    return p_arr
